import random
import struct

import pytest
from hypothesis import given, strategies as st

from cliquedelta.signatures import (MURMUR_SEED, SNAPSHOT_MAGIC, CliqueRegistry,
                                    RegistryError, SignatureCollisionError,
                                    SignatureError, SnapshotError,
                                    SnapshotTruncatedError, _encode, _keys,
                                    _murmur64_lanes, canonical_string,
                                    murmur64, signature)
from cliquedelta import split_candidates


# frozen vectors: recomputing these must never change, or every snapshot
# ever written becomes unreadable
FROZEN = {
    b"": 0x8397626CD6895052,
    b"1,2,3": 0x3E7B6D720EBA14A6,
    b"7": 0x70E0DB5F5D70773C,
    b"3,12": 0xB200E8D514441100,
}


def test_seed_is_pinned():
    assert MURMUR_SEED == 0x9747B28C


@pytest.mark.parametrize("data,expected", sorted(FROZEN.items()))
def test_murmur64_frozen_vectors(data, expected):
    assert murmur64(data) == expected


def test_signature_frozen_vectors():
    assert signature((1, 2, 3)) == FROZEN[b"1,2,3"]
    assert signature((7,)) == FROZEN[b"7"]
    assert signature((3, 12)) == FROZEN[b"3,12"]


@given(st.binary(max_size=64))
def test_murmur64_is_64_bit(data):
    h = murmur64(data)
    assert 0 <= h < 1 << 64


def test_murmur64_varies_with_seed():
    assert murmur64(b"1,2", seed=1) != murmur64(b"1,2", seed=2)


@pytest.mark.parametrize("size", list(range(65)) + [200, 479, 1000])
def test_lane_hasher_matches_murmur64(size):
    rng = random.Random(size)
    for lanes in (1, 2, 7, 128, 129, 300):
        strings = [rng.randbytes(size) for _ in range(lanes)]
        assert _murmur64_lanes(strings) == [murmur64(s) for s in strings]


@pytest.mark.parametrize("data,expected", sorted(FROZEN.items()))
def test_lane_hasher_frozen_vectors(data, expected):
    # each frozen vector as one lane among random strings of its length
    rng = random.Random(len(data))
    strings = [rng.randbytes(len(data)) for _ in range(9)]
    strings[4] = data
    assert _murmur64_lanes(strings)[4] == expected


def test_keys_keep_input_order_across_lengths():
    # two-digit ids give three lengths of more than 128 strings each, and
    # ids up to 9999 give lengths of few strings; the two kinds interleave
    rng = random.Random(3)
    cliques = [tuple(sorted(rng.sample(range(10, 100) if rng.random() < 0.8
                                       else range(1, 10 ** 4),
                                       rng.randint(1, 3))))
               for _ in range(700)]
    assert _keys(cliques) == [(murmur64(canonical_string(c)),
                               canonical_string(c)) for c in cliques]


def test_canonical_string():
    assert canonical_string((3,)) == b"3"
    assert canonical_string((1, 2, 10)) == b"1,2,10"
    with pytest.raises(SignatureError):
        canonical_string(())
    with pytest.raises(SignatureError):
        canonical_string((2, 1))
    with pytest.raises(SignatureError):
        canonical_string((1, 1))


@pytest.mark.parametrize("bad", [(2, 1), (1, 1)])
def test_public_entry_points_reject_non_canonical_cliques(bad):
    # the library hashes its own cliques without this check, so every public
    # entry point must keep it, for new and deleted cliques alike
    r = CliqueRegistry.from_cliques([(1, 2)], verify=True)
    before = r.snapshot()
    with pytest.raises(SignatureError, match="canonical order"):
        signature(bad)
    with pytest.raises(SignatureError, match="canonical order"):
        bad in r
    with pytest.raises(SignatureError, match="canonical order"):
        r.add(bad)
    with pytest.raises(SignatureError, match="canonical order"):
        r.update([bad], [])
    with pytest.raises(SignatureError, match="canonical order"):
        r.update([], [bad])
    with pytest.raises(SignatureError, match="canonical order"):
        CliqueRegistry.from_cliques([(1, 2), bad])
    assert r.snapshot() == before


def test_encode_matches_str_join():
    # the one bytes format against the str join it replaced, on ids at the
    # decimal digit boundaries, at and past 64 bits, and at random
    rng = random.Random(14)
    special = [0, 9, 10, 99, 100, 2 ** 63 - 1, 2 ** 64, 10 ** 30]
    for n in list(range(1, 21)) + [rng.randint(21, 200) for _ in range(200)]:
        ids = set(rng.sample(special, rng.randint(0, min(n, len(special)))))
        while len(ids) < n:
            ids.add(rng.randrange(10 ** rng.randint(1, 25)))
        c = tuple(sorted(ids))
        assert _encode(c) == ",".join(map(str, c)).encode("ascii")


def test_public_entry_points_take_a_list_as_its_tuple():
    lst, tup = [1, 2, 10], (1, 2, 10)
    assert canonical_string(lst) == canonical_string(tup) == b"1,2,10"
    assert signature(lst) == signature(tup)
    r = CliqueRegistry.from_cliques([lst, [3]], verify=True)
    assert r == CliqueRegistry.from_cliques([tup, (3,)])
    assert r._strings == CliqueRegistry.from_cliques([tup, (3,)],
                                                     verify=True)._strings
    assert lst in r and [3] in r and [1, 2] not in r
    added = CliqueRegistry(verify=True)
    added.add(lst)
    assert added == CliqueRegistry.from_cliques([tup])
    r.update([[4, 5]], [lst])
    assert r == CliqueRegistry.from_cliques([(3,), (4, 5)])
    assert (list(split_candidates(lst, [(1, 2), (2, 10)]))
            == list(split_candidates(tup, [(1, 2), (2, 10)])))


@pytest.mark.parametrize("bad", [(1.5, 2), (1, 2.0), ("1", "2"), (True, 2),
                                 [1, True]])
def test_public_entry_points_reject_non_int_members(bad):
    # a float or bool would be written by %d as another clique's string,
    # and a str id is not one the graph can hold
    r = CliqueRegistry.from_cliques([(1, 2)], verify=True)
    before = r.snapshot()
    calls = [canonical_string, signature, r.__contains__, r.add,
             lambda c: r.update([c], []), lambda c: r.update([], [c]),
             lambda c: CliqueRegistry.from_cliques([(1, 2), c]),
             lambda c: split_candidates(c, [(1, 2)])]
    for call in calls:
        with pytest.raises(SignatureError, match="must be int"):
            call(bad)
    assert r.snapshot() == before


@pytest.mark.parametrize("verify", [False, True])
def test_from_cliques_equals_one_add_per_clique(verify):
    # more cliques than one bulk-build slice, of mixed lengths, some listed
    # twice within a slice and across slices
    rng = random.Random(8)
    cliques = [tuple(sorted(rng.sample(range(1, 400), rng.randint(1, 4))))
               for _ in range(2500)]
    cliques += cliques[::7]
    one_by_one = CliqueRegistry(verify=verify)
    for c in cliques:
        one_by_one.add(c)
    bulk = CliqueRegistry.from_cliques(cliques, verify=verify)
    assert bulk == one_by_one and len(bulk) == len(set(cliques))
    assert bulk._strings == one_by_one._strings
    streamed = CliqueRegistry.from_cliques(iter(cliques), verify=verify)
    assert streamed == bulk and streamed._strings == bulk._strings


def test_from_cliques_reads_its_input_a_slice_at_a_time(hashers):
    # a clique is hashed within a few hundred cliques of being read, so a
    # generator's cliques are never all held at once
    calls = hashers()
    unhashed_at_read = []

    def cliques():
        for i in range(2000):
            unhashed_at_read.append(i - len(calls))
            yield (i,)

    assert len(CliqueRegistry.from_cliques(cliques())) == 2000
    assert len(calls) == 2000 and max(unhashed_at_read) < 300


def test_no_collisions_small_cliques():
    # every clique over ids 1..16 with <=4 vertices hashes distinctly
    seen = {}
    ids = range(1, 17)
    cliques = [(a,) for a in ids]
    cliques += [(a, b) for a in ids for b in ids if a < b]
    cliques += [(a, b, c) for a in ids for b in ids for c in ids
                if a < b < c]
    for c in cliques:
        sig = signature(c)
        assert sig not in seen, (c, seen[sig])
        seen[sig] = c


# -- registry -----------------------------------------------------------


def test_registry_membership_and_len():
    r = CliqueRegistry.from_cliques([(1, 2), (2, 3, 4)])
    assert len(r) == 2
    assert (1, 2) in r
    assert (2, 3, 4) in r
    assert (1, 3) not in r


def test_registry_update():
    r = CliqueRegistry.from_cliques([(1, 2), (2, 3)])
    r.update([(1, 2, 3)], [(1, 2), (2, 3)])
    assert len(r) == 1
    assert (1, 2, 3) in r


def test_registry_update_preconditions_leave_state_intact():
    r = CliqueRegistry.from_cliques([(1, 2)])
    with pytest.raises(RegistryError):
        r.update([], [(9, 10)])  # deleting an unregistered clique
    with pytest.raises(RegistryError):
        r.update([(1, 2)], [])  # adding a clique already present
    with pytest.raises(RegistryError):
        r.update([(3, 4), (3, 4)], [(1, 2)])  # adding a clique twice
    assert len(r) == 1
    assert (1, 2) in r


def test_registry_random_churn_matches_model():
    rng = random.Random(8)
    r = CliqueRegistry()
    model: set[tuple[int, ...]] = set()
    for _ in range(200):
        new = []
        while rng.random() < 0.7:
            c = tuple(sorted(rng.sample(range(1, 40), rng.randint(1, 5))))
            if c not in model and c not in new:
                new.append(c)
        dels = [c for c in sorted(model) if rng.random() < 0.2]
        r.update(new, dels)
        model.difference_update(dels)
        model.update(new)
        assert len(r) == len(model)
        for c in new:
            assert c in r
        for c in dels:
            if c not in model:
                assert c not in r


def test_verify_mode_detects_forced_collision(hashers):
    r = CliqueRegistry(verify=True)
    assert r.verify_mode
    r.add((1, 2))
    hashers(lambda data: 42)
    r2 = CliqueRegistry(verify=True)
    r2.add((1, 2))
    with pytest.raises(SignatureCollisionError):
        r2.add((3, 4))
    with pytest.raises(SignatureCollisionError):
        r2.contains_signature(42, canonical_string((5, 6)))
    with pytest.raises(SignatureCollisionError):
        CliqueRegistry.from_cliques([(1, 2), (1, 2), (3, 4)], verify=True)


def test_default_mode_silent_on_forced_collision(hashers):
    hashers(lambda data: 42)
    r = CliqueRegistry()
    r.add((1, 2))
    r.add((3, 4))  # collides silently; this is the documented trade-off
    assert len(r) == 1
    assert len(CliqueRegistry.from_cliques([(1, 2), (3, 4)])) == 1


@pytest.mark.parametrize("verify", [False, True])
def test_update_with_colliding_new_cliques_leaves_registry_untouched(
        hashers, verify):
    # under a length-only hash "2,3" and "4,5" share a signature, and so do
    # "45" and "23"
    hashers(len)
    r = CliqueRegistry.from_cliques([(1,)], verify=verify)
    before = r.snapshot()
    with pytest.raises(SignatureCollisionError):
        r.update([(2, 3), (4, 5)], [(1,)])
    assert r.snapshot() == before
    assert len(r) == 1 and (1,) in r

    # a new clique colliding with a registered one: only verify mode can
    # tell it from a clique that is already present
    r = CliqueRegistry.from_cliques([(1,), (23,)], verify=verify)
    before = r.snapshot()
    with pytest.raises(SignatureCollisionError if verify else RegistryError):
        r.update([(45,)], [(1,)])
    assert r.snapshot() == before


# -- snapshots ----------------------------------------------------------


def test_snapshot_round_trip():
    r = CliqueRegistry.from_cliques([(1,), (1, 2), (3, 4, 5)], verify=True)
    blob = r.snapshot()
    assert blob.startswith(SNAPSHOT_MAGIC)
    restored = CliqueRegistry.restore(blob)
    assert restored == r
    assert not restored.verify_mode  # strings are not persisted
    assert (3, 4, 5) in restored


def test_snapshot_is_sorted_and_sized():
    r = CliqueRegistry.from_cliques([(i,) for i in range(1, 30)])
    blob = r.snapshot()
    assert len(blob) == len(SNAPSHOT_MAGIC) + 8 + 8 * len(r)
    body = blob[len(SNAPSHOT_MAGIC) + 8:]
    hashes = [s for (s,) in struct.iter_unpack("<Q", body)]
    assert hashes == sorted(hashes)


def test_snapshot_empty_registry():
    blob = CliqueRegistry().snapshot()
    assert len(CliqueRegistry.restore(blob)) == 0


def test_restore_rejects_bad_input():
    good = CliqueRegistry.from_cliques([(1, 2)]).snapshot()
    with pytest.raises(SnapshotError):
        CliqueRegistry.restore(b"NOTMAGIC" + good[len(SNAPSHOT_MAGIC):])
    with pytest.raises(SnapshotTruncatedError):
        CliqueRegistry.restore(good[:-3])
    with pytest.raises(SnapshotTruncatedError):
        CliqueRegistry.restore(good[:5])
    with pytest.raises(SnapshotTruncatedError):
        CliqueRegistry.restore(good + b"\x00" * 8)
    repeated = SNAPSHOT_MAGIC + struct.pack("<3Q", 2, 7, 7)
    with pytest.raises(SnapshotError, match="duplicate"):
        CliqueRegistry.restore(repeated)
