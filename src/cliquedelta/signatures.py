"""Clique signatures and the persistent registry of current maximal cliques.

A clique is serialized canonically (ascending decimal ids joined by commas)
and hashed with 64-bit MurmurHash2 under a pinned seed, so signatures are
stable across runs and platforms.

Every signature is computed by _keys: the canonical strings of the cliques
of one update, bulk build or public call are grouped by length, and each
group runs MurmurHash64A once over lanes of one Python int
(_murmur64_lanes). The scalar murmur64 is the reference the lane hasher is
tested against; the package does not call it.
"""

from __future__ import annotations

import struct
from itertools import islice
from operator import lt
from typing import Collection, Iterable, Iterator, Sequence

from .enumeration import Clique

#: Pinned seed; changing it invalidates every snapshot ever written.
MURMUR_SEED = 0x9747B28C

_MASK = (1 << 64) - 1
_M = 0xC6A4A7935BD1E995
_R = 47
#: a lane of the lane hasher: 64 value bits, then 64 zero bits that hold a
#: 64x64-bit product until it is masked
_LANE = b"\xff" * 8 + bytes(8)
#: the most strings hashed in one lane int, which bounds its size; also the
#: cliques a bulk build reads and hashes per _keys call
_MAX_LANES = 128

SNAPSHOT_MAGIC = b"CLQSIG01"

#: the member types of a clique the public entry points accept
_INT_ONLY = frozenset({int})


class SignatureError(Exception):
    pass


class SignatureCollisionError(SignatureError):
    pass


class RegistryError(SignatureError):
    pass


class SnapshotError(SignatureError):
    pass


class SnapshotTruncatedError(SnapshotError):
    pass


def murmur64(data: bytes, seed: int = MURMUR_SEED) -> int:
    """MurmurHash64A of data."""
    h = (seed ^ (len(data) * _M)) & _MASK
    n8 = len(data) - (len(data) % 8)
    for (k,) in struct.iter_unpack("<Q", data[:n8]):
        k = (k * _M) & _MASK
        k ^= k >> _R
        k = (k * _M) & _MASK
        h = ((h ^ k) * _M) & _MASK
    tail = data[n8:]
    if tail:
        h ^= int.from_bytes(tail, "little")
        h = (h * _M) & _MASK
    h ^= h >> _R
    h = (h * _M) & _MASK
    h ^= h >> _R
    return h


def _murmur64_lanes(strings: Sequence[bytes]) -> list[int]:
    """murmur64 of each of the equal-length strings, computed together.

    String i sits in the low 64 bits of the 128-bit lane i of one int, so
    each multiply by _M, xor-shift and mask acts on every lane at once: a
    64x64-bit product fits its lane, and the mask keeps each lane's value
    mod 2^64. The xor-shift pulls the next lane's low bits into the high
    half, so it is masked before the next multiply. Per word position one
    strided slice assignment moves that word of every string into the
    lanes as an 8-byte unit, never reinterpreted, so no byte order is
    assumed; a tail shorter than a word is zero-padded, which is its
    little-endian value.
    """
    n, size = len(strings), len(strings[0])
    n8, tail = divmod(size, 8)
    words = n8 + (tail > 0)
    pad = bytes(-size % 8)
    src = memoryview(pad.join(strings) + pad).cast("Q")  # string-major words
    buf = bytearray(16 * n)
    lanes = memoryview(buf).cast("Q")
    mask = int.from_bytes(_LANE * n, "little")
    h0 = (MURMUR_SEED ^ (size * _M)) & _MASK
    h = int.from_bytes((h0.to_bytes(8, "little") + bytes(8)) * n, "little")
    for w in range(n8):
        lanes[::2] = src[w::words]
        k = (int.from_bytes(buf, "little") * _M) & mask
        k = (((k ^ (k >> _R)) & mask) * _M) & mask
        h = ((h ^ k) * _M) & mask
    if tail:
        lanes[::2] = src[n8::words]
        h = ((h ^ int.from_bytes(buf, "little")) * _M) & mask
    h = (((h ^ (h >> _R)) & mask) * _M) & mask
    h ^= h >> _R
    return list(struct.unpack(f"<{2 * n}Q", (h & mask).to_bytes(16 * n, "little"))[::2])


def _checked(c: Sequence[int]) -> Clique:
    # the public entry points' guard: c, as a tuple, must be non-empty,
    # strictly ascending and of members whose type is int itself. _encode's
    # %d would write a float or a bool as another clique's string, and
    # could write an int subclass other than str does.
    c = tuple(c)
    if not c:
        raise SignatureError("empty clique")
    if set(map(type, c)) != _INT_ONLY:
        raise SignatureError(f"clique members must be int: {c}")
    if not all(map(lt, c, c[1:])):
        raise SignatureError(f"clique not in canonical order: {c}")
    return c


def _encode(c: Clique) -> bytes:
    """The canonical string of c: its ids in decimal, joined by commas.

    One bytes format writes every id; for a tuple of ints it gives the
    bytes of ",".join(map(str, c)).encode("ascii"), the reference the tests
    hold it to. c must be a tuple of ints, as the library's own cliques
    are and _checked makes the ones from outside.
    """
    return (b"%d," * len(c))[:-1] % c


def canonical_string(c: Sequence[int]) -> bytes:
    """Byte encoding of a canonical (strictly ascending) clique.

    Raises SignatureError for an empty clique, one out of canonical
    order, or one with a member whose type is not int itself (a bool,
    say). This check, and the same one in signature, split_candidates and
    the registry's add, update, from_cliques and membership test, is where
    cliques from outside the package are validated; any sequence, a list
    say, is taken as the tuple of its members.
    """
    return _encode(_checked(c))


def _keys(cliques: Sequence[Clique]) -> list[tuple[int, bytes]]:
    """The signature and canonical string of each clique, in input order:
    the one place cliques are hashed.

    The cliques are trusted to be canonical and are not checked again: the
    searches and the split pass emit sorted tuples, and the public entry
    points check what they pass here. The canonical strings are grouped by
    byte length, and each group is hashed by _murmur64_lanes in chunks of
    at most _MAX_LANES strings.
    """
    canons = [_encode(c) for c in cliques]
    groups: dict[int, list[int]] = {}
    for i, canon in enumerate(canons):
        groups.setdefault(len(canon), []).append(i)
    sigs = [0] * len(canons)
    for group in groups.values():
        for at in range(0, len(group), _MAX_LANES):
            chunk = group[at:at + _MAX_LANES]
            for i, sig in zip(chunk, _murmur64_lanes([canons[i] for i in chunk])):
                sigs[i] = sig
    return list(zip(sigs, canons))


def signature(c: Sequence[int]) -> int:
    return _keys([_checked(c)])[0][0]


class CliqueRegistry:
    """Signature set representing the maximal cliques of the current graph.

    In verify mode the canonical strings are retained alongside the hashes,
    turning any hash collision into a hard SignatureCollisionError instead
    of a silent false membership. Every clique is hashed by _keys: add and
    the membership test one at a time, an update and a bulk build with the
    rest of their cliques. contains_signature is the one place that
    compares a canonical string with a registered one:
    membership tests, add, from_cliques and the commit of an update all go
    through it, so a collision with a registered clique raises
    SignatureCollisionError wherever it is met.
    """

    def __init__(self, verify: bool = False) -> None:
        self._sigs: set[int] = set()
        self._strings: dict[int, bytes] | None = {} if verify else None

    @classmethod
    def from_cliques(cls, cliques: Iterable[Sequence[int]],
                     verify: bool = False) -> "CliqueRegistry":
        # the cliques are read a slice at a time; each is checked, then
        # hashed with the others of its slice; a clique listed twice is
        # registered once
        r = cls(verify=verify)
        it = iter(cliques)
        while chunk := [_checked(c) for c in islice(it, _MAX_LANES)]:
            for sig, canon in _keys(chunk):
                r._add(sig, canon)
        return r

    @property
    def verify_mode(self) -> bool:
        return self._strings is not None

    def __len__(self) -> int:
        return len(self._sigs)

    def __contains__(self, c: Sequence[int]) -> bool:
        return self.contains_signature(*_keys([_checked(c)])[0])

    def contains_signature(self, sig: int, canon: bytes) -> bool:
        if sig not in self._sigs:
            return False
        if self._strings is not None:
            stored = self._strings[sig]
            if stored != canon:
                raise SignatureCollisionError(
                    f"signature {sig:#x} maps to both {stored!r} and {canon!r}")
        return True

    def signatures(self) -> Iterator[int]:
        return iter(self._sigs)

    def add(self, c: Sequence[int]) -> None:
        self._add(*_keys([_checked(c)])[0])

    def _add(self, sig: int, canon: bytes) -> None:
        self.contains_signature(sig, canon)  # raises on a collision
        if self._strings is not None:
            self._strings[sig] = canon
        self._sigs.add(sig)

    def update(self, new_cliques: Iterable[Sequence[int]],
               del_cliques: Iterable[Sequence[int]]) -> None:
        """Commit one change: drop del signatures, add new ones.

        The validating entry point: every clique is checked for canonical
        order first, then all are hashed together. Precondition violations
        signal an upstream algorithm bug and leave the registry untouched.
        """
        new = [_checked(c) for c in new_cliques]
        keys = _keys(new + [_checked(c) for c in del_cliques])
        self._commit(keys[:len(new)], [sig for sig, _ in keys[len(new):]])

    def _commit(self, new_keys: list[tuple[int, bytes]],
                del_sigs: Collection[int]) -> None:
        # update() on precomputed (signature, canonical string) pairs of the
        # new cliques and signatures of the deleted ones; every check runs
        # before the first mutation
        for s in del_sigs:
            if s not in self._sigs:
                raise RegistryError(f"deleted clique signature {s:#x} not registered")
        new_strings: dict[int, bytes] = {}
        for s, canon in new_keys:
            if s in self._sigs:
                self.contains_signature(s, canon)  # raises on a collision
                raise RegistryError(f"new clique signature {s:#x} already registered")
            stored = new_strings.setdefault(s, canon)
            if stored != canon:
                raise SignatureCollisionError(
                    f"signature {s:#x} maps to both {stored!r} and {canon!r}")
        if len(new_strings) != len(new_keys):
            raise RegistryError("a new clique is listed twice")
        self._sigs.difference_update(del_sigs)
        self._sigs.update(new_strings)
        if self._strings is not None:
            for s in del_sigs:
                self._strings.pop(s, None)
            self._strings.update(new_strings)

    # -- persistence ---------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialize as magic, count, then sorted little-endian u64 hashes.

        Verify-mode canonical strings are not persisted; a restored
        registry starts in default mode.
        """
        parts = [SNAPSHOT_MAGIC, struct.pack("<Q", len(self._sigs))]
        parts.extend(struct.pack("<Q", s) for s in sorted(self._sigs))
        return b"".join(parts)

    @classmethod
    def restore(cls, data: bytes) -> "CliqueRegistry":
        if len(data) < len(SNAPSHOT_MAGIC) + 8:
            raise SnapshotTruncatedError("snapshot shorter than header")
        if data[:len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
            raise SnapshotError("bad snapshot magic")
        (count,) = struct.unpack_from("<Q", data, len(SNAPSHOT_MAGIC))
        body = data[len(SNAPSHOT_MAGIC) + 8:]
        if len(body) != 8 * count:
            raise SnapshotTruncatedError(
                f"expected {8 * count} hash bytes, found {len(body)}")
        r = cls()
        r._sigs = {s for (s,) in struct.iter_unpack("<Q", body)}
        if len(r._sigs) != count:
            raise SnapshotError("duplicate hashes in snapshot")
        return r

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliqueRegistry):
            return NotImplemented
        return self._sigs == other._sigs
