import pytest

from cliquedelta import signatures


@pytest.fixture
def hashers(monkeypatch):
    """hashers() counts what the lane hasher _murmur64_lanes hashes, the one
    hasher the package runs; hashers(fn) instead hashes each string by
    fn(data) -> int. Either returns the list of the strings hashed, in call
    order, one entry per string.

    The hasher is patched in signatures, the module that defines it and
    the one that calls it, only: a module that hashed through its own bound
    copy would escape the patch, and the forced tests would fail.
    """

    def patch(fn=None):
        real = signatures._murmur64_lanes
        calls = []

        def lanes(strings):
            calls.extend(strings)
            return real(strings) if fn is None else list(map(fn, strings))

        monkeypatch.setattr(signatures, "_murmur64_lanes", lanes)
        return calls

    return patch
