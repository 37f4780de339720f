import importlib
import pkgutil

import pytest

import cliquedelta
from cliquedelta import signatures


@pytest.fixture
def hashers(monkeypatch):
    """hashers() counts what both hashers, the scalar murmur64 and the lane
    hasher _murmur64_lanes, hash wherever the package binds them;
    hashers(fn) instead routes both through fn(data) -> int in signatures,
    the one module that defines them, only. Either returns the list of the
    strings hashed, in call order, one entry per string.

    Forcing in the defining module alone keeps the forced tests strict: a
    module that hashed through its own bound copy of a hasher would escape
    the forced hash, and the test would fail.
    """

    def patch(fn=None):
        real, real_lanes = signatures.murmur64, signatures._murmur64_lanes
        calls = []

        def scalar(data, seed=signatures.MURMUR_SEED):
            calls.append(data)
            return real(data, seed) if fn is None else fn(data)

        def lanes(strings):
            calls.extend(strings)
            return real_lanes(strings) if fn is None else list(map(fn, strings))

        mods = [signatures] if fn is not None else [cliquedelta] + [
            importlib.import_module(f"cliquedelta.{m.name}")
            for m in pkgutil.iter_modules(cliquedelta.__path__)]
        for mod in mods:
            if getattr(mod, "murmur64", None) is real:
                monkeypatch.setattr(mod, "murmur64", scalar)
            if getattr(mod, "_murmur64_lanes", None) is real_lanes:
                monkeypatch.setattr(mod, "_murmur64_lanes", lanes)
        return calls

    return patch
