"""Test-wide hypothesis settings.

Property tests draw classes whose Cremona reductions differ widely in
length, so a per-example deadline would flag slow draws, not slow code.
The profile sets ``deadline=None`` once; each test keeps its own
``max_examples``.
"""

import sys

import pytest
from hypothesis import settings

from fatpt import cli, weyl  # noqa: F401  (cli loads every fatpt module)

settings.register_profile("fatpt", deadline=None)
settings.load_profile("fatpt")


@pytest.fixture
def reduce_calls(monkeypatch):
    """A list that gets one entry, the class, per reduction: each call of
    ``weyl.reduce`` or of its word-free form ``weyl.reduce_class``, through
    any fatpt module that binds either."""
    calls = []
    for fname in ("reduce", "reduce_class"):
        original = getattr(weyl, fname)

        def counted(f, original=original):
            calls.append(f)
            return original(f)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "fatpt" and getattr(module, fname, None) is original:
                monkeypatch.setattr(module, fname, counted)
    return calls
