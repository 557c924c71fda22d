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
    """A list that gets one entry, the class, per call of ``weyl.reduce``
    through any fatpt module that binds it."""
    calls = []
    original = weyl.reduce

    def counted(f):
        calls.append(f)
        return original(f)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fatpt" and getattr(module, "reduce", None) is original:
            monkeypatch.setattr(module, "reduce", counted)
    return calls
