"""Test-wide hypothesis settings.

Property tests draw classes whose Cremona reductions differ widely in
length, so a per-example deadline would flag slow draws, not slow code.
The profile sets ``deadline=None`` once; each test keeps its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("fatpt", deadline=None)
settings.load_profile("fatpt")
