"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, with no
deadline and no example database, so every run draws the same examples.
Hypothesis also caches the constants it reads from the library's source;
that cache goes to a temporary directory removed at exit, so no run
leaves a ``.hypothesis/`` directory behind.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.TemporaryDirectory(prefix="salemtori-hypothesis-")
set_hypothesis_home_dir(_HOME.name)

settings.register_profile("salemtori", derandomize=True, deadline=None, database=None)
settings.load_profile("salemtori")
