"""Shared test configuration.

The ``hypothesis`` property tests run under one registered profile:
- a derandomized search without an example database, so every run of the
  suite tries the same examples and no earlier failure is replayed;
- no per-example deadline, because wall time on a shared machine is not a
  property of the code;
- a bounded number of examples, to keep the suite fast.
"""

from hypothesis import settings

settings.register_profile(
    "qals", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("qals")
