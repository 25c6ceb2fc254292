"""Shared hypothesis profile: every property test is derandomized, has no
deadline and keeps no example database, so a run depends on the code
alone; each module sets only its own ``max_examples``."""
from hypothesis import settings

settings.register_profile("cbve", deadline=None, derandomize=True, database=None)
settings.load_profile("cbve")
