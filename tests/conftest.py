"""Test-session settings shared by every test module."""

from hypothesis import settings

# Property tests are deterministic by default: examples come from a fixed
# derivation rather than a random seed, nothing is replayed from an example
# database, and slow examples (the physics ones) are not failed on time.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
