from hypothesis import settings

# fixed examples and no wall-clock deadline, so every run of the suite
# draws the same cases and exact arithmetic on slow hosts does not flake
settings.register_profile("zetalab", derandomize=True, deadline=None, database=None)
settings.load_profile("zetalab")
