import os
from pathlib import Path

from hypothesis import settings

# fixed examples and no wall-clock deadline, so every run of the suite
# draws the same cases and exact arithmetic on slow hosts does not flake
settings.register_profile("zetalab", derandomize=True, deadline=None, database=None)
settings.load_profile("zetalab")

# pyproject.toml puts src on this process's path; the interpreters that the
# tests start (the CLI under -O, the demos) must import the same checkout
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
