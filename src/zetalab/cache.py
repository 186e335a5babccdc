"""On-disk cache of exact decompositions, one JSON object per line.

Keyed by (coefficient list, r, v) with coefficients in "p/q" form, so a
reloaded combination is exactly equal to a fresh computation (rationals
round-trip losslessly).  Writes take an exclusive file lock; reads are
lock-free (JSON lines are atomic enough at these sizes, and the last entry
for a key wins).

A write cut short (say by a crash mid-append) leaves a torn line.  Readers
skip a line that does not parse as a cache record, torn or otherwise, with
a warning on stderr, so the entry is simply recomputed, and rewrite the
file without it, so the warning comes once.  An append first ends a torn
last line, so the new entry starts on a line of its own.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
import tempfile
from pathlib import Path

from .decomp import ZetaCombination
from .polys import Poly
from .serialize import poly_to_strings

__all__ = ["DecompositionCache", "cache_path_from_env"]

ENV_VAR = "ZETALAB_CACHE"


def cache_path_from_env() -> str | None:
    return os.environ.get(ENV_VAR)


def _parse(line: str) -> tuple[str, ZetaCombination] | None:
    """(key, combination) on one cache line, or None for a line that does not parse."""
    try:
        rec = json.loads(line)
        return json.dumps(rec["key"], sort_keys=True), ZetaCombination.from_json_dict(rec["combo"])
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError):
        return None


def _key(poly: Poly, r: int, v: int) -> str:
    return json.dumps({"coeffs": poly_to_strings(poly), "r": r, "v": v}, sort_keys=True)


class DecompositionCache:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, ZetaCombination] | None = None

    def _load(self) -> dict[str, ZetaCombination]:
        if self._entries is None:
            self._entries = {}
            if self.path.exists():
                torn = False
                for i, line in enumerate(self.path.read_text().splitlines(), 1):
                    if not line.strip():
                        continue
                    entry = _parse(line)
                    if entry is None:
                        torn = True
                        print(
                            f"warning: skipping unparsable cache line {i} of {self.path}",
                            file=sys.stderr,
                        )
                        continue
                    key, combo = entry
                    self._entries[key] = combo
                if torn:
                    self._drop_unparsable_lines()
        return self._entries

    def _drop_unparsable_lines(self) -> None:
        """Rewrite the file without the lines that do not parse.

        The file is re-read under the append lock, so entries appended since
        the lock-free read survive; the rewrite goes to a temporary file that
        then replaces the cache in one step.  An append already waiting on
        the old file's lock lands in the replaced file; its entry is simply
        recomputed later.
        """
        with open(self.path, "rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                lines = fh.read().decode().splitlines()
                kept = [line for line in lines if _parse(line) is not None]
                fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=self.path.name)
                try:
                    with os.fdopen(fd, "w") as out:
                        os.fchmod(out.fileno(), os.fstat(fh.fileno()).st_mode & 0o777)
                        out.writelines(line + "\n" for line in kept)
                        out.flush()
                        os.fsync(out.fileno())
                    os.replace(tmp, self.path)
                except BaseException:
                    os.unlink(tmp)
                    raise
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def get(self, poly: Poly, r: int, v: int) -> ZetaCombination | None:
        return self._load().get(_key(poly, r, v))

    def put(self, poly: Poly, r: int, v: int, combo: ZetaCombination) -> None:
        rec = {
            "key": {"coeffs": poly_to_strings(poly), "r": r, "v": v},
            "combo": combo.to_json_dict(),
        }
        line = json.dumps(rec, sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                size = fh.seek(0, os.SEEK_END)
                if size:
                    fh.seek(size - 1)
                    if fh.read(1) != b"\n":
                        line = "\n" + line
                fh.write(line.encode())
                fh.flush()
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)
        self._load()[_key(poly, r, v)] = combo
