"""On-disk cache of exact decompositions, one JSON object per line.

Keyed by (coefficient list, r, v) with coefficients in "p/q" form, so a
reloaded combination is exactly equal to a fresh computation (rationals
round-trip losslessly).  Appends take an exclusive file lock; reads are
lock-free (JSON lines are atomic enough at these sizes, and the last entry
for a key wins).

A write cut short (say by a crash mid-append) leaves a torn line.  Readers
skip a line that does not parse, with a warning on stderr, so the entry is
simply recomputed; an append first ends a torn last line, so the new entry
starts on a line of its own.  The repaired torn line then sits mid-file,
which is why the skip applies to any line, not only the last.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
from pathlib import Path

from .decomp import ZetaCombination
from .polys import Poly
from .serialize import poly_to_strings

__all__ = ["DecompositionCache", "cache_path_from_env"]

ENV_VAR = "ZETALAB_CACHE"


def cache_path_from_env() -> str | None:
    return os.environ.get(ENV_VAR)


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
                for i, line in enumerate(self.path.read_text().splitlines(), 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        print(
                            f"warning: skipping unparsable cache line {i} of {self.path}",
                            file=sys.stderr,
                        )
                        continue
                    key = json.dumps(rec["key"], sort_keys=True)
                    self._entries[key] = ZetaCombination.from_json_dict(rec["combo"])
        return self._entries

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
