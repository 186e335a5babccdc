"""On-disk cache of exact decompositions: a directory, one JSON file per entry.

Keyed by (format, coefficient list, r, v) with coefficients in "p/q" form,
so a reloaded combination is exactly equal to a fresh computation
(rationals round-trip losslessly).  The format field versions the entry
layout and the algorithm behind it; bumping it orphans older entries.

An entry's file name is a checksum of its key, and the file holds the key
next to the combination, so a checksum collision reads as a miss.  An
entry is written to a temporary file in the same directory and moved into
place with `os.replace`, so a reader sees a whole entry or none, and two
writers of one key (who write the same content) need no lock.  Entries
are not fsynced, so a power loss can leave one cut short.  A file that
does not parse as an entry (cut short, not UTF-8, of the wrong shape) is
a miss with a warning on stderr; the recomputed entry replaces it, so the
warning comes once.  Entries wider than 4300 digits round-trip too.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import zlib
from pathlib import Path

from .decomp import ZetaCombination, decompose
from .polys import Poly

__all__ = ["DecompositionCache"]

FORMAT = 1


def _wide_int_strings(func):
    """func with Python's int<->str digit limit (4300 by default, 3.10.7+)
    lifted while it runs, and the caller's limit restored after it."""

    @functools.wraps(func)
    def lifted(*args, **kwargs):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            return func(*args, **kwargs)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    return lifted


def _key(poly: Poly, r: int, v: int) -> dict:
    return {"format": FORMAT, "coeffs": [str(c) for c in poly.coeffs], "r": r, "v": v}


def _file_name(key: dict) -> str:
    b = json.dumps(key, sort_keys=True).encode()
    return f"{zlib.crc32(b):08x}{zlib.adler32(b):08x}.json"


class DecompositionCache:
    def __init__(self, path: str | Path):
        self.path = Path(path)

    @_wide_int_strings
    def get(self, poly: Poly, r: int, v: int) -> ZetaCombination | None:
        key = _key(poly, r, v)
        entry = self.path / _file_name(key)
        try:
            rec = json.loads(entry.read_bytes())
            found, combo = rec["key"], ZetaCombination.from_json_dict(rec["combo"])
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError):
            print(f"warning: skipping unparsable cache entry {entry}", file=sys.stderr)
            return None
        return combo if found == key else None

    @_wide_int_strings
    def put(self, poly: Poly, r: int, v: int, combo: ZetaCombination) -> None:
        key = _key(poly, r, v)
        entry = self.path / _file_name(key)
        text = json.dumps({"key": key, "combo": combo.to_json_dict()}, sort_keys=True) + "\n"
        self.path.mkdir(parents=True, exist_ok=True)
        tmp = entry.with_name(f"{entry.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        try:
            with open(tmp, "x", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, entry)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def decompose(self, poly: Poly, r: int, v: int) -> ZetaCombination:
        """The cached decomposition, or a fresh one that is then stored."""
        combo = self.get(poly, r, v)
        if combo is None:
            combo = decompose(poly, r, v)
            self.put(poly, r, v, combo)
        return combo
