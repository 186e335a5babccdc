"""On-disk cache of exact decompositions: a directory, one JSON file per entry.

Keyed by (format, coefficient list, r, v).  Format 2 stores every rational,
in the key and in the combination, as hexadecimal "p/q" text, so a reloaded
combination is exactly equal to a fresh computation.  Python's int<->str
digit limit exempts power-of-two bases, so entries of any width need no
change to that interpreter-wide setting.  The format field versions the
entry layout and the algorithm behind it; bumping it orphans older entries.

An entry's file name is a checksum of its key, and the file holds the key
next to the combination, so a checksum collision reads as a miss.  An
entry is written to a temporary file in the same directory and moved into
place with `os.replace`, so a reader sees a whole entry or none, and two
writers of one key (who write the same content) need no lock.  Entries
are not fsynced, so a power loss can leave one cut short.  A file that
does not parse as an entry (cut short, not UTF-8, of the wrong shape, a
rational that is not a hexadecimal "p/q" string) is a miss with a warning
on stderr; the recomputed entry replaces it, so the warning comes once.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from fractions import Fraction
from pathlib import Path

from .decomp import ZetaCombination, decompose
from .polys import Poly

__all__ = ["DecompositionCache"]

FORMAT = 2


def _hex(q: Fraction) -> str:
    return f"{q.numerator:x}/{q.denominator:x}"


def _unhex(text: str) -> Fraction:
    """Inverse of _hex; anything else raises AttributeError, ValueError or
    ZeroDivisionError."""
    p, q = text.split("/")
    return Fraction(int(p, 16), int(q, 16))


def _key(poly: Poly, r: int, v: int) -> dict:
    return {"format": FORMAT, "coeffs": [_hex(c) for c in poly.coeffs], "r": r, "v": v}


def _file_name(key: dict) -> str:
    b = json.dumps(key, sort_keys=True).encode()
    return f"{zlib.crc32(b):08x}{zlib.adler32(b):08x}.json"


class DecompositionCache:
    def __init__(self, path: str | Path):
        self.path = Path(path)

    def get(self, poly: Poly, r: int, v: int) -> ZetaCombination | None:
        key = _key(poly, r, v)
        entry = self.path / _file_name(key)
        try:
            rec = json.loads(entry.read_bytes())
            found, data = rec["key"], rec["combo"]
            zeta = {int(j): _unhex(q) for j, q in data["zeta"].items()}
            combo = ZetaCombination.make(zeta, _unhex(data["constant"]))
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError):
            print(f"warning: skipping unparsable cache entry {entry}", file=sys.stderr)
            return None
        return combo if found == key else None

    def put(self, poly: Poly, r: int, v: int, combo: ZetaCombination) -> None:
        key = _key(poly, r, v)
        entry = self.path / _file_name(key)
        zeta = {str(j): _hex(q) for j, q in combo.zeta}
        rec = {"key": key, "combo": {"zeta": zeta, "constant": _hex(combo.constant)}}
        text = json.dumps(rec, sort_keys=True) + "\n"
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
