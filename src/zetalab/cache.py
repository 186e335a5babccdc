"""On-disk cache of exact decompositions: a directory, one JSON file per entry.

Keyed by (format, coefficient list, r, v).  Format 2 stores every rational,
in the key and in the combination, as hexadecimal "p/q" text, so a reloaded
combination is exactly equal to a fresh computation.  Python's int<->str
digit limit exempts power-of-two bases, so entries of any width need no
change to that interpreter-wide setting.  The format field versions the
entry layout and the algorithm behind it; bumping it orphans older entries.
Orphaned entries are never removed: deleting the directory reclaims them.

The directory, with its parents, is made at the first write; a read of a
missing directory is a miss and makes nothing.  An entry's file name is a
checksum of its key, and the file holds the key next to the combination.
The stored key is compared first: an entry of another key (a checksum
collision) is a silent miss, and its combination is never read.  An entry
is written to a temporary file in the same directory and moved into place
with `os.replace`, so a reader sees a whole entry or none, and two writers
of one key (who write the same content) need no lock.  Entries are not
fsynced, so a power loss can leave one cut short.  A file that does not
parse as an entry (cut short, not UTF-8, of the wrong shape, a zeta index
or a rational that is not exactly what `put` writes) is a miss with a
warning on stderr; the recomputed entry replaces it, so the warning comes
once.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from fractions import Fraction

from .decomp import ZetaCombination, decompose
from .polys import Poly

__all__ = ["DecompositionCache"]

FORMAT = 2

# one encoder for every entry: json.dumps would build a new one per call
_encode = json.JSONEncoder(sort_keys=True).encode


def _hex(q: Fraction) -> str:
    return "%x/%x" % (q.numerator, q.denominator)


def _unhex(text: str) -> Fraction:
    """Inverse of _hex, for exactly the texts it writes; anything else raises
    AttributeError, ValueError or ZeroDivisionError."""
    p, q = text.split("/")
    x = Fraction(int(p, 16), int(q, 16))
    if _hex(x) != text:
        raise ValueError(f"not a cache rational: {text!r}")
    return x


def _index(text: str) -> int:
    """A zeta index as `put` writes it (str(j)); anything else raises ValueError."""
    j = int(text)
    if str(j) != text:
        raise ValueError(f"not a cache zeta index: {text!r}")
    return j


def _key(poly: Poly, r: int, v: int) -> dict:
    return {"format": FORMAT, "coeffs": [_hex(c) for c in poly.coeffs], "r": r, "v": v}


def _file_name(key: dict) -> str:
    b = _encode(key).encode()
    return f"{zlib.crc32(b):08x}{zlib.adler32(b):08x}.json"


def _read(path: str) -> bytes:
    """The file's bytes, by plain reads: no buffered file object to set up."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


class DecompositionCache:
    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)

    def get(self, poly: Poly, r: int, v: int) -> ZetaCombination | None:
        key = _key(poly, r, v)
        entry = os.path.join(self.path, _file_name(key))
        try:
            rec = json.loads(_read(entry))
            found = rec["key"]
            if found != key:
                # another input's key is a silent miss; one that put never
                # writes (not an object) makes the entry a broken one
                if isinstance(found, dict):
                    return None
                raise TypeError("the entry's key is not an object")
            data = rec["combo"]
            zeta = {_index(j): _unhex(q) for j, q in data["zeta"].items()}
            return ZetaCombination.make(zeta, _unhex(data["constant"]))
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError):
            print(f"warning: skipping unparsable cache entry {entry}", file=sys.stderr)
            return None

    def put(self, poly: Poly, r: int, v: int, combo: ZetaCombination) -> None:
        key = _key(poly, r, v)
        entry = os.path.join(self.path, _file_name(key))
        zeta = {str(j): _hex(q) for j, q in combo.zeta}
        text = _encode({"key": key, "combo": {"zeta": zeta, "constant": _hex(combo.constant)}})
        tmp = f"{entry}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        try:
            fh = open(tmp, "x", encoding="utf-8")
        except FileNotFoundError:
            os.makedirs(self.path, exist_ok=True)
            fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text + "\n")
            os.replace(tmp, entry)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    def decompose(self, poly: Poly, r: int, v: int) -> ZetaCombination:
        """The cached decomposition, or a fresh one that is then stored."""
        combo = self.get(poly, r, v)
        if combo is None:
            combo = decompose(poly, r, v)
            self.put(poly, r, v, combo)
        return combo
