import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zetalab import Poly, decompose, legendre_coeffs
from zetalab.cache import DecompositionCache


def test_cache_roundtrip_exact_equality(tmp_path: Path):
    cache = DecompositionCache(tmp_path / "c.jsonl")
    poly = legendre_coeffs(5)
    fresh = decompose(poly, 3, 2)
    assert cache.get(poly, 3, 2) is None
    cache.put(poly, 3, 2, fresh)
    # a separate instance re-reads from disk
    reloaded = DecompositionCache(tmp_path / "c.jsonl").get(poly, 3, 2)
    assert reloaded == fresh  # exact rational equality, not approximate


@settings(max_examples=40)
@given(
    coeffs=st.lists(
        st.one_of(st.integers(-9, 9), st.fractions(max_denominator=12)), min_size=1, max_size=6
    ).filter(any),
    r=st.integers(2, 5),
    v=st.integers(0, 4),
)
def test_cache_round_trip_property_on_rational_polys(coeffs, r, v):
    poly = Poly(coeffs)
    fresh = decompose(poly, r, v)
    with tempfile.TemporaryDirectory() as tmp:
        DecompositionCache(tmp).put(poly, r, v, fresh)
        assert DecompositionCache(tmp).get(poly, r, v) == fresh


def test_cache_keys_distinguish_r_v_and_coeffs(tmp_path: Path):
    cache = DecompositionCache(tmp_path / "c.jsonl")
    p1, p2 = legendre_coeffs(1), legendre_coeffs(2)
    cache.put(p1, 2, 0, decompose(p1, 2, 0))
    assert cache.get(p1, 2, 1) is None
    assert cache.get(p2, 2, 0) is None
    assert cache.get(p1, 2, 0) is not None


def test_cache_last_entry_wins(tmp_path: Path):
    path = tmp_path / "c"
    cache = DecompositionCache(path)
    poly = legendre_coeffs(1)
    combo, other = decompose(poly, 2, 0), decompose(poly, 2, 1)
    cache.put(poly, 2, 0, other)
    cache.put(poly, 2, 0, combo)
    assert [f.suffix for f in path.iterdir()] == [".json"]
    assert DecompositionCache(path).get(poly, 2, 0) == combo


def test_cache_skips_and_drops_lines_of_the_wrong_shape(tmp_path: Path, capsys):
    path = tmp_path / "c"
    poly = legendre_coeffs(2)
    fresh = decompose(poly, 2, 1)
    DecompositionCache(path).put(poly, 2, 1, fresh)
    (entry,) = path.iterdir()
    good = entry.read_text()
    bad = ['{}', '[1]', '{"key": 1}', '{"key": 1, "combo": {"zeta": [], "constant": "1"}}',
           '{"key": 1, "combo": {"zeta": {}, "constant": "1/0"}}',
           # rationals on disk are strings; a JSON number is not an entry
           '{"key": 1, "combo": {"zeta": {"2": 1}, "constant": "1"}}',
           '{"key": 1, "combo": {"zeta": {}, "constant": 0.5}}']
    for payload in bad:
        entry.write_text(payload + "\n")
        assert DecompositionCache(path).get(poly, 2, 1) is None
        assert capsys.readouterr().err.count("skipping unparsable cache entry") == 1
        # the read-through warns once more, recomputes the entry and
        # replaces the bad file with it
        assert DecompositionCache(path).decompose(poly, 2, 1) == fresh
        assert capsys.readouterr().err.count("skipping unparsable cache entry") == 1
        assert entry.read_text() == good
        assert DecompositionCache(path).get(poly, 2, 1) == fresh
        assert capsys.readouterr().err == ""


def test_cache_key_mismatch_is_a_silent_miss(tmp_path: Path, capsys):
    # an entry file that parses but holds another key, as a checksum
    # collision would, is not served
    path = tmp_path / "c"
    p1, p2 = legendre_coeffs(1), legendre_coeffs(2)
    DecompositionCache(path).put(p2, 2, 0, decompose(p2, 2, 0))
    (entry,) = path.iterdir()
    DecompositionCache(path).put(p1, 2, 0, decompose(p1, 2, 0))
    (other,) = set(path.iterdir()) - {entry}
    other.write_bytes(entry.read_bytes())
    assert DecompositionCache(path).get(p1, 2, 0) is None
    assert capsys.readouterr().err == ""


def test_cache_interrupted_write_leaves_no_file(tmp_path: Path, monkeypatch):
    import zetalab.cache as cache_mod

    def fail(src, dst):
        raise OSError("interrupted")

    path = tmp_path / "c"
    poly = legendre_coeffs(2)
    monkeypatch.setattr(cache_mod.os, "replace", fail)
    with pytest.raises(OSError, match="interrupted"):
        DecompositionCache(path).put(poly, 2, 1, decompose(poly, 2, 1))
    assert list(path.iterdir()) == []
    assert DecompositionCache(path).get(poly, 2, 1) is None


def test_cache_entry_mode_follows_umask(tmp_path: Path):
    poly = legendre_coeffs(1)
    old = os.umask(0o022)
    try:
        DecompositionCache(tmp_path / "c").put(poly, 2, 0, decompose(poly, 2, 0))
    finally:
        os.umask(old)
    (entry,) = (tmp_path / "c").iterdir()
    assert stat.S_IMODE(entry.stat().st_mode) == 0o644


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int<->str digit limit before 3.10.7"
)
def test_entries_wider_than_4300_digits_round_trip_outside_the_cli(tmp_path: Path):
    # a fresh interpreter, so the limit is the one the script sets and not
    # whatever earlier tests left in this process; 4321 is below the ~4400
    # digits of the r = 2 coefficients, and must be back in place after
    script = f"""
import sys
from zetalab.cache import DecompositionCache
from zetalab.polys import Poly
sys.set_int_max_str_digits(4321)
poly = Poly([1, 10**2200])
combo = DecompositionCache({str(tmp_path)!r}).decompose(poly, 2, 0)
assert DecompositionCache({str(tmp_path)!r}).get(poly, 2, 0) == combo
assert sys.get_int_max_str_digits() == 4321
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-500:]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int<->str digit limit before 3.10.7"
)
def test_threads_sharing_a_cache_leave_the_digit_limit_alone(tmp_path: Path):
    # four threads put and get one entry wider than 4300 digits, switching
    # as often as the interpreter allows; the cache never lifts the
    # process-wide limit, so no thread can find it restored under it
    script = f"""
import sys, threading
from zetalab.cache import DecompositionCache
from zetalab.decomp import decompose
from zetalab.polys import Poly
assert sys.get_int_max_str_digits() == 4300
sys.setswitchinterval(1e-6)
poly = Poly([1, 10**2200])
combo = decompose(poly, 2, 0)
cache = DecompositionCache({str(tmp_path)!r})
bad = []

def work():
    for _ in range(50):
        cache.put(poly, 2, 0, combo)
        if cache.get(poly, 2, 0) != combo:
            bad.append(1)

threads = [threading.Thread(target=work) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
assert not bad, len(bad)
assert sys.get_int_max_str_digits() == 4300
"""
    env = {k: val for k, val in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-1000:]
