from pathlib import Path

from zetalab import decompose, legendre_coeffs
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


def test_cache_keys_distinguish_r_v_and_coeffs(tmp_path: Path):
    cache = DecompositionCache(tmp_path / "c.jsonl")
    p1, p2 = legendre_coeffs(1), legendre_coeffs(2)
    cache.put(p1, 2, 0, decompose(p1, 2, 0))
    assert cache.get(p1, 2, 1) is None
    assert cache.get(p2, 2, 0) is None
    assert cache.get(p1, 2, 0) is not None


def test_cache_last_entry_wins(tmp_path: Path):
    path = tmp_path / "c.jsonl"
    cache = DecompositionCache(path)
    poly = legendre_coeffs(1)
    combo = decompose(poly, 2, 0)
    cache.put(poly, 2, 0, combo)
    cache.put(poly, 2, 0, combo)
    assert len(path.read_text().splitlines()) == 2
    assert DecompositionCache(path).get(poly, 2, 0) == combo


def test_cache_skips_and_drops_lines_of_the_wrong_shape(tmp_path: Path, capsys):
    path = tmp_path / "c.jsonl"
    poly = legendre_coeffs(2)
    DecompositionCache(path).put(poly, 2, 1, decompose(poly, 2, 1))
    good = path.read_text()
    bad = ['{}', '[1]', '{"key": 1}', '{"key": 1, "combo": {"zeta": [], "constant": "1"}}',
           '{"key": 1, "combo": {"zeta": {}, "constant": "1/0"}}']
    path.write_text("\n".join(bad) + "\n" + good)
    assert DecompositionCache(path).get(poly, 2, 1) == decompose(poly, 2, 1)
    assert capsys.readouterr().err.count("skipping unparsable cache line") == len(bad)
    assert path.read_text() == good
