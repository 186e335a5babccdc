"""Fast checks of the benchmark itself, on its --tiny inputs.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import add_ref_times, run_cli, run_direct_sum  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_emitted_with_its_unit(workload):
    out = last_json(run_bench(workload, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 10
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", ["scan", "coeffs_cache"])
def test_traced_run_reports_every_per_layer_metric(workload):
    out = last_json(run_bench(workload, 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    m = {k: v["value"] for k, v in out["metrics"].items()}
    if workload == "scan":
        assert m["ratfunc.partial_fractions_s"] > 0 and m["numtheory.harmonic_calls"] > 0
        assert m["ratfunc.pole_order_max"] == 5  # r + v for the r=3, v=2 scan
    else:
        assert m["cache.hit_ratio"] > 0.5 and m["cache.file_bytes"] > 0
        assert m["ratfunc.pole_order_max"] == 9


def with_ref_times(results):
    probe = speed.SpeedProbe()
    probe.stop()  # one speed sample, taken now
    for res in results:
        add_ref_times(res, probe)
    return results


def test_goldens_detect_a_perturbed_output(tmp_path):
    goldens = workloads.load_goldens()
    cache = str(tmp_path / "cache.jsonl")

    scan_ops = workloads.build_ops("scan", 0, True, cache)[:1]
    scan_res = with_ref_times([run_cli(op["argv"]) for op in scan_ops])
    assert workloads.check_rep("scan", scan_ops, scan_res, goldens)["failed"] == 0
    bad = dict(scan_res[0], out=scan_res[0]["out"].replace("\r\n2,", "\r\n2,9", 1))
    assert workloads.check_rep("scan", scan_ops, [bad], goldens)["failed"] == 1

    ops = workloads.build_ops("coeffs_cache", 0, True, cache)
    res = with_ref_times([run_cli(op["argv"]) for op in ops])
    assert workloads.check_rep("coeffs_cache", ops, res, goldens)["failed"] == 0
    i = next(k for k, op in enumerate(ops) if op["cmd"] == "value" and op["pass"] == 2)
    res[i] = dict(res[i], out=res[i]["out"].replace("e-", "e-1", 1))
    assert workloads.check_rep("coeffs_cache", ops, res, goldens)["failed"] == 1

    op = workloads.build_ops("verify", 0, True, cache)[-1]
    [good] = with_ref_times([run_direct_sum(op)])
    assert workloads.check_rep("verify", [op], [good], goldens)["failed"] == 0
    man, exp = good["value"]
    shifted = dict(good, value=[man + (1 << 40), exp])
    assert workloads.check_rep("verify", [op], [shifted], goldens)["failed"] == 1


def test_speed_probe_rescales_to_the_reference():
    probe = speed.SpeedProbe()
    ref = speed.REF_CHUNK_S
    # ticks at 1.0 s and 1.5 s, with the host twice as slow as the reference
    probe.stamps, probe.chunks = [1.0, 1.5], [2 * ref, 2 * ref]
    # the interval holds both ticks: their chunks are taken out, then halved
    assert probe.at_ref(0.9, 2.0) == pytest.approx((1.1 - 4 * ref) / 2)
    # no tick inside: the nearest one sets the speed
    probe.chunks = [2 * ref, 4 * ref]
    assert probe.at_ref(1.6, 1.7) == pytest.approx(0.1 / 4)
    assert probe.factor() == pytest.approx(3)


def test_missing_trace_target_reads_zero(monkeypatch):
    monkeypatch.setattr(
        tracer, "TARGETS",
        (("ratfunc.partial_fractions", "zetalab.ratfunc", "no_such_function"),
         ("polys.shift", "zetalab.polys", "Poly.no_such_method"),
         ("cache.get", "zetalab.no_such_module", "get")),
    )
    t = tracer.Tracer()
    t.install()
    m = t.metrics()
    assert t.spans == {}
    assert m["ratfunc.partial_fractions_s"] == 0 and m["cache.hit_ratio"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("scan", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
