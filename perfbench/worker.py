"""One repetition of a workload, in a fresh interpreter.

Usage: python3 worker.py SPEC.json RESULT.json

Imports ``zetalab.cli`` first and stamps the system-wide monotonic clock,
so the parent can time interpreter start to import.  Then, unless the spec
is a set-up probe, it runs the spec's operations in order through
``zetalab.cli.main(argv)`` in-process (stdout and stderr captured; stderr
writes are time-stamped so scan rows can be timed) or through the library,
and writes every output and latency to RESULT.json.  With ``"trace": true``
it first installs the timing wrappers of ``tracer.py``.

While the operations run, ``speed.SpeedProbe`` samples the host's speed,
and every latency is also given rescaled to the reference speed (``t_ref``,
``row_times_ref``, ``wall_ref``); ``setup_chunk`` is the probe chunk's time
right after the import, to rescale the set-up time.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import zetalab.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import speed  # noqa: E402  (after the stamp: not part of the set-up time)


class StampedStream(io.TextIOBase):
    """Text sink that records when each write arrived."""

    def __init__(self):
        self.parts: list[tuple[float, str]] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append((time.perf_counter(), text))
        return len(text)

    def text(self) -> str:
        return "".join(t for _, t in self.parts)


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), StampedStream()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = zetalab.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = -1
        err.write(traceback.format_exc())
    t1 = time.perf_counter()
    res = {"code": code, "t": t1 - t0, "t0": t0, "t1": t1,
           "out": out.getvalue(), "err": err.text()[-2000:]}
    if argv[0] == "scan":
        stamps = [t for t, text in err.parts if text.startswith("scan: n=")]
        res["stamps"] = stamps
    return res


def run_direct_sum(op: dict) -> dict:
    from fractions import Fraction

    import zetalab.polys
    import zetalab.verify

    t0 = time.perf_counter()
    try:
        hp = zetalab.verify.direct_sum_value(
            zetalab.polys.legendre_coeffs(op["n"]), op["r"], op["v"], Fraction(*op["target"])
        )
    except Exception:
        t1 = time.perf_counter()
        return {"code": -1, "t": t1 - t0, "t0": t0, "t1": t1, "err": traceback.format_exc()[-2000:]}
    t1 = time.perf_counter()
    return {"code": 0, "t": t1 - t0, "t0": t0, "t1": t1,
            "value": list(hp.value.man_exp), "bound": list(hp.error_bound.man_exp)}


def add_ref_times(res: dict, probe: speed.SpeedProbe) -> None:
    """Add the operation's latency (and scan row times) at the reference speed."""
    stamps = res.pop("stamps", None)
    if stamps is None:
        res["t_ref"] = probe.at_ref(res["t0"], res["t1"])
        return
    bounds = [res["t0"], *stamps, res["t1"]]
    parts = [probe.at_ref(a, b) for a, b in zip(bounds, bounds[1:])]
    res["row_times_ref"] = parts[: len(stamps)]
    res["t_ref"] = sum(parts)


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = {"ready": READY, "setup_chunk": speed.chunk_now(), "zetalab_file": zetalab.cli.__file__}
    if not spec.get("probe"):
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        probe = speed.SpeedProbe()
        probe.start()
        t0 = time.perf_counter()
        ops = [run_cli(op["argv"]) if op["kind"] == "cli" else run_direct_sum(op) for op in spec["ops"]]
        result["wall"] = time.perf_counter() - t0
        probe.stop()
        for res in ops:
            add_ref_times(res, probe)
        result["wall_ref"] = sum(res["t_ref"] for res in ops)
        result["speed_factor"] = probe.factor()
        result["ops"] = ops
        if tracer is not None:
            result["trace"] = tracer.metrics(spec.get("cache_path"))
            result["self_times"] = tracer.self_times()
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
