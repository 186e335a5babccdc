"""Record the golden outputs the benchmark checks against.

Run once, from the root of a checkout whose ``src/zetalab`` is trusted:

    python3 perfbench/record_goldens.py

It writes ``perfbench/goldens.json``: the SHA-256 of every ``scan`` CSV row
the workloads print, and of the ``decompose`` and ``value`` stdout of every
polynomial in the ``coeffs_cache`` pool.  Rows are keyed by
``r,v,prec,n`` (a row does not depend on ``--n-max``), pool entries by
coefficients, r and v.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import run_cli  # noqa: E402


def main() -> int:
    goldens = {"scan": {}, "coeffs": {}}
    for r, v, n_max in workloads.SCAN_CASES:
        argv = ["scan", "--r", str(r), "--v", str(v), "--n-max", str(n_max),
                "--prec", str(workloads.SCAN_PREC)]
        res = run_cli(argv)
        lines = res["out"].split("\r\n")
        if res["code"] != 0 or lines[0] != workloads.SCAN_HEADER or len(lines) != n_max + 3:
            raise SystemExit(f"scan {argv} failed: {res['err']}")
        for n in range(n_max + 1):
            goldens["scan"][f"{r},{v},{workloads.SCAN_PREC},{n}"] = workloads.sha(lines[n + 1])
    with tempfile.TemporaryDirectory() as tmp:
        cache = str(Path(tmp) / "cache.jsonl")
        for slot, shape in enumerate(workloads.slot_shapes()):
            for variant in range(workloads.COEFFS_VARIANTS):
                entry = dict(shape, coeffs=workloads.pool_coeffs(slot, variant, shape))
                outs = {}
                for cmd, argv in zip(("decompose", "value"), workloads.coeffs_argvs(entry, cache)):
                    res = run_cli(argv)
                    if res["code"] != 0:
                        raise SystemExit(f"{argv} failed: {res['err']}")
                    outs[cmd] = workloads.sha(res["out"])
                goldens["coeffs"][workloads.coeffs_key(entry)] = outs
            print(f"slot {slot} done", file=sys.stderr)
    workloads.GOLDENS_PATH.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
