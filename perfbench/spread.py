"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 10] [--first-seed 0]
        [--save FILE] [--against FILE]

Runs `perfbench/run.py --trace 0` once per seed and workload (seed-major,
so slow drift of the machine's load spreads over every workload), then
prints, per metric, the median and the quartile spread
(q3 - q1) / median from `statistics.quantiles(values, n=4)`.  A spread
other than setup_s's must stay within the metric's bound in
BENCHMARK.json; below a third of it is the target.  With `--against`, the
medians are also compared with an earlier `--save` file: none may be worse
by more than its bound.  Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--save", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)
    workloads = args.workload or names
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {m: [] for m in metrics} for w in workloads}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and res["correct"]
            for m in metrics:
                values[w][m].append(res["metrics"][m]["value"])
            print(f"seed {seed} {w}: " + ", ".join(
                f"{m}={res['metrics'][m]['value']:.4f}" for m in metrics), flush=True)

    old = json.loads(args.against.read_text()) if args.against else None
    print("| workload | metric | median | q1 | q3 | spread | bound | vs --against |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m, meta in metrics.items():
            vals = values[w][m]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if m != "setup_s":
                ok &= spread <= meta["bound"]
            change = ""
            if old is not None:
                prev = statistics.median(old[w][m])
                rel = (med - prev) / prev if meta["better"] == "lower" else (prev - med) / prev
                ok &= rel <= meta["bound"]
                change = f"{rel:+.4f}"
            print(f"| {w} | {m} | {med:.4f} | {q1:.4f} | {q3:.4f} | {spread:.4f} | "
                  f"{meta['bound']} | {change} |")
    if args.save:
        args.save.write_text(json.dumps(values, indent=1))
    print("spread check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
