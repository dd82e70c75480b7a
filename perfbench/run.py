"""ldglab benchmark: three reference experiments timed end to end.

    python3 perfbench/run.py --workload {curve-2d,cigar-3d,pancake-3d,all}
        --seed N --seconds S --trace {0,1}

Every experiment run happens in a fresh interpreter (perfbench/child.py),
so the package's module caches never carry over from one run to the next.
One invocation:

1. starts set-up-only processes (import `ldglab.experiments`, parse the
   config) until, with the run processes, it has SETUP_SAMPLES set-up times;
2. runs the workload untraced, one process at a time (a closed loop with
   one client), and starts another run only while the runs so far predict
   it will end within `--seconds`; at least one run is made;
3. with `--trace 1`, runs it once more with the tracer installed and
   reports the per-layer metrics and the tracing overhead.

Every run's envelope is checked against perfbench/reference.json.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
With `--workload all` the three workloads run in turn and a table of the
end-to-end metrics, fail_frac included, is printed before it.

Exits 2 without a result when the program cannot be set up at all (for
example, when src/ is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("curve-2d", "cigar-3d", "pancake-3d")
SETUP_SAMPLES = 5
#: One workload invocation must finish within 180 s; keep a margin.
DEADLINE_S = 170.0
#: BLAS/OpenMP pools default to one thread per core; on the 3D workloads the
#: second OpenBLAS thread spins (cigar-3d: 50 s CPU for 27.5 s wall, against
#: 27 s for 27 s single-threaded) and makes wall time follow the machine's
#: other load.  Runs are single-threaded unless the caller sets these.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The program could not be imported or configured."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child(workload: str, seed: int, mode: str, trace: int, run_dir: Path, deadline: float,
          spans: Path | None = None) -> tuple[dict | None, float]:
    """Run perfbench/child.py once; returns (its result or None, elapsed s)."""
    t0 = now()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--trace", str(trace), "--out", str(run_dir), "--t0", repr(t0)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**{v: "1" for v in THREAD_VARS}, **os.environ, "PYTHONPATH": str(ROOT / "src")}
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        print(f"{workload}: {mode} process timed out", file=sys.stderr)
        return None, now() - t0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: {mode} process exited with {proc.returncode}", file=sys.stderr)
        return None, now() - t0
    return json.loads(lines[-1]), now() - t0


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # never report an enclosing repository's commit
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=10,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench_workload(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    """One invocation's runs of `workload`; metrics and units follow `spec`."""
    deadline = now() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{workload}-seed{seed}"
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        res, _ = child(workload, seed, "setup", 0, run_dir, deadline)
        if res is None:
            raise SetupError(f"{workload}: set-up failed")
        setups.append(res["setup_s"])

    runs: list[dict] = []
    failures: list[str] = []
    durations = []
    t_loop = now()
    while True:
        res, elapsed = child(workload, seed, "run", 0, run_dir, deadline)
        durations.append(elapsed)
        if res is None:
            res = {"wall_s": elapsed, "failures": ["run process died or timed out"]}
        runs.append(res)
        failures += res["failures"]
        longest = max(durations)
        if now() - t_loop + longest > seconds or now() + longest > deadline:
            break
    setups += [r["setup_s"] for r in runs if "setup_s" in r]
    walls = [r["wall_s"] for r in runs]
    attempted, failed = len(runs), sum(1 for r in runs if r["failures"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "samples": {"norm_wall_s": [r["norm_wall_s"] for r in runs if "norm_wall_s" in r],
                    "wall_s": walls, "setup_s": setups,
                    "peak_rss_mb": [r["peak_rss_mb"] for r in runs if "peak_rss_mb" in r]},
        "units": {"wall_s": "s",  # as measured; reported, not a BENCHMARK.json metric
                  **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}},
        "provenance": {
            **next((r["provenance"] for r in runs if "provenance" in r), {}),
            "git_commit": git_commit(),
            "untraced_runs_in_fresh_process": True,
            "closed_loop_clients": 1,
            "workers": 1,
            "seed_note": "no benchmarked kind draws random numbers: every seed gives the same inputs",
        },
    }
    record["metrics"] = {
        m["name"]: {"value": statistics.median(record["samples"][m["name"]] or [0.0]),
                    "unit": m["unit"]}
        for m in spec["end_to_end"]
    }

    if trace:
        res, elapsed = child(workload, seed, "run", 1, run_dir, deadline,
                             spans=OUT / f"spans-{workload}.json")
        attempted += 1
        if res is None:
            res = {"failures": ["traced run process died or timed out"]}
        digests = {r.get("digest") for r in runs if not r["failures"]}
        if not res["failures"] and digests != {res["digest"]}:
            res["failures"].append("traced envelope differs from the untraced one")
        failed += bool(res["failures"])
        failures += res["failures"]
        layers = res.get("layers", {})
        if layers:
            layers["trace.overhead_s"] = res["wall_s"] - statistics.median(walls)
        record["layers"] = layers
        record["bindings"] = res.get("bindings", [])
        record["metrics"] = {
            name: {"value": value, "unit": record["units"][name]} for name, value in layers.items()
        }
    record.update(attempted=attempted, failed=failed, failures=failures)
    return record


def print_record(rec: dict) -> None:
    w = rec["workload"]
    for name, sample in rec["samples"].items():
        if sample:
            print(f"{w}  {name} = {statistics.median(sample):.6g} {rec['units'][name]} "
                  f"(median of {len(sample)}; min {min(sample):.6g}, max {max(sample):.6g})")
    print(f"{w}  fail_frac = {rec['failed'] / rec['attempted']:.6g} ratio "
          f"({rec['failed']} of {rec['attempted']} runs)")
    for msg in rec["failures"]:
        print(f"{w}  FAIL {msg}")
    for name, value in rec.get("layers", {}).items():
        print(f"{w}  {name} = {value:.6g} {rec['units'][name]}")
    print(f"{w}  provenance {json.dumps(rec['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = []
    try:
        for name in names:
            rec = bench_workload(name, args.seed, args.seconds, args.trace, spec)
            (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(rec, indent=1, sort_keys=True))
            print_record(rec)
            records.append(rec)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print("| workload | norm_wall_s (s) | wall_s (s) | setup_s (s) | peak_rss_mb (MiB) "
              "| fail_frac (ratio) |")
        print("|---|---|---|---|---|---|")
        for rec in records:
            m = {k: v["value"] for k, v in rec["metrics"].items()}
            raw = statistics.median(rec["samples"]["wall_s"])
            print(f"| {rec['workload']} | {m.get('norm_wall_s', float('nan')):.4f} | {raw:.4f} | "
                  f"{m.get('setup_s', float('nan')):.4f} | "
                  f"{m.get('peak_rss_mb', float('nan')):.1f} | "
                  f"{rec['failed'] / rec['attempted']:.3f} |")
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    else:
        metrics = records[0]["metrics"]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
