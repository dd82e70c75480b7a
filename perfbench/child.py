"""One fresh-process run of an ldglab experiment, for the benchmark.

    python3 perfbench/child.py --workload NAME --seed N --out DIR
        [--mode setup|run] [--trace 0|1] [--t0 MONOTONIC] [--spans PATH]
    python3 perfbench/child.py --config FILE ... (any config, no pinned check)

The process imports `ldglab.experiments` from the checkout's src/ and
parses the config: that is the set-up, timed from `--t0` (the parent's
CLOCK_MONOTONIC reading just before it started this process).  In `run`
mode it then calls `experiments.run` once, traced or not, checks the
envelope, and prints one JSON object as its last stdout line.  An untraced
run samples the host's speed as it goes (speed.py) and reports its wall
time both as measured and normalized to the reference speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("curve-2d", "cigar-3d", "pancake-3d")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def deterministic_digest(doc: dict) -> str:
    """Hash of the envelope without its `timing` field and output location."""
    text = json.dumps({k: v for k, v in doc.items() if k != "timing"}, sort_keys=True)
    text = text.replace(doc["config"]["output_dir"], "<out>")
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_bytes(doc: dict) -> int:
    return sum(os.path.getsize(p) for p in doc["artifacts"].values() if os.path.exists(p))


def _close(value, ref, tol) -> bool:
    return isinstance(value, (int, float)) and math.isclose(
        value, ref, rel_tol=tol["rel"], abs_tol=tol["abs"]
    )


def check_envelope(workload: str, doc: dict, reference: dict) -> list[str]:
    """Reasons the envelope fails the pinned reference; empty when it passes."""
    tol = reference["tolerance"]
    ref = reference["workloads"][workload]
    bad = [f"envelope check failed: {c['name']} = {c['value']!r}"
           for c in doc["summary"]["checks"] if not c["passed"]]
    runs = {r["id"]: r for r in doc["runs"]}
    if workload == "curve-2d":
        rows = [r for r in doc["runs"] if r["id"].startswith("sweep/lam=")]
        if len(rows) != len(ref["estar"]):
            bad.append(f"{len(rows)} curve rows, expected {len(ref['estar'])}")
        for row, lam, estar in zip(rows, ref["lambda"], ref["estar"]):
            if not (_close(row["lambda"], lam, tol) and _close(row["estar"], estar, tol)):
                bad.append(f"e* at lambda={row['lambda']!r} is {row['estar']!r}, pinned {estar!r}")
        return bad
    energy = doc["summary"]["scalars"].get("energy", {})
    if not _close(energy.get("value"), ref["energy"], tol):
        bad.append(f"energy {energy.get('value')!r}, pinned {ref['energy']!r}")
    best = runs.get(energy.get("run_id"), {})
    if best.get("classification") != ref["classification"]:
        bad.append(f"classification {best.get('classification')!r}, pinned {ref['classification']!r}")
    sing = [s["position"] for s in best.get("singularities", [])]
    if ref["classification"] == "Split":
        up = sum(1 for z in sing if z > 0)
        down = sum(1 for z in sing if z < 0)
        if up % 2 != 1 or down % 2 != 1:
            bad.append(f"axis defects per half (down, up) = ({down}, {up}), pinned odd parity")
    else:
        if sing:
            bad.append(f"{len(sing)} axis singularities, pinned none")
        if runs.get("pancake/ring", {}).get("ring") is None:
            bad.append("no deep-biaxiality ring, pinned present")
    return bad


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--workload", choices=WORKLOADS)
    src.add_argument("--config", help="config file to run instead of a workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="experiment output directory")
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, help="parent's CLOCK_MONOTONIC at spawn")
    ap.add_argument("--spans", help="write the traced spans to this JSON file")
    args = ap.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else now()

    from ldglab import experiments

    if not Path(experiments.__file__).resolve().is_relative_to(SRC):
        print(f"ldglab imported from {experiments.__file__}, not {SRC}", file=sys.stderr)
        return 3
    cfg_path = args.config or HERE / "configs" / f"{args.workload}.cfg"
    # The seed reaches the config but none of the benchmarked kinds draws
    # random numbers, so every seed gives the same inputs.
    config = experiments.parse_config_file(
        cfg_path, {"seed": args.seed, "workers": 1, "out": args.out}
    )
    setup_s = now() - t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer  # the script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
        missing = tracer.unbound_originals()
        if missing:
            print(f"tracer left names unwrapped: {missing}", file=sys.stderr)
            return 3
    probe = None
    if tracer is None:
        from speed import SpeedProbe, normalized_wall

        probe = SpeedProbe()
        probe.start()
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        doc = experiments.run(config)
    except Exception as exc:  # a failed run is counted, not fatal
        doc = None
        traceback.print_exc()
        result["failures"] = [f"run raised {exc!r}"]
    # The probe's own time is taken out of wall_s; norm_wall_s also rescales
    # it to the reference host speed (see speed.py).
    samples = probe.stop() if probe is not None else []
    wall_s = time.perf_counter() - start - sum(samples)
    cpu_s = time.process_time() - cpu0 - sum(samples)
    if doc is None:
        result["wall_s"] = wall_s
        print(json.dumps(result))
        return 0
    if tracer is not None:
        tracer.uninstall()
    else:
        result.update(norm_wall_s=normalized_wall(wall_s, samples),
                      probe_samples=len(samples), probe_s=sum(samples))
    result.update(
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=deterministic_digest(doc),
        failures=[],
        provenance=provenance(),
    )
    if args.workload:
        reference = json.loads((HERE / "reference.json").read_text())
        result["failures"] = check_envelope(args.workload, doc, reference)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(doc, wall_s, cpu_s, artifact_bytes(doc))
        result["bindings"] = tracer.bindings
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}
            ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
