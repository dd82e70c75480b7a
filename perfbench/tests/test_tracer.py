"""Self-checks of the benchmark's tracer and correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Small configs of the three benchmarked kinds run in fresh processes, once
untraced and once traced, so the checks take seconds, not minutes.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import speed  # noqa: E402
from tracer import REQUIRED_BINDINGS, Tracer  # noqa: E402

SMALL = {
    "curve-2d": "kind = escape-sweep\ngrid = 129\nlambda_max = 114.0\ncount = 3\n",
    "cigar-3d": "kind = cigar\nh = 3.0\nell = 0.6\nrho = 0.2\nlambda = 1.0\ntarget_h = 0.05\n",
    "pancake-3d": "kind = pancake\nh = 0.8\nell = 3.0\nell_small = 1.5\nrho = 0.2\n"
                  "lambda = 1.0\ntarget_h = 0.05\n",
}

_DESCENT = ["descent.descend.calls", "descent.splu.calls", "descent.lu_solve.calls",
            "descent.energy.calls", "descent.gradient_norm.calls", "descent.flip_sweep.calls",
            "tensor_core.grad_w_tan_arrays.calls", "radial2d.minimize_2d.uS.calls"]
_3D = ["meridian3d.minimize_3d.calls", "tensor_core.q_to_u.calls",
       "meridian3d.build_geometry.self_s", "meridian3d.homeotropic_data.self_s",
       "meridian3d.interp_field.self_s", "meridian3d.seed_field.s",
       "meridian3d.MeridianField.to_csv.s", "meridian3d.el_residual_3d.self_s"]

#: Metrics the layer table says do work on each kind at this commit.
PREDICTED_WORK = {
    "curve-2d": _DESCENT + ["radial2d.minimize_2d.bubbled.calls", "radial2d.minimize_2d.ghbar.calls",
                            "radial2d.minimize_2d.warm.calls", "radial2d.el_residual_2d.self_s"],
    "cigar-3d": _DESCENT + _3D + ["descent.flip_sweep.flips",
                                  "meridian3d.energy_identity_residuals.s"],
    "pancake-3d": _DESCENT + _3D + ["meridian3d.classify.self_s",
                                    "meridian3d.radial_monotonicity.s",
                                    "meridian3d.energy_in_cylinder.s"],
}
#: And where it predicts none: the 2D curve never reaches meridian3d.
PREDICTED_IDLE = {"curve-2d": _3D, "cigar-3d": [], "pancake-3d": []}


def _run_child(cfg: Path, out: Path, trace: int, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--config", str(cfg), "--out", str(out),
           "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(SMALL))
def small_runs(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    cfg = tmp / "small.cfg"
    cfg.write_text(SMALL[request.param])
    plain = _run_child(cfg, tmp / "plain", 0)
    traced = _run_child(cfg, tmp / "traced", 1, spans=tmp / "spans.json")
    spans = json.loads((tmp / "spans.json").read_text())["spans"]
    return request.param, plain, traced, spans


def test_every_lookup_site_is_wrapped():
    from ldglab import experiments  # noqa: F401

    tracer = Tracer()
    tracer.install()
    try:
        for binding in REQUIRED_BINDINGS:
            assert binding in tracer.bindings
            modname, attr = binding.rsplit(".", 1)
            assert hasattr(getattr(sys.modules[modname], attr), "__wrapped_by_perfbench__")
        assert tracer.unbound_originals() == []
    finally:
        tracer.uninstall()
    for binding in REQUIRED_BINDINGS:
        modname, attr = binding.rsplit(".", 1)
        assert not hasattr(getattr(sys.modules[modname], attr), "__wrapped_by_perfbench__")


def test_tracing_changes_no_result(small_runs):
    _, plain, traced, _ = small_runs
    assert plain["failures"] == traced["failures"] == []
    assert plain["digest"] == traced["digest"]


def test_speed_probe_samples_untraced_runs_only(small_runs):
    _, plain, traced, _ = small_runs
    assert "norm_wall_s" not in traced
    assert plain["probe_samples"] >= plain["wall_s"] / speed.INTERVAL_S / 2
    assert plain["norm_wall_s"] > 0


def test_normalized_wall_follows_the_kernel_time():
    ref = speed.REF_KERNEL_S
    assert speed.normalized_wall(8.0, [ref, ref]) == pytest.approx(8.0)
    assert speed.normalized_wall(8.0, [1.5 * ref, 2.5 * ref]) == pytest.approx(4.0)
    assert speed.normalized_wall(8.0, []) == 8.0


def test_predicted_work_is_seen(small_runs):
    kind, _, traced, _ = small_runs
    layers = traced["layers"]
    assert [m for m in PREDICTED_WORK[kind] if not layers[m] > 0] == []
    assert [m for m in PREDICTED_IDLE[kind] if layers[m] != 0] == []


def test_self_times_within_wall(small_runs):
    _, _, traced, spans = small_runs
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        assert end >= start
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            assert p_start <= start and end <= p_end
            child_s[parent] += end - start
    self_s = [end - start - c for (_, start, end, _), c in zip(spans, child_s)]
    assert min(self_s) > -1e-9
    assert sum(self_s) <= traced["wall_s"]
    assert traced["layers"]["experiments.run.s"] <= traced["wall_s"]


def test_metric_names_match_benchmark_json(small_runs):
    _, _, traced, _ = small_runs
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(traced["layers"]) + ["trace.overhead_s"]


def _pinned_envelope(workload: str, reference: dict) -> dict:
    ref = reference["workloads"][workload]
    checks = [{"name": "ok", "value": 1, "passed": True}]
    if workload == "curve-2d":
        runs = [{"id": f"sweep/lam={lam:g}", "lambda": lam, "estar": e}
                for lam, e in zip(ref["lambda"], ref["estar"])]
        return {"summary": {"checks": checks, "scalars": {}}, "runs": runs}
    sing = [{"position": -1.0}, {"position": 1.0}] if ref["classification"] == "Split" else []
    runs = [{"id": "best", "classification": ref["classification"], "singularities": sing},
            {"id": "pancake/ring", "ring": {"cells": 1}}]
    scalars = {"energy": {"value": ref["energy"], "run_id": "best"}}
    return {"summary": {"checks": checks, "scalars": scalars}, "runs": runs}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_drift_fails_the_gate(workload):
    reference = json.loads((BENCH / "reference.json").read_text())
    doc = _pinned_envelope(workload, reference)
    assert child.check_envelope(workload, doc, reference) == []

    drifted = copy.deepcopy(doc)
    if workload == "curve-2d":
        drifted["runs"][7]["estar"] *= 1.0 + 1e-5
    else:
        drifted["summary"]["scalars"]["energy"]["value"] *= 1.0 + 1e-5
    assert len(child.check_envelope(workload, drifted, reference)) == 1

    failed_check = copy.deepcopy(doc)
    failed_check["summary"]["checks"][0]["passed"] = False
    assert len(child.check_envelope(workload, failed_check, reference)) == 1

    if workload == "curve-2d":
        short = copy.deepcopy(doc)
        del short["runs"][-1]
        assert child.check_envelope(workload, short, reference) != []
    else:
        flipped = copy.deepcopy(doc)
        flipped["runs"][0]["classification"] = "Torus" if workload == "cigar-3d" else "Split"
        assert child.check_envelope(workload, flipped, reference) != []
