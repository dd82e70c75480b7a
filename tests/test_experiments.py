"""Experiment driver and CLI tests (shrunken configs for speed).

Groups:
 1. Config parsing: file format, overrides, validation, env-var output root.
 2. Envelope structure: runs, traceable scalars, checks, artifacts.
 3. Determinism: identical envelopes modulo the timing field.
 4. Report generation, including missing-envelope handling.
 5. CLI entry point round trips.
"""

import json
import copy
from pathlib import Path

import numpy as np
import pytest

from ldglab import cli, experiments


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def test_parse_config(tmp_path):
    path = write_config(
        tmp_path,
        """
        # comment
        kind = gap-2d
        grid = 257        # inline comment
        noise = 0.01
        lambdas = 0.0, 5.0, 10.0
        label = quick
        """,
    )
    cfg = experiments.parse_config_file(path, overrides={"seed": 3})
    assert cfg.kind == "gap-2d"
    assert cfg.params["grid"] == 257
    assert cfg.params["noise"] == 0.01
    assert cfg.params["lambdas"] == [0.0, 5.0, 10.0]
    assert cfg.params["label"] == "quick"
    assert cfg.params["seed"] == 3


def test_parse_config_requires_kind(tmp_path):
    path = write_config(tmp_path, "grid = 100\n")
    with pytest.raises(ValueError, match="kind"):
        experiments.parse_config_file(path)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        experiments.ExperimentConfig("nonsense", {}, "out")


def test_invalid_tolerance_rejected():
    with pytest.raises(ValueError):
        experiments.ExperimentConfig("gap-2d", {"tol": -1.0}, "out")


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("LDGLAB_OUT", str(tmp_path / "rootdir"))
    path = write_config(tmp_path, "kind = gap-2d\n")
    cfg = experiments.parse_config_file(path)
    assert cfg.output_dir == str(tmp_path / "rootdir")


def _strip_timing(doc):
    doc = copy.deepcopy(doc)
    doc.pop("timing", None)
    return doc


def test_gap2d_envelope_and_determinism(tmp_path):
    cfg = experiments.ExperimentConfig(
        "gap-2d", {"grid": 2049, "seed": 1, "max_iters": 20000}, str(tmp_path / "a")
    )
    doc1 = experiments.run(cfg)
    assert doc1["summary"]["all_passed"]
    # Every summary scalar names a run id present in the envelope.
    ids = {run["id"] for run in doc1["runs"]}
    for entry in doc1["summary"]["scalars"].values():
        assert entry["run_id"] in ids
    # Artifacts written.
    for path in doc1["artifacts"].values():
        assert Path(path).exists()
    cfg2 = experiments.ExperimentConfig(
        "gap-2d", {"grid": 2049, "seed": 1, "max_iters": 20000}, str(tmp_path / "b")
    )
    doc2 = experiments.run(cfg2)
    a = _strip_timing(doc1)
    b = _strip_timing(doc2)
    a["config"].pop("output_dir")
    b["config"].pop("output_dir")
    a.pop("artifacts")
    b.pop("artifacts")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_escape_sweep_small(tmp_path):
    cfg = experiments.ExperimentConfig(
        "escape-sweep",
        {"lambdas": [0.0, 15.0, 30.0], "grid": 257, "richardson": 0},
        str(tmp_path),
    )
    doc = experiments.run(cfg)
    rows = [run for run in doc["runs"] if run["id"].startswith("sweep/lam=")]
    assert len(rows) == 3
    assert doc["summary"]["all_passed"]
    csv = Path(doc["artifacts"]["sweep_csv"]).read_text().splitlines()
    assert csv[0] == "lambda,estar,e,beta_min,beta_max"
    assert len(csv) == 4


def test_report_richardson_rows():
    # Two same-kind envelopes at grids n and 2n-1 gain extrapolated rows.
    doc_c = {
        "config": {"kind": "gap-2d", "params": {"grid": 513}},
        "summary": {"scalars": {"classS": {"value": 6.29, "run_id": "a"}}, "checks": []},
    }
    doc_f = {
        "config": {"kind": "gap-2d", "params": {"grid": 1025}},
        "summary": {"scalars": {"classS": {"value": 6.284, "run_id": "a"}}, "checks": []},
    }
    rows = experiments._richardson_rows([doc_c, doc_f])
    assert len(rows) == 1
    assert "Richardson(classS)" in rows[0]
    expected = (4 * 6.284 - 6.29) / 3
    assert f"{expected:.6g}" in rows[0]


def test_report_markdown(tmp_path):
    cfg = experiments.ExperimentConfig(
        "gap-2d", {"grid": 2049, "max_iters": 20000}, str(tmp_path)
    )
    experiments.run(cfg)
    env_path = tmp_path / "gap-2d.json"
    md = experiments.report([str(env_path), str(tmp_path / "missing.json")])
    assert "| gap-2d |" in md
    assert "unavailable" in md
    with pytest.raises(ValueError):
        experiments.report([])


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("kind = gap-2d\ngrid = 2049\nmax_iters = 20000\n")
    rc = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "res"), "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    rc = cli.main(["report", str(tmp_path / "res" / "gap-2d.json")])
    out = capsys.readouterr().out
    assert rc == 0 and "| gap-2d |" in out


def test_cli_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kind = nonsense\n")
    rc = cli.main(["run", str(bad)])
    assert rc == 2


def test_cli_dump_field(tmp_path, capsys):
    from ldglab import meridian3d as m3
    from ldglab.radial2d import SolveOptions

    g = m3.build_geometry(1.0, 0.8, 0.2, target_h=0.1)
    fld = m3.seed_field(g, 1.0, "torus-seed", SolveOptions(max_iters=100))
    npz = tmp_path / "f.npz"
    np.savez(npz, r=g.r, z=g.z, f0=fld.f0, f1=fld.f1, f2=fld.f2, h=1.0, ell=0.8, rho=0.2)
    out_csv = tmp_path / "f.csv"
    rc = cli.main(["dump-field", str(npz), "--csv", str(out_csv)])
    assert rc == 0
    assert out_csv.read_text().startswith("r,x3,f0")


def test_cli_dump_field_round_trips_cigar(tmp_path, capsys):
    # At this size the r-spacing alone rebuilds a 133-row mask for the
    # 135-row field; the stored target_h rebuilds the solver's own mask.
    cfg = write_config(
        tmp_path, "kind = cigar\nh = 2.0\nell = 1.0\nrho = 0.2\nlambda = 1.0\ntarget_h = 0.03\n"
    )
    out = tmp_path / "res"
    cli.main(["run", str(cfg), "--out", str(out)])
    dumped = tmp_path / "dumped.csv"
    assert cli.main(["dump-field", str(out / "cigar_field.npz"), "--csv", str(dumped)]) == 0
    assert dumped.read_bytes() == (out / "cigar_field.csv").read_bytes()


def test_cli_dump_field_rejects_shape_mismatch(tmp_path, capsys):
    from ldglab import meridian3d as m3
    from ldglab.radial2d import SolveOptions

    g = m3.build_geometry(1.0, 0.8, 0.2, target_h=0.1)
    fld = m3.seed_field(g, 1.0, "torus-seed", SolveOptions(max_iters=100))
    npz = tmp_path / "f.npz"
    np.savez(npz, r=g.r, z=g.z, f0=fld.f0, f1=fld.f1, f2=fld.f2, h=1.0, ell=0.8, rho=0.2,
             target_h=0.05)
    out_csv = tmp_path / "f.csv"
    assert cli.main(["dump-field", str(npz), "--csv", str(out_csv)]) == 2
    assert "does not match" in capsys.readouterr().err
    assert not out_csv.exists()
