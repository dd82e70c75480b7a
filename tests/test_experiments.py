"""Experiment driver and CLI tests (shrunken configs for speed).

Groups:
 1. Config parsing: file format, overrides, validation, env-var output root.
 2. Envelope structure: runs, traceable scalars, checks, artifacts.
 3. Determinism: identical envelopes modulo the timing field.
 4. Report generation, including missing-envelope handling.
 5. CLI entry point round trips.
"""

import csv
import json
import copy
import os
import subprocess
import sys
import zipfile
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
        kind = shape-sweep
        workers = 2        # inline comment
        ells = 0.6, 1.5, 3.0
        """,
    )
    cfg = experiments.parse_config_file(path, overrides={"seed": 3})
    assert cfg.kind == "shape-sweep"
    assert cfg.params["workers"] == 2
    assert cfg.params["ells"] == [0.6, 1.5, 3.0]
    assert experiments._parse_value("quick") == "quick"
    assert cfg.params["seed"] == 3


def test_parse_config_requires_kind(tmp_path):
    path = write_config(tmp_path, "grid = 100\n")
    with pytest.raises(ValueError, match="kind"):
        experiments.parse_config_file(path)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        experiments.ExperimentConfig("nonsense", {}, "out")


def test_invalid_tolerance_rejected():
    with pytest.raises(ValueError, match="tolerance tol must be a positive number"):
        experiments.ExperimentConfig("lambda-star", {"tol": -1.0}, "out")


@pytest.mark.parametrize("kind", experiments.KINDS)
def test_every_shipped_config_takes_the_benchmark_overrides(tmp_path, kind):
    # The overrides that perfbench/child.py passes to every workload.
    path = Path(__file__).resolve().parent.parent / "configs" / f"{kind}.cfg"
    overrides = {"seed": 0, "workers": 1, "out": str(tmp_path)}
    cfg = experiments.parse_config_file(path, overrides)
    assert cfg.kind == kind and cfg.output_dir == str(tmp_path)
    # The envelope's params record what was set, not the defaults.
    assert "max_iters" not in cfg.params and cfg.get("max_iters") == 20000


@pytest.mark.parametrize(
    "kind, setting",
    [
        ("gap-2d", "gird=513"),
        ("verify-closed-forms", "lambda=3"),
        ("pancake", "ring_eps=0.05"),
        ("verify-closed-forms", "bubble_radius=50"),
        ("lambda-star", "margin=2"),
        # Settings that the solver and the sweep no longer take (lambdas:
        # see test_cli_bad_size_seed_or_noise_is_a_config_error).
        ("gap-2d", "step=0.05"),
        ("lambda-star", "energy_tol=1e-12"),
        ("escape-sweep", "richardson=false"),
    ],
)
def test_cli_key_the_kind_does_not_read_is_a_config_error(tmp_path, capsys, kind, setting):
    cfg = write_config(tmp_path, f"kind = {kind}\n")
    rc = cli.main(["run", str(cfg), "--set", setting, "--out", str(tmp_path / "res")])
    assert rc == 2
    key = setting.split("=")[0]
    assert f"error: {kind} reads no key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_parse_booleans(tmp_path):
    # No key takes a boolean: "false" stays a string, which no number key takes.
    assert experiments._parse_value("false") == "false"
    assert experiments._parse_value("TRUE") == "TRUE"
    path = write_config(tmp_path, "kind = gap-2d\nnoise = false\n")
    with pytest.raises(ValueError, match="noise must be a finite number >= 0, not 'false'"):
        experiments.parse_config_file(path)


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
        {"lambda_max": 30.0, "count": 3, "grid": 257},
        str(tmp_path),
    )
    doc = experiments.run(cfg)
    rows = [run for run in doc["runs"] if run["id"].startswith("sweep/lam=")]
    assert len(rows) == 3
    assert doc["summary"]["all_passed"]
    csv = Path(doc["artifacts"]["sweep_csv"]).read_text().splitlines()
    assert csv[0] == "lambda,estar,e,beta_min,beta_max"
    assert len(csv) == 4


@pytest.mark.parametrize("count", [1, 2])
def test_escape_sweep_with_fewer_than_three_lambdas(tmp_path, count):
    # "e* nondecreasing" needs two rows and the concavity check three.
    cfg = write_config(tmp_path, f"kind = escape-sweep\ngrid = 33\ncount = {count}\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 0
    doc = json.loads((tmp_path / "res" / "escape-sweep.json").read_text())
    rows = [run for run in doc["runs"] if run["id"].startswith("sweep/lam=")]
    assert len(rows) == count and all(run["valid"] for run in rows)
    csv = Path(doc["artifacts"]["sweep_csv"]).read_text().splitlines()
    assert len(csv) == count + 1


def test_escape_sweep_csv_is_numeric(tmp_path):
    # The lambdas come from np.linspace; every cell must still read back as a
    # plain float literal.
    cfg = write_config(tmp_path, "kind = escape-sweep\ngrid = 33\ncount = 3\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "res")]) == 0
    doc = json.loads((tmp_path / "res" / "escape-sweep.json").read_text())
    names = ["lambda", "estar", "e", "beta_min", "beta_max"]
    with open(doc["artifacts"]["sweep_csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == names
    assert len(rows) == 4
    for row in rows[1:]:
        assert len([float(cell) for cell in row]) == 5
    # Byte-identical to csv.writer on the envelope's rows, as every CSV is.
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for run in doc["runs"]:
            if run["id"].startswith("sweep/lam="):
                w.writerow([repr(float(run[name])) for name in names])
    assert Path(doc["artifacts"]["sweep_csv"]).read_bytes() == reference.read_bytes()


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
    # A missing file, and JSON files that are not envelopes, each get one
    # unavailable row.
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "other.json").write_text('{"a": 1}')
    bad = [str(tmp_path / name) for name in ("missing.json", "list.json", "other.json")]
    md = experiments.report([str(env_path), *bad])
    assert "| gap-2d |" in md
    for path in bad:
        assert md.count(f"| {path} | unavailable |") == 1, path
    with pytest.raises(ValueError):
        experiments.report([])


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("kind = gap-2d\ngrid = 2049\nmax_iters = 20000\n")
    rc = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "res"), "--set", "seed=2"])
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


def test_cli_non_numeric_tolerance(tmp_path, capsys):
    cfg = write_config(tmp_path, "kind = gap-2d\n")
    rc = cli.main(["run", str(cfg), "--set", "grad_tol=abc"])
    assert rc == 2
    assert "error: tolerance grad_tol must be a positive number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("foo", "--set expects key=value, got 'foo'"),
        ("max_iters=1.5", "solver option max_iters must be a whole number, not 1.5"),
    ],
)
def test_cli_malformed_setting_is_a_config_error(tmp_path, capsys, setting, message):
    # Exit status 1 is kept for solver failures and failed checks.
    cfg = write_config(tmp_path, "kind = gap-2d\n")
    rc = cli.main(["run", str(cfg), "--set", setting, "--out", str(tmp_path / "res")])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_gap2d_seeds_the_preset_inits(tmp_path, monkeypatch):
    from ldglab import radial2d as r2

    preset = r2.preset_profile
    calls = []

    def recording(name, grid, noise=0.0, seed=0):
        calls.append((name, seed))
        return preset(name, grid, noise=noise, seed=seed)

    monkeypatch.setattr(r2, "preset_profile", recording)
    cfg = experiments.ExperimentConfig(
        "gap-2d", {"grid": 129, "seed": 5, "max_iters": 200}, str(tmp_path)
    )
    experiments.run(cfg)
    assert calls == [("uS", 5), ("ghbar", 6)]


def test_cli_dump_field_round_trips_cigar(tmp_path, capsys):
    # At this size the r-spacing alone would rebuild a 133-row mask for the
    # 135-row field; the stored target_h rebuilds the solver's own mask.
    cfg = write_config(
        tmp_path, "kind = cigar\nh = 2.0\nell = 1.0\nrho = 0.2\nlambda = 1.0\ntarget_h = 0.03\n"
    )
    out = tmp_path / "res"
    cli.main(["run", str(cfg), "--out", str(out)])
    assert_field_archive(out / "cigar_field.npz")
    dumped = tmp_path / "dumped.csv"
    assert cli.main(["dump-field", str(out / "cigar_field.npz"), "--csv", str(dumped)]) == 0
    assert dumped.read_bytes() == (out / "cigar_field.csv").read_bytes()


def test_cli_dump_field_round_trips_pancake(tmp_path, capsys):
    cfg = write_config(tmp_path, "kind = pancake\nell = 3.0\nell_small = 1.5\ntarget_h = 0.05\n")
    out = tmp_path / "res"
    doc = experiments.run(experiments.parse_config_file(cfg, {"out": str(out)}))
    assert doc["summary"]["all_passed"]
    assert doc["artifacts"] == {"field_csv": str(out / "pancake_field.csv"),
                                "field_npz": str(out / "pancake_field.npz")}
    assert_field_archive(out / "pancake_field.npz")
    dumped = tmp_path / "dumped.csv"
    assert cli.main(["dump-field", str(out / "pancake_field.npz"), "--csv", str(dumped)]) == 0
    assert dumped.read_bytes() == (out / "pancake_field.csv").read_bytes()


def assert_field_archive(path):
    """Both 3D kinds store the same keys, uncompressed."""
    with zipfile.ZipFile(path) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
    with np.load(path) as data:
        assert sorted(data.files) == sorted(
            ["r", "z", "f0", "f1", "f2", "h", "ell", "rho", "target_h"])


def test_cli_dump_field_round_trips_a_complex_field(tmp_path, capsys):
    from ldglab import meridian3d as m3

    # A unit field with nonzero imaginary parts everywhere off the axis,
    # saved as the cigar experiment saves its field.
    h, ell, rho, th = 1.0, 0.8, 0.2, 0.07
    g = m3.build_geometry(h, ell, rho, target_h=th)
    rng = np.random.default_rng(4)
    f0, f1, f2 = (rng.standard_normal((g.nz, g.nr)) + 1j * rng.standard_normal((g.nz, g.nr))
                  for _ in range(3))
    f0 = f0.real
    norm = np.sqrt(f0**2 + np.abs(f1) ** 2 + np.abs(f2) ** 2)
    fld = m3.MeridianField(g, f0 / norm, f1 / norm, f2 / norm)
    npz = tmp_path / "f.npz"
    fld.save(npz)
    own, dumped = tmp_path / "own.csv", tmp_path / "dumped.csv"
    fld.to_csv(own)
    assert cli.main(["dump-field", str(npz), "--csv", str(dumped)]) == 0
    assert dumped.read_bytes() == own.read_bytes()
    rows = list(csv.reader(own.read_text().splitlines()))[1:]
    assert len(rows) == np.count_nonzero(g.active)
    assert all(float(row[4]) != 0.0 for row in rows[:10])


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


def test_cli_dump_field_rejects_a_bad_lattice_spacing(tmp_path, capsys):
    npz = tmp_path / "f.npz"
    zeros = np.zeros((17, 9))
    np.savez(npz, r=np.linspace(0.0, 0.8, 9), z=np.linspace(-1.0, 1.0, 17), f0=zeros + 1.0,
             f1=zeros, f2=zeros, h=1.0, ell=0.8, rho=0.2, target_h=-0.1)
    out_csv = tmp_path / "f.csv"
    assert cli.main(["dump-field", str(npz), "--csv", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert "stores no valid cylinder: target_h must be a finite positive number" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("content", [None, "no field keys", "no target_h", "empty", "npy"])
def test_cli_dump_field_reports_an_unreadable_file(tmp_path, capsys, content):
    from ldglab import meridian3d as m3

    npz = tmp_path / "f.npz"
    if content == "no target_h":
        # Every key of a field archive but the lattice spacing.
        g = m3.build_geometry(1.0, 0.8, 0.2, target_h=0.1)
        fld = m3.seed_field(g, 1.0, "torus-seed")
        np.savez(npz, r=g.r, z=g.z, f0=fld.f0, f1=fld.f1, f2=fld.f2, h=1.0, ell=0.8, rho=0.2)
    elif content == "empty":
        npz.write_bytes(b"")
    elif content == "npy":  # a plain array, not an archive
        with open(npz, "wb") as fh:
            np.save(fh, np.zeros(3))
    elif content is not None:
        np.savez(npz, note=content)
    out_csv = tmp_path / "f.csv"
    assert cli.main(["dump-field", str(npz), "--csv", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read a field from {npz}")
    assert "Traceback" not in err
    assert not out_csv.exists()


def test_cli_dump_field_reports_an_unwritable_csv(tmp_path, capsys):
    from ldglab import meridian3d as m3

    npz = tmp_path / "f.npz"
    m3.seed_field(m3.build_geometry(1.0, 0.8, 0.2, target_h=0.1), 1.0, "torus-seed").save(npz)
    out_csv = tmp_path / "missing" / "f.csv"
    assert cli.main(["dump-field", str(npz), "--csv", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out_csv}: ")
    assert "Traceback" not in err
    assert not out_csv.parent.exists()


def test_lambda_star_payload_records_failed_inits(tmp_path, monkeypatch):
    from ldglab import radial2d as r2

    solve = r2.minimize_2d

    def failing(lam, class_tag, init, *args, **kwargs):
        if init == "bubbled":
            raise RuntimeError("no bubbled")
        return solve(lam, class_tag, init, *args, **kwargs)

    monkeypatch.setattr(r2, "minimize_2d", failing)
    est = r2.estimate_lambda_star(tol=20.0, n=129, bracket=(60.0, 140.0))
    lo, hi, pt = est
    assert lo < pt < hi and hi - lo <= 20.0
    # Both endpoints and every midpoint evaluate the 'bubbled' init once.
    assert [name for _, name, _ in est.failures] == ["bubbled"] * (2 + 2)
    assert est.failures[:2] == ((60.0, "bubbled", "no bubbled"), (140.0, "bubbled", "no bubbled"))

    cfg = experiments.ExperimentConfig(
        "lambda-star", {"grid": 129, "tol": 5000.0}, str(tmp_path)
    )
    doc = experiments.run(cfg)
    (run,) = [r for r in doc["runs"] if r["id"] == "lambda-star/bisection"]
    failures = run["failures"]
    assert failures and all(f[1:] == ["bubbled", "no bubbled"] for f in failures)
    assert failures[0][0] == pytest.approx(r2.LAMBDA_STAR_LOWER)
    assert run["unconverged"] == []


def test_unconverged_solves_show_in_the_envelopes(tmp_path, monkeypatch):
    from ldglab import radial2d as r2

    def checks(doc):
        return {c["name"]: c for c in doc["summary"]["checks"]}

    sweep = {"lambda_max": 15.0, "count": 2, "grid": 65}
    doc = experiments.run(experiments.ExperimentConfig("escape-sweep", sweep, str(tmp_path / "a")))
    assert checks(doc)["winning class-S solves converged"]["passed"]

    step = r2._descend

    def unconverged(prof, *args):
        out, it, _ = step(prof, *args)
        return out, it, False

    monkeypatch.setattr(r2, "_descend", unconverged)
    doc = experiments.run(experiments.ExperimentConfig("escape-sweep", sweep, str(tmp_path / "b")))
    check = checks(doc)["winning class-S solves converged"]
    assert not check["passed"] and check["value"] == [0.0, 15.0]
    rows = [r for r in doc["runs"] if r["id"].startswith("sweep/lam=")]
    assert all(r["valid"] and not r["converged"] and r["fine_converged"] is False for r in rows)

    # A small budget keeps the strong-coupling solves short.
    lstar = {"grid": 129, "tol": 5000.0, "max_iters": 300}
    doc = experiments.run(experiments.ExperimentConfig("lambda-star", lstar, str(tmp_path)))
    (run,) = [r for r in doc["runs"] if r["id"] == "lambda-star/bisection"]
    # It records, and checks nothing: the bracket still comes out.
    assert run["failures"] == []
    # The two endpoints have no warm start; every midpoint has one.
    names = [name for _, name in run["unconverged"]]
    assert names[:4] == ["uS", "bubbled"] * 2 and names[4:7] == ["warm", "uS", "bubbled"]
    assert len(names) % 3 == 1
    assert run["unconverged"][0][0] == pytest.approx(r2.LAMBDA_STAR_LOWER)


@pytest.mark.parametrize(
    "setting, message",
    [
        ("max_iters=1.5e3x", "solver option max_iters must be a finite number"),
        ("max_iters=0", "solver options must be positive"),
        ("grad_tol=inf", "tolerance grad_tol must be a positive number, not inf"),
    ],
)
def test_cli_bad_solver_value_is_a_config_error(tmp_path, capsys, setting, message):
    cfg = write_config(tmp_path, "kind = escape-sweep\ngrid = 33\ncount = 3\n")
    rc = cli.main(["run", str(cfg), "--set", setting, "--out", str(tmp_path / "res")])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, setting",
    [
        ("kind = cigar\n", "lambda=-1"),
        ("kind = pancake\n", "lambda=-0.5"),
        ("kind = shape-sweep\n", "lambda=nan"),
        ("kind = escape-sweep\ngrid = 33\n", "lambda_max=-114"),
        ("kind = escape-sweep\ngrid = 33\n", "lambda_max=inf"),
    ],
)
def test_cli_negative_lambda_is_a_config_error(tmp_path, capsys, body, setting):
    cfg = write_config(tmp_path, body)
    rc = cli.main(["run", str(cfg), "--set", setting, "--out", str(tmp_path / "res")])
    assert rc == 2
    key = setting.split("=")[0]
    assert f"error: coupling {key} must be a finite number >= 0" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


#: (The split seed's energy above the torus seed's TIE_ENERGY, the winning
#: seed.)  Energies within descent.ENERGY_TOL relative tie, and a tie goes to
#: the split seed.
TIE_ENERGY = 646.2463257777018
TIES = [
    (0.0, "split-seed"),
    (np.spacing(TIE_ENERGY), "split-seed"),  # 1 ulp above: a tie
    (1e-6, "torus-seed"),
    (-1e-6, "split-seed"),
    (1e-14 * TIE_ENERGY, "split-seed"),  # 1e-14 relative above: a tie
]


def fake_seed_solves(split_gap):
    """A stand-in for m3.minimize_seeds whose split seed ends split_gap above
    the torus seed; a callable split_gap is read at the geometry's ell."""
    from types import SimpleNamespace

    def fake_seeds(geom, lam, seeds, opts):
        gap = split_gap(geom.ell) if callable(split_gap) else split_gap
        energies = {"split-seed": TIE_ENERGY + gap, "torus-seed": TIE_ENERGY}
        classes = {"split-seed": "Split", "torus-seed": "Torus"}
        return {s: SimpleNamespace(seed_name=s, energy=energies[s], classification=classes[s],
                                   converged=True, singularities=[]) for s in seeds}

    return fake_seeds


@pytest.mark.parametrize("split_gap, winner", TIES)
def test_dual_seed_solve_ties_within_the_energy_tolerance(monkeypatch, split_gap, winner):
    from ldglab import descent
    from ldglab import meridian3d as m3

    monkeypatch.setattr(m3, "minimize_seeds", fake_seed_solves(split_gap))
    best, results = experiments._dual_seed_solve(None, 1.0, descent.SolveOptions())
    assert list(results) == list(experiments.SEEDS)
    assert best.seed_name == winner


@pytest.mark.parametrize("split_gap, winner", TIES)
def test_shape_sweep_ties_like_the_dual_seed_solve(tmp_path, monkeypatch, split_gap, winner):
    # Each width's class is its winning seed's, by the cigar and pancake rule.
    from ldglab import meridian3d as m3

    monkeypatch.setattr(m3, "minimize_seeds", fake_seed_solves(split_gap))
    params = {"ells": [1.5], "h": 1.0, "rho": 0.2, "target_h": 0.1}
    doc = experiments.run(experiments.ExperimentConfig("shape-sweep", params, str(tmp_path)))
    (summary,) = [run for run in doc["runs"] if run["id"] == "shape/summary"]
    assert summary["classes"] == [{"split-seed": "Split", "torus-seed": "Torus"}[winner]]


@pytest.mark.parametrize(
    "split_gap, bisected, witness",
    [
        # The split seed ends 4.6% below at ell = 1 and 9.8% above at
        # ell = 2, so neither width is a witness (a gap under 2%): bisect to
        # 1.5 (3.0% above), then to 1.25 (0.8% below), the witness.
        (lambda ell: 100.0 * (ell - 1.3), [1.5, 1.25], 1.25),
        # The torus seed wins at both widths: nothing to bisect.
        (lambda ell: 70.0, [], None),
    ],
)
def test_shape_sweep_bisects_where_the_winner_flips(tmp_path, monkeypatch, split_gap, bisected,
                                                     witness):
    from ldglab import meridian3d as m3

    monkeypatch.setattr(m3, "minimize_seeds", fake_seed_solves(split_gap))
    params = {"ells": [1.0, 2.0], "h": 1.0, "rho": 0.2, "target_h": 0.1}
    doc = experiments.run(experiments.ExperimentConfig("shape-sweep", params, str(tmp_path)))
    runs = {run["id"]: run for run in doc["runs"]}
    assert [(rid, run["ell"]) for rid, run in runs.items() if rid.startswith("shape/bisect")] == [
        (f"shape/bisect-ell={ell:.4f}", ell) for ell in bisected]
    assert runs["shape/coexistence"]["ell"] == witness
    assert doc["summary"]["scalars"]["coexistence_ell"]["value"] == witness
    (check,) = [c for c in doc["summary"]["checks"] if c["name"] == "coexistence witness"]
    assert check["passed"] == (witness is not None)


@pytest.mark.parametrize(
    "body, setting, message",
    [
        ("kind = cigar\n", "target_h=-0.015", "target_h must be a finite number > 0"),
        ("kind = pancake\n", "target_h=0", "target_h must be a finite number > 0"),
        ("kind = shape-sweep\n", "target_h=inf", "target_h must be a finite number > 0"),
        ("kind = escape-sweep\ngrid = 33\n", "count=0", "count must be an integer >= 1"),
        ("kind = escape-sweep\ngrid = 33\n", "count=-3", "count must be an integer >= 1"),
        ("kind = escape-sweep\ngrid = 33\n", "count=2.5", "count must be an integer >= 1"),
        ("kind = shape-sweep\n", "ells=12,0.6,1.5",
         "ells must be strictly increasing, not [12, 0.6, 1.5]"),
        ("kind = shape-sweep\n", "ells=0.6,1.5,1.5",
         "ells must be strictly increasing, not [0.6, 1.5, 1.5]"),
    ],
)
def test_cli_bad_lattice_or_count_is_a_config_error(tmp_path, capsys, body, setting, message):
    cfg = write_config(tmp_path, body)
    rc = cli.main(["run", str(cfg), "--set", setting, "--out", str(tmp_path / "res")])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize(
    "body, setting, message",
    [
        ("kind = shape-sweep\n", "ells=0,1.5", "ells must be a finite number > 0, not 0"),
        ("kind = shape-sweep\n", "ells=,", "ells must list at least one value"),
        ("kind = shape-sweep\n", "ells=1.5,0.3", "need h, ell > 0 and 0 < 2 rho < min(h, ell)"),
        ("kind = cigar\n", "rho=-0.2", "rho must be a finite number > 0, not -0.2"),
        ("kind = cigar\n", "h=inf", "h must be a finite number > 0, not inf"),
        ("kind = cigar\n", "ell=0.4", "need h, ell > 0 and 0 < 2 rho < min(h, ell)"),
        ("kind = cigar\n", "h=1,2", "h takes one value, not [1, 2]"),
        ("kind = pancake\n", "ell_small=0.3", "need h, ell > 0 and 0 < 2 rho < min(h, ell)"),
        ("kind = pancake\n", "ell_small=nan", "ell_small must be a finite number > 0, not nan"),
    ],
)
def test_cli_bad_geometry_is_a_config_error(tmp_path, capsys, body, setting, message):
    cfg = write_config(tmp_path, body)
    rc = cli.main(["run", str(cfg), "--set", setting, "--out", str(tmp_path / "res")])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_unset_geometry_keys_take_the_kinds_cylinder():
    cfg = experiments.ExperimentConfig("pancake", {"h": 1.0}, "out")
    assert [cfg.get(key) for key in ("h", "ell", "ell_small", "rho", "target_h")] == [
        1.0, 12.0, 6.0, 0.2, 0.025]
    assert experiments.ExperimentConfig("cigar", {}, "out").get("ell") == 0.6
    assert experiments.ExperimentConfig("shape-sweep", {}, "out").get("ells")[-1] == 12.0
    with pytest.raises(KeyError):
        experiments.ExperimentConfig("gap-2d", {}, "out").get("h")


@pytest.mark.parametrize(
    "body, setting, message",
    [
        ("kind = gap-2d\n", "grid=1025.7", "grid must be an integer >= 5, not 1025.7"),
        ("kind = gap-2d\n", "grid=abc", "grid must be an integer >= 5, not 'abc'"),
        ("kind = gap-2d\n", "grid=3", "grid must be an integer >= 5, not 3"),
        ("kind = verify-closed-forms\n", "grid=8", "grid must be an integer >= 9, not 8"),
        ("kind = verify-closed-forms\n", "conformality_grid=8",
         "conformality_grid must be an integer >= 9, not 8"),
        ("kind = gap-2d\n", "seed=2.5", "seed must be an integer >= 0, not 2.5"),
        ("kind = gap-2d\n", "seed=-1", "seed must be an integer >= 0, not -1"),
        ("kind = shape-sweep\n", "workers=0", "workers must be an integer >= 1, not 0"),
        ("kind = gap-2d\n", "noise=-1", "noise must be a finite number >= 0, not -1"),
        ("kind = gap-2d\n", "noise=nan", "noise must be a finite number >= 0, not nan"),
        ("kind = lambda-star\n", "tol=inf", "tolerance tol must be a positive number, not inf"),
        # The sweep is always `count` values from 0 to `lambda_max`: a lambdas
        # list, sorted or not, with or without those keys, is an unknown key.
        ("kind = escape-sweep\n", "lambdas=10,5", "escape-sweep reads no key 'lambdas'"),
        ("kind = escape-sweep\nlambda_max = 50\n", "lambdas=0,5",
         "escape-sweep reads no key 'lambdas'"),
        ("kind = escape-sweep\ncount = 7\n", "lambdas=0,5", "escape-sweep reads no key 'lambdas'"),
    ],
)
def test_cli_bad_size_seed_or_noise_is_a_config_error(tmp_path, capsys, body, setting, message):
    cfg = write_config(tmp_path, body)
    rc = cli.main(["run", str(cfg), "--set", setting, "--out", str(tmp_path / "res")])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_scalar_ells_is_a_one_point_shape_sweep(tmp_path):
    params = {"ells": 1.5, "h": 1.0, "rho": 0.2, "target_h": 0.1, "max_iters": 100}
    cfg = experiments.ExperimentConfig("shape-sweep", params, str(tmp_path))
    assert cfg.params["ells"] == [1.5]
    doc = experiments.run(cfg)
    assert [run["id"] for run in doc["runs"]][0] == "shape/ell=1.5"


def test_importing_experiments_leaves_multiprocessing_out():
    # The process pool is imported only by a shape sweep with workers > 1.
    src = str(Path(experiments.__file__).resolve().parents[1])
    code = ("import sys, ldglab.experiments; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_the_shape_sweep_pool_has_at_most_one_spawned_worker_per_point(tmp_path, monkeypatch):
    import concurrent.futures

    opened = []

    class RecordingPool:
        """Records how the pool is opened and maps in this process."""

        def __init__(self, max_workers, mp_context):
            opened.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    params = {"ells": [1.0, 1.5], "h": 1.0, "rho": 0.2, "target_h": 0.1, "max_iters": 100,
              "workers": 64}
    experiments.run(experiments.ExperimentConfig("shape-sweep", params, str(tmp_path)))
    assert opened == [(2, "spawn")]


def test_a_shape_sweep_with_two_workers_matches_the_serial_one(tmp_path):
    params = {"ells": [1.5], "h": 1.0, "rho": 0.2, "target_h": 0.1, "max_iters": 100}
    docs = [experiments.run(experiments.ExperimentConfig(
                "shape-sweep", {**params, "workers": workers}, str(tmp_path / str(workers))))
            for workers in (1, 2)]
    serial, pooled = ([run for run in doc["runs"] if run["id"].startswith("shape/")]
                      for doc in docs)
    assert serial and pooled == serial
