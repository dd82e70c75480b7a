"""Canned experiments: configs, runs, envelopes, and reports.

Each experiment kind composes the library modules into a reproducible
batch run: it writes CSV artifacts plus a JSON result envelope whose
summary scalars each name the run they came from.  Envelopes are
deterministic for a fixed (config, seed); wall-clock times live in a
separate "timing" field so the rest of the document is byte-stable.

Kinds: verify-closed-forms, gap-2d, escape-sweep, lambda-star, cigar,
pancake, shape-sweep.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import closed_forms as cf
from . import meridian3d as m3
from . import radial2d as r2
from .descent import ENERGY_TOL
from .profiles import RadialProfile, profile_from_map, uniform_grid, write_csv

VERSION = "artifact-0.1.0"

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
SIX_PI = 6.0 * math.pi
TEN_PI = 10.0 * math.pi


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    output_dir: str
    # Every key the kind reads, with its default.
    defaults: dict = field(init=False, repr=False, compare=False)
    # The solver options built from `params` when the config is made, so a
    # bad solver value is a config error and not a solver failure.
    opts: r2.SolveOptions = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        self.defaults = {**_SHARED, **_RUNNERS[self.kind][1]}
        params = dict(self.params)
        for key, val in self.params.items():
            if key not in self.defaults:
                raise ValueError(f"{self.kind} reads no key {key!r}; it reads "
                                 + ", ".join(sorted(self.defaults)))
            values = val if isinstance(val, list) else [val]
            if key in _LIST_KEYS:
                if not values:
                    raise ValueError(f"{key} must list at least one value")
                params[key] = values  # a list key given one value is a one-element list
            elif isinstance(val, list):
                raise ValueError(f"{key} takes one value, not {val!r}")
            if key != "max_iters":  # SolveOptions checks it
                test, message = _RULES.get((self.kind, key), _RULES[key])
                for v in values:
                    if not test(v):
                        raise ValueError(message.format(key=key, val=v))
        self.params = params
        # Every width of the kind's cylinder must fit its h and rho.
        for key in ("ell", "ell_small", "ells"):
            if key in self.defaults:
                for ell in self.get(key) if key == "ells" else [self.get(key)]:
                    m3.check_shape(self.get("h"), ell, self.get("rho"))
        # The shape-sweep checks read the first and last widths as the
        # smallest and largest, and bracket neighbouring widths.
        ells = params.get("ells", [])
        if any(b <= a for a, b in zip(ells, ells[1:])):
            raise ValueError(f"ells must be strictly increasing, not {ells!r}")
        self.opts = r2.SolveOptions(**{key: self.get(key) for key in _SOLVER_KEYS})

    def get(self, key):
        """A parameter, else the kind's default; KeyError for a key the kind
        does not read."""
        return self.params[key] if key in self.params else self.defaults[key]


#: The keys that hold a list of values.
_LIST_KEYS = ("ells",)

#: The keys every kind reads: the two solver options, with the defaults of
#: `SolveOptions`, and `seed` and `workers`, which perfbench/child.py passes
#: to every workload.
_SOLVER_KEYS = ("max_iters", "grad_tol")
_SHARED = {**{key: getattr(r2.SolveOptions, key) for key in _SOLVER_KEYS}, "seed": 0, "workers": 1}


def _finite(val) -> bool:
    """Whether a config value is a finite int or float (not a bool)."""
    return not isinstance(val, bool) and isinstance(val, (int, float)) and math.isfinite(val)


def _integer(least):
    """The rule of an integer key whose routine needs a value >= `least`."""
    return (lambda val: not isinstance(val, bool) and isinstance(val, int) and val >= least,
            f"{{key}} must be an integer >= {least}, not {{val!r}}")


def _at_least_zero(val) -> bool:
    return _finite(val) and val >= 0


_TOLERANCE = (lambda val: _finite(val) and val > 0,
              "tolerance {key} must be a positive number, not {val!r}")
_COUPLING = (_at_least_zero, "coupling {key} must be a finite number >= 0, not {val!r}")
_LENGTH = (lambda val: _finite(val) and val > 0, "{key} must be a finite number > 0, not {val!r}")

#: The rule of each checked key, (test, message): every value of the key
#: must pass the test.  A (kind, key) entry overrides the key's own rule.
#: The sizes are the least that their routines accept: `uniform_grid` needs
#: 5 nodes and `isotropy_residual` 9, and verify-closed-forms also solves on
#: (grid - 1) // 2 + 1 nodes.
_RULES = {
    "tol": _TOLERANCE, "grad_tol": _TOLERANCE,
    "lambda": _COUPLING, "lambda_max": _COUPLING,
    "noise": (_at_least_zero, "noise must be a finite number >= 0, not {val!r}"),
    "h": _LENGTH, "ell": _LENGTH, "rho": _LENGTH, "ell_small": _LENGTH, "ells": _LENGTH,
    "target_h": _LENGTH,
    "grid": _integer(5), ("verify-closed-forms", "grid"): _integer(9),
    "conformality_grid": _integer(9), "count": _integer(1), "seed": _integer(0),
    "workers": _integer(1),
}


def parse_config_file(path, overrides=None) -> ExperimentConfig:
    """Flat `key = value` text file; '#' comments; CLI overrides win."""
    params: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        params[key] = _parse_value(val)
    params.update(overrides or {})
    kind = params.pop("kind", None)
    if kind is None:
        raise ValueError("config must set `kind`")
    out = params.pop("out", None) or os.environ.get("LDGLAB_OUT", "results")
    return ExperimentConfig(kind=str(kind), params=params, output_dir=str(out))


def _parse_value(val: str):
    if "," in val:
        return [_parse_value(v.strip()) for v in val.split(",") if v.strip()]
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            continue
    return val


# ---------------------------------------------------------------------------
# Envelope plumbing.
# ---------------------------------------------------------------------------


class _Envelope:
    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.runs: list[dict] = []
        self.checks: list[dict] = []
        self.scalars: dict[str, dict] = {}
        self.artifacts: dict[str, str] = {}
        self._t0 = time.time()

    def add_run(self, run_id: str, payload: dict) -> str:
        self.runs.append({"id": run_id, **payload})
        return run_id

    def scalar(self, name: str, value, run_id: str):
        self.scalars[name] = {"value": value, "run_id": run_id}

    def check(self, name: str, value, target: str, passed: bool, run_id: str):
        self.checks.append(
            {
                "name": name,
                "value": value,
                "target": target,
                "passed": bool(passed),
                "run_id": run_id,
            }
        )

    def artifact(self, name: str, path: Path):
        self.artifacts[name] = str(path)

    def finish(self, out_dir: Path) -> dict:
        doc = {
            "config": {
                "kind": self.config.kind,
                "params": self.config.params,
                "output_dir": self.config.output_dir,
            },
            "version": VERSION,
            "runs": self.runs,
            "summary": {
                "scalars": self.scalars,
                "checks": self.checks,
                "all_passed": all(c["passed"] for c in self.checks),
            },
            "artifacts": self.artifacts,
            "timing": {"wall_seconds": time.time() - self._t0},
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{self.config.kind}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        return doc


#: The fields of a 2D or 3D minimizer result that every run record holds.
_RESULT_KEYS = ("energy", "dirichlet", "potential", "residual", "iterations",
                "beta_min", "beta_max", "converged")


def _report_2d(res: r2.MinResult2D) -> dict:
    return {**{key: getattr(res, key) for key in _RESULT_KEYS},
            "class": res.class_tag, "escaped": res.escaped,
            "classification": None, "singularities": []}


def _report_3d(res: m3.MinResult3D) -> dict:
    return {**{key: getattr(res, key) for key in _RESULT_KEYS},
            "classification": res.classification, "seed": res.seed_name,
            "singularities": [{"position": s.position, "jump": list(s.jump)}
                              for s in res.singularities]}


# ---------------------------------------------------------------------------
# Experiment bodies.
# ---------------------------------------------------------------------------


def _run_verify_closed_forms(config: ExperimentConfig, env: _Envelope, out_dir: Path):
    n = config.get("grid")
    grid = uniform_grid(n)
    mu_list = [0.0, 1.0, math.sqrt(3.0), 5.0, 10.0 + 10.0j]

    p_us = profile_from_map(cf.small_solution_us, grid)
    e_us = r2.radial_energy(p_us, 0.0)[0]
    rid = env.add_run("closed/uS", {"energy": e_us})
    env.check("uS dirichlet energy = 2pi", e_us, "2pi +- 1e-3", abs(e_us - TWO_PI) < 1e-3, rid)

    # Richardson confirmation of O(h^2) for the uS quadrature.
    e_c = r2.radial_energy(profile_from_map(cf.small_solution_us, uniform_grid((n - 1) // 2 + 1)), 0.0)[0]
    ratio = abs(e_c - TWO_PI) / max(abs(e_us - TWO_PI), 1e-300)
    env.check("uS quadrature O(h^2)", ratio, "coarse/fine error ratio in [3, 5]", 3.0 < ratio < 5.0, rid)

    for mu in mu_list:
        p = profile_from_map(lambda z: cf.large_solution(mu, z), grid)
        e = r2.radial_energy(p, 0.0)[0]
        rid = env.add_run(f"closed/large-mu={mu}", {"energy": e})
        env.check(
            f"large solution (mu1={mu}) energy = 6pi", e, "6pi +- 1e-3",
            abs(e - SIX_PI) < 1e-3, rid,
        )

    pot = r2.radial_energy(p_us, 1.0)[2]  # the disc integral of W
    exact = -math.sqrt(6.0) / 4.0 * math.pi + math.sqrt(2.0) / 6.0 * math.pi**2
    rid = env.add_run("closed/uS-potential", {"value": pot, "exact": exact})
    env.check("uS potential integral", pot, f"{exact:.6f} +- 1e-4", abs(pot - exact) < 1e-4, rid)

    radius = 100.0
    e_bub = cf.bubble_energy(radius)
    # The exact disc-truncated value is 4 pi R^2/(1+R^2).
    e_trunc = FOUR_PI * radius**2 / (1.0 + radius**2)
    rid = env.add_run("closed/bubble", {"energy": e_bub, "exact_truncated": e_trunc})
    env.check(
        "bubble quadrature vs exact truncation", e_bub, "+- 1e-4",
        abs(e_bub - e_trunc) < 1e-4, rid,
    )
    env.check(
        "bubble energy tends to 4pi", e_bub, "4pi +- 2e-3",
        abs(e_bub - FOUR_PI) < 2e-3, rid,
    )

    for rho in (0.5, 1.0, 2.0):
        v = cf.tangent_map_scaled_energy(rho)
        rid = env.add_run(f"closed/tangent-rho={rho}", {"scaled_energy": v})
        env.check(
            f"tangent map scaled energy (rho={rho})", v, "4pi +- 1e-2",
            abs(v - FOUR_PI) < 1e-2, rid,
        )

    n2 = config.get("conformality_grid")
    for mu in (0.0, 1.0, math.sqrt(3.0), 1.7 + 0.3j):
        fmap = lambda z: cf.large_solution(mu, z)
        c = cf.conformality_residual(fmap, n2)
        iso = cf.isotropy_residual(fmap, n2)
        rid = env.add_run(f"closed/conf-mu={mu}", {"conformality": c, "isotropy": iso})
        env.check(f"conformality (mu1={mu})", c, "< 1e-4", c < 1e-4, rid)
        env.check(f"isotropy (mu1={mu})", iso, "< 1e-4", iso < 1e-4, rid)

    control = lambda z: (np.cos(z.real), np.sin(z.real).astype(complex), np.zeros_like(z))
    c = cf.conformality_residual(control, n2)
    rid = env.add_run("closed/nonconformal-control", {"conformality": c})
    env.check("non-conformal control", c, "> 1e-1", c > 1e-1, rid)


def _run_gap_2d(config: ExperimentConfig, env: _Envelope, out_dir: Path):
    n, noise, seed = (config.get(key) for key in ("grid", "noise", "seed"))
    opts = config.opts
    grid = uniform_grid(n)

    res_s = r2.minimize_2d(0.0, "S", r2.preset_profile("uS", grid, noise=noise, seed=seed), opts)
    rid_s = env.add_run("gap2d/classS", _report_2d(res_s))
    # Class N carries a flat direction (the mu1 family) at lambda = 0, so the
    # perturbation must stay small for the flow to settle near g_hbar itself.
    res_n = r2.minimize_2d(
        0.0, "N", r2.preset_profile("ghbar", grid, noise=noise / 5.0, seed=seed + 1), opts
    )
    rid_n = env.add_run("gap2d/classN", _report_2d(res_n))

    env.scalar("classS", res_s.energy, rid_s)
    env.scalar("classN", res_n.energy, rid_n)
    env.scalar("gap", res_n.energy - res_s.energy, rid_n)
    env.check("class-S minimum = 2pi", res_s.energy, "2pi +- 5e-3", abs(res_s.energy - TWO_PI) < 5e-3, rid_s)
    env.check("class-N minimum = 6pi", res_n.energy, "6pi +- 5e-3", abs(res_n.energy - SIX_PI) < 5e-3, rid_n)
    env.check(
        "gap = 4pi", res_n.energy - res_s.energy, "4pi +- 1e-2",
        abs(res_n.energy - res_s.energy - FOUR_PI) < 1e-2, rid_n,
    )
    p_us = profile_from_map(cf.small_solution_us, grid)
    env.check(
        "class-S profile matches uS", res_s.profile.max_norm_distance(p_us),
        "< 1e-2", res_s.profile.max_norm_distance(p_us) < 1e-2, rid_s,
    )
    gh = profile_from_map(cf.g_hbar, grid)
    gh_neg = profile_from_map(lambda z: cf.g_hbar(-z), grid)
    dist = min(res_n.profile.max_norm_distance(gh), res_n.profile.max_norm_distance(gh_neg))
    env.check("class-N profile matches g_hbar(+/-z)", dist, "< 2e-2", dist < 2e-2, rid_n)

    res_s.profile.to_csv(out_dir / "gap2d_classS_profile.csv")
    res_n.profile.to_csv(out_dir / "gap2d_classN_profile.csv")
    env.artifact("classS_profile", out_dir / "gap2d_classS_profile.csv")
    env.artifact("classN_profile", out_dir / "gap2d_classN_profile.csv")


def _run_escape_sweep(config: ExperimentConfig, env: _Envelope, out_dir: Path):
    lambdas = np.linspace(0.0, config.get("lambda_max"), config.get("count"))
    rows = r2.energy_curve(lambdas, config.opts, n=config.get("grid"))

    csv_path = out_dir / "escape_sweep.csv"
    cells = [(row.lam, row.estar, row.e, row.beta_min, row.beta_max) for row in rows]
    write_csv(csv_path, ("lambda", "estar", "e", "beta_min", "beta_max"), zip(*cells))
    env.artifact("sweep_csv", csv_path)

    for row in rows:
        env.add_run(
            f"sweep/lam={row.lam:g}",
            {
                "lambda": row.lam,
                "estar": row.estar,
                "e": row.e,
                "beta_min": row.beta_min,
                "beta_max": row.beta_max,
                "global_class": row.global_class,
                "valid": row.valid,
                "failures": [list(f) for f in row.failures],
                "converged": row.converged,
                "fine_converged": row.fine_converged,
            },
        )
    est = np.array([row.estar for row in rows])
    valid = all(row.valid for row in rows)
    rid = "sweep/all"
    env.add_run(rid, {"count": len(rows)})
    env.check("all rows valid", valid, "True", valid, rid)
    slow = [float(row.lam) for row in rows
            if row.valid and not (row.converged and row.fine_converged)]
    env.check("winning class-S solves converged", slow, "none unconverged", not slow, rid)
    if len(rows) >= 2:
        env.check(
            "e* nondecreasing", float(np.min(np.diff(est))), ">= -5e-3",
            bool(np.all(np.diff(est) >= -5e-3)), rid,
        )
    env.check(
        "e* within [2pi, 10pi]", (float(est.min()), float(est.max())),
        "within [2pi-5e-3, 10pi+5e-3]",
        bool(est.min() >= TWO_PI - 5e-3 and est.max() <= TEN_PI + 5e-3), rid,
    )
    dlam = np.diff([row.lam for row in rows])
    if len(rows) >= 3 and np.allclose(dlam, dlam[0]):
        d2 = est[:-2] - 2.0 * est[1:-1] + est[2:]
        env.check("e* concavity (second differences)", float(np.max(d2)), "<= 1e-3",
                  bool(np.max(d2) <= 1e-3), rid)
    e_rule = np.array([min(SIX_PI, row.estar) for row in rows])
    e_val = np.array([row.e for row in rows])
    env.check(
        "e = min(6pi, e*)", float(np.max(np.abs(e_rule - e_val))), "within 5e-3",
        bool(np.max(np.abs(e_rule - e_val)) <= 5e-3), rid,
    )


def _run_lambda_star(config: ExperimentConfig, env: _Envelope, out_dir: Path):
    tol, n = config.get("tol"), config.get("grid")
    opts = config.opts
    est = r2.estimate_lambda_star(tol=tol, opts=opts, n=n)
    lo, hi, pt = est
    rid = env.add_run(
        "lambda-star/bisection",
        {
            "lo": lo, "hi": hi, "point": pt,
            "failures": [list(f) for f in est.failures],
            "unconverged": [list(u) for u in est.unconverged],
        },
    )
    env.scalar("lambda_star_lo", lo, rid)
    env.scalar("lambda_star_hi", hi, rid)
    env.scalar("lambda_star", pt, rid)
    env.check("interval width", hi - lo, f"<= {tol}", hi - lo <= tol, rid)
    env.check(
        "inside certified bracket", (lo, hi),
        "within [24 sqrt2/(2pi-3 sqrt3), 3^8 sqrt6 pi^2/4]",
        r2.LAMBDA_STAR_LOWER <= lo and hi <= r2.LAMBDA_STAR_UPPER, rid,
    )

    margin = 5.0
    below = max(lo - margin, 0.5 * lo)
    res_b = r2.minimize_2d(below, "S", "uS", opts, grid=uniform_grid(n))
    rid_b = env.add_run("lambda-star/below", _report_2d(res_b))
    env.check(
        "below threshold: biaxial escape", (res_b.beta_min, res_b.beta_max),
        "beta range [-1+2e-2, 1]",
        res_b.energy < SIX_PI and res_b.beta_min <= -1 + 2e-2 and res_b.beta_max >= 1 - 2e-2,
        rid_b,
    )
    above = hi + margin
    res_s = r2.minimize_2d(above, "S", "uS", opts, grid=uniform_grid(n))
    res_n = r2.minimize_2d(above, "N", "ghbar", opts, grid=uniform_grid(n))
    rid_a = env.add_run("lambda-star/above-N", _report_2d(res_n))
    env.add_run("lambda-star/above-S", _report_2d(res_s))
    glob = res_n if res_n.energy <= res_s.energy else res_s
    env.check(
        "above threshold: uniaxial minimizer", glob.potential,
        "global class N with potential <= 1e-6",
        glob.class_tag == "N" and glob.potential <= 1e-6, rid_a,
    )


SEEDS = ("split-seed", "torus-seed")


def _winner(energies: dict) -> str:
    """The seed of the lowest of `energies` ({seed: energy}).  Energies that
    agree to the descent's own resolution tie, and a tie goes to the first
    seed in the dict's order (SEEDS order: the split seed)."""
    low = min(energies.values())
    return next(seed for seed, e in energies.items()
                if e - low <= ENERGY_TOL * max(1.0, abs(low)))


def _dual_seed_solve(geom, lam, opts):
    results = m3.minimize_seeds(geom, lam, SEEDS, opts)
    return results[_winner({seed: res.energy for seed, res in results.items()})], results


def _write_field(env: _Envelope, stem: Path, fld: m3.MeridianField):
    """Write a 3D field as `<stem>.csv` and `<stem>.npz` and record both."""
    csv_path, npz_path = stem.with_suffix(".csv"), stem.with_suffix(".npz")
    fld.to_csv(csv_path)
    env.artifact("field_csv", csv_path)
    fld.save(npz_path)
    env.artifact("field_npz", npz_path)


def _run_cigar(config: ExperimentConfig, env: _Envelope, out_dir: Path):
    h, ell, rho, th = (config.get(key) for key in ("h", "ell", "rho", "target_h"))
    lam = config.get("lambda")
    opts = config.opts
    geom = m3.build_geometry(h, ell, rho, target_h=th)
    best, results = _dual_seed_solve(geom, lam, opts)
    for seed, res in results.items():
        env.add_run(f"cigar/{seed}", _report_3d(res))
    rid = f"cigar/{best.seed_name}"
    env.scalar("energy", best.energy, rid)
    env.check("classification Split", best.classification, "Split", best.classification == "Split", rid)
    n_up = sum(1 for s in best.singularities if s.position > 0)
    n_dn = sum(1 for s in best.singularities if s.position < 0)
    env.check(
        "axis parity", (n_dn, n_up), "odd count per half, even total",
        n_up % 2 == 1 and n_dn % 2 == 1 and (n_up + n_dn) % 2 == 0, rid,
    )
    env.check(
        "beta range [-1, 1]", (best.beta_min, best.beta_max), "within 2e-2",
        best.beta_min <= -1 + 2e-2 and best.beta_max >= 1 - 2e-2, rid,
    )

    lam2d = lam * ell**2
    res2d = r2.minimize_2d(lam2d, "S", "uS", opts, grid=uniform_grid(1025))
    i_mid = geom.nz // 2
    prof3 = RadialProfile(
        geom.r / geom.ell, best.field.f0[i_mid], best.field.f1[i_mid], best.field.f2[i_mid]
    )
    dist = prof3.max_norm_distance(res2d.profile)
    env.add_run("cigar/2d-reference", _report_2d(res2d))
    env.check("midplane slice matches 2D minimizer", dist, "< 3e-2", dist < 3e-2, rid)

    ids = m3.energy_identity_residuals(best.field, lam)
    env.add_run("cigar/identities", ids)
    env.check(
        "vertical energy identity", ids["vertical"], "< 5e-2",
        ids["vertical"] == ids["vertical"] and ids["vertical"] < 5e-2, rid,
    )
    _write_field(env, out_dir / "cigar_field", best.field)


def _run_pancake(config: ExperimentConfig, env: _Envelope, out_dir: Path):
    h, ell, rho, th = (config.get(key) for key in ("h", "ell", "rho", "target_h"))
    lam, ell_small = config.get("lambda"), config.get("ell_small")
    opts = config.opts
    geom = m3.build_geometry(h, ell, rho, target_h=th)
    geom_s = m3.build_geometry(h, ell_small, rho, target_h=th)
    best, results = _dual_seed_solve(geom, lam, opts)
    for seed, res in results.items():
        env.add_run(f"pancake/{seed}", _report_3d(res))
    rid = f"pancake/{best.seed_name}"
    env.scalar("energy", best.energy, rid)
    env.check("classification Torus", best.classification, "Torus", best.classification == "Torus", rid)
    env.check("no singularities", len(best.singularities), "0", len(best.singularities) == 0, rid)
    cls, _, ring = m3.classify(best.field)
    env.add_run("pancake/ring", {"ring": ring})
    env.check("deep biaxiality ring off-axis", ring, "present", ring is not None, rid)

    # Interior decay: E(C^h_{ell/2})/ell halves from ell/2-run to ell-run.
    e_half = m3.energy_in_cylinder(best.field, lam, ell / 2.0, h)
    env.scalar("interior_ratio", e_half / ell, rid)
    best_s, _ = _dual_seed_solve(geom_s, lam, opts)
    env.add_run("pancake/small", _report_3d(best_s))
    e_half_s = m3.energy_in_cylinder(best_s.field, lam, ell_small / 2.0, h)
    env.scalar("interior_ratio_small", e_half_s / ell_small, "pancake/small")
    r_big = e_half / ell
    r_small = e_half_s / ell_small
    # Both ratios collapse to quadrature noise once the bulk is vacuum.
    decay_ok = r_big < 0.5 * r_small or (r_big < 1e-8 and r_small < 1e-8)
    env.check(
        "interior decay", (r_big, r_small),
        "ratio at ell below half of ratio at ell_small",
        decay_ok, rid,
    )
    radii = np.linspace(h * 1.05, ell - rho, 40)
    mono = m3.radial_monotonicity(best.field, lam, radii)
    env.add_run("pancake/monotonicity", {"radii": list(radii), "values": list(mono)})
    env.check(
        "ball-energy monotonicity", float(np.min(np.diff(mono))), ">= -1e-3",
        bool(np.all(np.diff(mono) >= -1e-3)), rid,
    )
    _write_field(env, out_dir / "pancake_field", best.field)


def _shape_point(args):
    ell, h, rho, lam, th, opts = args
    geom = m3.build_geometry(h, ell, rho, target_h=th)
    out = {
        seed: {
            "energy": res.energy,
            "classification": res.classification,
            "converged": res.converged,
            "n_sing": len(res.singularities),
        }
        for seed, res in m3.minimize_seeds(geom, lam, SEEDS, opts).items()
    }
    return ell, out


def _run_shape_sweep(config: ExperimentConfig, env: _Envelope, out_dir: Path):
    h, rho, th, ells = (config.get(key) for key in ("h", "rho", "target_h", "ells"))
    lam, workers = config.get("lambda"), config.get("workers")
    opts = config.opts

    tasks = [(ell, h, rho, lam, th, opts) for ell in ells]
    if workers > 1:
        # Imported here: it pulls in multiprocessing, which nothing else needs.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawn, not fork: the parent may hold BLAS threads.
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                 mp_context=multiprocessing.get_context("spawn")) as ex:
            points = dict(ex.map(_shape_point, tasks))
    else:
        points = dict(map(_shape_point, tasks))

    rows = []
    for ell in ells:
        data = points[ell]
        rid = env.add_run(f"shape/ell={ell:g}", {"ell": ell, **data})
        rows.append((ell, data))

    classes = [d[_winner({seed: v["energy"] for seed, v in d.items()})]["classification"]
               for _, d in rows]
    first_torus = next((e for (e, d), c in zip(rows, classes) if c == "Torus"), None)
    last_split = next(
        (e for (e, d), c in reversed(list(zip(rows, classes))) if c == "Split"), None
    )
    rid = "shape/summary"
    env.add_run(rid, {"classes": classes})
    env.scalar("ell_first_torus", first_torus, rid)
    env.scalar("ell_last_split", last_split, rid)
    env.check(
        "split regime at small ell", classes[0], "Split", classes[0] == "Split", rid
    )
    env.check(
        "torus regime at large ell", classes[-1], "Torus", classes[-1] == "Torus", rid
    )

    # Coexistence witness: both seeds stationary with opposite classes and
    # energies within 2%; refine by bisection on the energy difference.
    witness = _find_coexistence(rows, h, rho, lam, th, opts, env)
    env.scalar("coexistence_ell", witness, "shape/coexistence")
    env.check("coexistence witness", witness, "exists", witness is not None, rid)


def _seed_pair_gap(data):
    es = data["split-seed"]
    et = data["torus-seed"]
    opposite = (
        es["classification"] == "Split"
        and et["classification"] == "Torus"
    )
    gap = abs(es["energy"] - et["energy"]) / max(es["energy"], et["energy"])
    return opposite, gap, es["energy"] - et["energy"]


def _find_coexistence(rows, h, rho, lam, th, opts, env):
    for ell, data in rows:
        opposite, gap, _ = _seed_pair_gap(data)
        if opposite and gap < 0.02:
            env.add_run("shape/coexistence", {"ell": ell, "gap": gap})
            return ell
    # Bisect on the signed energy difference where the winner flips.
    bracket = None
    for (e1, d1), (e2, d2) in zip(rows[:-1], rows[1:]):
        o1, _, s1 = _seed_pair_gap(d1)
        o2, _, s2 = _seed_pair_gap(d2)
        if o1 and o2 and s1 * s2 < 0:
            bracket = (e1, e2, s1)
            break
    if bracket is None:
        env.add_run("shape/coexistence", {"ell": None})
        return None
    lo, hi, s_lo = bracket
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        _, data = _shape_point((mid, h, rho, lam, th, opts))
        opposite, gap, s_mid = _seed_pair_gap(data)
        env.add_run(f"shape/bisect-ell={mid:.4f}", {"ell": mid, **data})
        if opposite and gap < 0.02:
            env.add_run("shape/coexistence", {"ell": mid, "gap": gap})
            return mid
        if not opposite:
            break
        if s_mid * s_lo > 0:
            lo = mid
        else:
            hi = mid
    env.add_run("shape/coexistence", {"ell": None})
    return None


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


#: Each kind's body, called as body(config, env, out_dir), and the keys it
#: reads besides the `_SHARED` ones, with their defaults.  A 3D kind's
#: defaults are its cylinder; escape-sweep sweeps `count` values from 0 to
#: `lambda_max`.
_RUNNERS = {
    "verify-closed-forms": (_run_verify_closed_forms, {"grid": 2049, "conformality_grid": 257}),
    "gap-2d": (_run_gap_2d, {"grid": 2049, "noise": 0.01}),
    "escape-sweep": (_run_escape_sweep, {
        "grid": 1025, "lambda_max": 114.0, "count": 20,
    }),
    "lambda-star": (_run_lambda_star, {"grid": 1025, "tol": 0.5}),
    "cigar": (_run_cigar, {"h": 8.0, "ell": 0.6, "rho": 0.2, "target_h": 0.015, "lambda": 1.0}),
    "pancake": (_run_pancake, {
        "h": 0.8, "ell": 12.0, "ell_small": 6.0, "rho": 0.2, "target_h": 0.025, "lambda": 1.0,
    }),
    "shape-sweep": (_run_shape_sweep, {
        "h": 2.0, "rho": 0.2, "target_h": 0.04, "lambda": 1.0,
        "ells": (0.6, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 9.0, 12.0),
    }),
}
KINDS = tuple(_RUNNERS)


def run(config: ExperimentConfig) -> dict:
    """Execute an experiment; writes artifacts and returns the envelope."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = _Envelope(config)
    _RUNNERS[config.kind][0](config, env, out_dir)
    return env.finish(out_dir)


def report(envelope_paths) -> str:
    """Markdown summary table across envelopes.

    A path that cannot be read, or that holds no envelope (`_is_envelope`),
    gets one row that marks it unavailable.

    When two envelopes of the same kind differ only in their grid (sizes n
    and 2n-1), a Richardson-extrapolated row is appended for every shared
    summary scalar (the solvers are second order in the grid spacing).
    """
    if not envelope_paths:
        raise ValueError("no envelopes given")
    lines = ["| experiment | check | value | target | pass |", "|---|---|---|---|---|"]
    docs = []
    for path in envelope_paths:
        try:
            doc = json.loads(Path(path).read_text())
        # ValueError: malformed JSON, or bytes that are not UTF-8.
        except (OSError, ValueError):
            doc = None
        if not _is_envelope(doc):
            lines.append(f"| {path} | unavailable | - | - | - |")
            continue
        docs.append(doc)
        kind = doc["config"]["kind"]
        for chk in doc["summary"]["checks"]:
            lines.append(
                "| {} | {} | {} | {} | {} |".format(
                    kind,
                    chk["name"],
                    _fmt(chk["value"]),
                    chk["target"],
                    "yes" if chk["passed"] else "NO",
                )
            )
        arts = doc["artifacts"]
        if arts:
            lines.append(f"| {kind} | artifacts | {'; '.join(map(str, arts.values()))} |  |  |")
    lines.extend(_richardson_rows(docs))
    return "\n".join(lines) + "\n"


def _is_envelope(doc) -> bool:
    """Whether a parsed JSON document has the parts of an envelope
    (`_Envelope.finish`) that `report` reads."""
    try:
        config, summary = doc["config"], doc["summary"]
        return (isinstance(config["kind"], str) and isinstance(config["params"], dict)
                and isinstance(doc["artifacts"], dict)
                and all(isinstance(s, dict) and "value" in s for s in summary["scalars"].values())
                and all(isinstance(c, dict) and {"name", "value", "target", "passed"} <= c.keys()
                        for c in summary["checks"]))
    except (TypeError, KeyError, AttributeError):
        return False


def _richardson_rows(docs) -> list[str]:
    """Richardson-extrapolated rows for same-kind envelopes at grids n and
    2n-1 (`report`)."""
    by_kind: dict[str, list[dict]] = {}
    for doc in docs:
        by_kind.setdefault(doc["config"]["kind"], []).append(doc)
    rows = []
    for kind, group in by_kind.items():
        if len(group) < 2:
            continue
        group = sorted(group, key=lambda d: d["config"]["params"].get("grid", 0))
        coarse, fine = group[0], group[-1]
        gc = coarse["config"]["params"].get("grid")
        gf = fine["config"]["params"].get("grid")
        if not (isinstance(gc, int) and isinstance(gf, int) and gf == 2 * gc - 1):
            continue
        sc = coarse["summary"]["scalars"]
        sf = fine["summary"]["scalars"]
        for name in sorted(set(sc) & set(sf)):
            vc, vf = sc[name]["value"], sf[name]["value"]
            if isinstance(vc, (int, float)) and isinstance(vf, (int, float)):
                extrap = (4.0 * vf - vc) / 3.0
                rows.append(
                    f"| {kind} | Richardson({name}) n={gc},{gf} | {_fmt(extrap)} |  |  |"
                )
    return rows


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_fmt(x) for x in v) + ")"
    return str(v)
