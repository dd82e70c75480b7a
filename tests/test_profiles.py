"""Profile container tests: invariants, grids, CSV round trip, interpolation."""

import csv

import numpy as np
import pytest

from ldglab import closed_forms as cf
from ldglab.profiles import BOUNDARY_F, RadialProfile, profile_from_map, uniform_grid


def log_graded_grid(n, r_min=1e-9):
    """A grid clustered geometrically near r = 0: 0, then n - 1 points from
    r_min to 1."""
    return np.concatenate(([0.0], np.geomspace(r_min, 1.0, n - 1)))


def test_validate_accepts_closed_forms():
    for fmap in (cf.small_solution_us, cf.g_hbar):
        profile_from_map(fmap, uniform_grid(257)).validate()
        profile_from_map(fmap, log_graded_grid(257)).validate()


def test_validate_rejects_bad_profiles():
    p = profile_from_map(cf.small_solution_us, uniform_grid(65))
    q = p.copy()
    q.f0[10] += 1e-3
    with pytest.raises(ValueError, match="norm"):
        q.validate()
    q = p.copy()
    q.f1[0] = 0.6
    q.f0[0] = -0.8  # keep the node norm exactly 1
    with pytest.raises(ValueError, match="vanish"):
        q.validate()
    q = p.copy()
    q.f2[-1] = 0.0
    q.f0[-1] = -np.sqrt(1 - 0.0)
    with pytest.raises(ValueError):
        q.validate()
    with pytest.raises(ValueError, match="grid"):
        RadialProfile(np.array([0.0, 0.5, 0.4, 1.0]), np.ones(4), np.zeros(4, complex), np.zeros(4, complex)).validate()


def test_grids():
    g = uniform_grid(65)
    assert g[0] == 0.0 and g[-1] == 1.0
    with pytest.raises(ValueError):
        uniform_grid(3)


def test_boundary_constant():
    assert BOUNDARY_F[0] == -0.5
    assert BOUNDARY_F[2] == pytest.approx(np.sqrt(3) / 2)


def test_csv_roundtrip(tmp_path):
    p = profile_from_map(cf.small_solution_us, uniform_grid(65))
    path = tmp_path / "p.csv"
    p.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "r,f0,Re f1,Im f1,Re f2,Im f2"
    q = RadialProfile.from_csv(path)
    assert q.max_norm_distance(p) == 0.0
    # Byte-identical to the CSV written one node at a time.
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "f0", "Re f1", "Im f1", "Re f2", "Im f2"])
        for k in range(p.n):
            vals = (p.grid[k], p.f0[k], p.f1[k].real, p.f1[k].imag, p.f2[k].real, p.f2[k].imag)
            w.writerow([repr(float(v)) for v in vals])
    assert path.read_bytes() == reference.read_bytes()


def test_csv_round_trip_is_bit_for_bit(tmp_path):
    # A graded grid and complex f1, f2 with nonzero imaginary parts, over
    # many decades: every value must come back with the same bits.
    rng = np.random.default_rng(11)
    grid = log_graded_grid(65)
    scale = 10.0 ** rng.uniform(-300, 300, (5, grid.size))
    vals = rng.standard_normal((5, grid.size)) * scale
    p = RadialProfile(grid, vals[0], vals[1] + 1j * vals[2], vals[3] + 1j * vals[4])
    path = tmp_path / "p.csv"
    p.to_csv(path)
    q = RadialProfile.from_csv(path)
    for name in ("grid", "f0", "f1", "f2"):
        a, b = getattr(p, name), getattr(q, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_interp_to_preserves_pins():
    p = profile_from_map(cf.g_hbar, uniform_grid(129))
    q = p.interp_to(uniform_grid(257))
    q.validate()
    assert q.f0[0] == 1.0
    assert np.max(np.abs(q.node_norms() - 1.0)) < 1e-14
    # interpolation error is small for the smooth map
    r = profile_from_map(cf.g_hbar, uniform_grid(257))
    assert q.max_norm_distance(r) < 5e-4


@pytest.mark.parametrize("fmap, pin", [(cf.g_hbar, 1.0), (cf.small_solution_us, -1.0)])
def test_impose_pins_writes_the_class_pin_and_the_boundary_datum(fmap, pin):
    p = profile_from_map(fmap, uniform_grid(65))
    p.f0[0] *= 1.0 - 1e-10
    p.f1[0], p.f2[0] = 1e-10, -1e-10j
    p.f0[-1] += 1e-10
    p.f2[-1] += 1e-10j
    inner = p.copy()
    p.impose_pins()
    assert (p.f0[0], p.f1[0], p.f2[0]) == (pin, 0.0, 0.0)
    assert (p.f0[-1], p.f1[-1], p.f2[-1]) == BOUNDARY_F
    for name in ("f0", "f1", "f2"):
        assert np.array_equal(getattr(p, name)[1:-1], getattr(inner, name)[1:-1])


def test_beta_of_profile():
    p = profile_from_map(cf.g_hbar, uniform_grid(129))
    assert np.max(np.abs(p.beta() - 1.0)) < 1e-10
    s = profile_from_map(cf.small_solution_us, uniform_grid(129))
    assert s.beta()[0] == pytest.approx(-1.0)
    assert s.beta()[-1] == pytest.approx(1.0)
