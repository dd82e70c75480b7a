"""Span tracer for the ldglab benchmark.

The tracer wraps ldglab's public functions (and scipy's `splu`) from
outside the package: `install()` rebinds each wrapped name in every loaded
ldglab module that holds it, `uninstall()` puts the originals back.  Nothing
under src/ is edited.

Each wrapped call records a span (name, start, end, parent).  A span's self
time is its duration minus the time its child spans cover.  Inclusive times
(`.s` metrics) count only the outermost span of a name, because
`minimize_3d` calls itself for its coarse cascade level and summing nested
spans would count that time twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

#: Bindings that `from ... import` copies into other modules.  Each must be
#: rebound where it is looked up, or calls through it go untraced.
REQUIRED_BINDINGS = (
    "ldglab.descent.grad_w_tan_arrays",
    "ldglab.radial2d.grad_w_tan_arrays",
    "ldglab.meridian3d.minimize_2d",
    "ldglab.meridian3d.q_to_u",
)

#: Starting profiles of `minimize_2d`; a RadialProfile init is a warm start.
INITS = ("uS", "bubbled", "ghbar", "warm")


@dataclass
class LayerStat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    iters: int = 0
    converged: int = 0
    flips: int = 0


class Tracer:
    """Records spans in memory; `stats` aggregates them per span name."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stats: dict[str, LayerStat] = {}
        self._stack: list[list] = []  # [name, start, child_s, index, outermost]
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.bindings: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> None:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1][3] if self._stack else -1))
        self._stack.append([name, time.perf_counter(), 0.0, index, depth == 0])

    def _close(self) -> LayerStat:
        end = time.perf_counter()
        name, start, child_s, index, outermost = self._stack.pop()
        dur = end - start
        self.spans[index] = (name, start, end, self.spans[index][3])
        self._depth[name] -= 1
        if self._stack:
            self._stack[-1][2] += dur
        st = self.stats.setdefault(name, LayerStat())
        st.calls += 1
        st.self_s += dur - child_s
        if outermost:
            st.incl_s += dur
        return st

    def span(self, name, fn, on_result=None):
        """`fn` wrapped in a span; `name` may be a function of the call args."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                st = tracer._close()
            if on_result is not None:
                on_result(st, out)
            return out

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind_everywhere(self, original, wrapper) -> None:
        """Rebind `original` wherever an ldglab module holds it by name."""
        for modname, mod in sorted(sys.modules.items()):
            if modname != "ldglab" and not modname.startswith("ldglab."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    self.bindings.append(f"{modname}.{attr}")

    def install(self) -> None:
        for modname in ("ldglab.experiments", "ldglab.cli"):
            importlib.import_module(modname)
        import scipy.sparse.linalg as spla

        from ldglab import descent, experiments, meridian3d, radial2d, tensor_core

        def iters_converged(st, out):
            st.iters += out.iterations
            st.converged += bool(out.converged)

        def descend_result(st, out):
            _, it, converged = out
            st.iters += it
            st.converged += bool(converged)

        def flip_result(st, out):
            st.flips += out[1]

        def init_label(args, kwargs):
            init = args[2] if len(args) > 2 else kwargs["init"]
            return "radial2d.minimize_2d." + (init if isinstance(init, str) else "warm")

        targets = [
            (experiments, "run", "experiments.run", None),
            (descent, "descend", "descent.descend", descend_result),
            (descent, "energy", "descent.energy", None),
            (descent, "gradient_norm", "descent.gradient_norm", None),
            (descent, "flip_sweep", "descent.flip_sweep", flip_result),
            (tensor_core, "grad_w_tan_arrays", "tensor_core.grad_w_tan_arrays", None),
            (tensor_core, "q_to_u", "tensor_core.q_to_u", None),
            (radial2d, "minimize_2d", init_label, iters_converged),
            (radial2d, "el_residual_2d", "radial2d.el_residual_2d", None),
            (meridian3d, "minimize_3d", "meridian3d.minimize_3d", iters_converged),
            (meridian3d, "build_geometry", "meridian3d.build_geometry", None),
            (meridian3d, "homeotropic_data", "meridian3d.homeotropic_data", None),
            (meridian3d, "interp_field", "meridian3d.interp_field", None),
            (meridian3d, "seed_field", "meridian3d.seed_field", None),
            (meridian3d, "el_residual_3d", "meridian3d.el_residual_3d", None),
            (meridian3d, "classify", "meridian3d.classify", None),
            (meridian3d, "energy_identity_residuals", "meridian3d.energy_identity_residuals", None),
            (meridian3d, "radial_monotonicity", "meridian3d.radial_monotonicity", None),
            (meridian3d, "energy_in_cylinder", "meridian3d.energy_in_cylinder", None),
        ]
        for mod, attr, name, on_result in targets:
            original = getattr(mod, attr)
            self._rebind_everywhere(original, self.span(name, original, on_result))

        # Methods live on the class, not in a module namespace.
        cls = meridian3d.MeridianField
        self._patches.append((cls, "to_csv", cls.to_csv))
        cls.to_csv = self.span("meridian3d.MeridianField.to_csv", cls.to_csv)
        self.bindings.append("ldglab.meridian3d.MeridianField.to_csv")

        # descent calls `spla.splu(...)` through the scipy module; the factor's
        # `solve` is a C method, so the factor is proxied.
        splu = spla.splu
        tracer = self

        def traced_splu(*args, **kwargs):
            return _TracedFactor(splu(*args, **kwargs), tracer)

        self._patches.append((spla, "splu", splu))
        spla.splu = self.span("descent.splu", traced_splu)
        self.bindings.append("scipy.sparse.linalg.splu")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def unbound_originals(self) -> list[str]:
        """Names in ldglab modules still bound to an unwrapped original."""
        originals = {id(orig) for _, _, orig in self._patches}
        left = []
        for modname, mod in sorted(sys.modules.items()):
            if modname == "ldglab" or modname.startswith("ldglab."):
                left += [f"{modname}.{a}" for a, v in vars(mod).items() if id(v) in originals]
        return left

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self, doc: dict, wall_s: float, cpu_s: float, artifact_bytes: int) -> dict:
        """Per-layer metric values, keyed by the names in BENCHMARK.json."""
        def st(name: str) -> LayerStat:
            return self.stats.get(name, LayerStat())

        def frac(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        m: dict[str, float] = {}
        for init in INITS:
            key = f"radial2d.minimize_2d.{init}"
            s = st(key)
            m[f"{key}.s"] = s.incl_s
            m[f"{key}.calls"] = s.calls
            m[f"{key}.iters"] = s.iters
            m[f"{key}.converged_frac"] = frac(s.converged, s.calls)
        d = st("descent.descend")
        m["descent.descend.calls"] = d.calls
        m["descent.descend.self_s"] = d.self_s
        m["descent.descend.iters"] = d.iters
        m["descent.descend.converged_frac"] = frac(d.converged, d.calls)
        for name in ("descent.splu", "descent.lu_solve", "descent.energy",
                     "descent.gradient_norm", "tensor_core.grad_w_tan_arrays",
                     "tensor_core.q_to_u"):
            m[f"{name}.calls"] = st(name).calls
            m[f"{name}.self_s"] = st(name).self_s
        m["descent.solves_per_factor"] = frac(st("descent.lu_solve").calls, st("descent.splu").calls)
        m["descent.flip_sweep.calls"] = st("descent.flip_sweep").calls
        m["descent.flip_sweep.flips"] = st("descent.flip_sweep").flips
        t3 = st("meridian3d.minimize_3d")
        m["meridian3d.minimize_3d.calls"] = t3.calls
        m["meridian3d.minimize_3d.self_s"] = t3.self_s
        m["meridian3d.minimize_3d.iters"] = t3.iters
        m["meridian3d.minimize_3d.converged_frac"] = frac(t3.converged, t3.calls)
        for name in ("build_geometry", "homeotropic_data", "interp_field", "classify",
                     "el_residual_3d"):
            m[f"meridian3d.{name}.self_s"] = st(f"meridian3d.{name}").self_s
        m["radial2d.el_residual_2d.self_s"] = st("radial2d.el_residual_2d").self_s
        for name in ("seed_field", "MeridianField.to_csv", "energy_identity_residuals",
                     "radial_monotonicity", "energy_in_cylinder"):
            m[f"meridian3d.{name}.s"] = st(f"meridian3d.{name}").incl_s
        m["experiments.artifacts.bytes"] = artifact_bytes
        m["experiments.run.s"] = wall_s
        m["experiments.run.cpu_s"] = cpu_s
        m["experiments.checks"] = len(doc["summary"]["checks"])
        return m


class _TracedFactor:
    """A SuperLU factor whose `solve` calls are recorded as spans."""

    def __init__(self, factor, tracer: Tracer):
        self._factor = factor
        self.solve = tracer.span("descent.lu_solve", factor.solve)

    def __getattr__(self, attr):
        return getattr(self._factor, attr)
