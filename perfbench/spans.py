"""Traced run: spans around the calls into each todasym module, from outside.

``install()`` wraps each public function in every module namespace that
holds it (``verify`` imports ``schouten_self`` by name, ``hierarchy``
imports ``lie_derivative``, ...) and the hot methods on their classes.
Each wrapper records one span: name, start, end, parent span and op id,
kept in flat arrays in memory.  ``layer_metrics()`` turns the spans of one
pass into the per-layer metrics; ``Recorder.save()`` writes the raw spans.

Times inside a span include the cost of the wrappers nested in it, so the
traced figures attribute time between layers; end-to-end times come from
untraced passes.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

from todasym import dynamics, fields, hierarchy, lattice, poisson, ratpoly, symmetry, verify

# (span name, module, attribute): module-level functions, rebound wherever held
FUNCTIONS = (
    ("poisson.schouten_self", poisson, "schouten_self"),
    ("poisson.lie_derivative", poisson, "lie_derivative"),
    ("poisson.hamiltonian_field", poisson, "hamiltonian_field"),
    ("poisson.poisson_bracket", poisson, "poisson_bracket"),
    ("hierarchy.master_field", hierarchy, "master_field"),
    ("hierarchy.poisson_tensor", hierarchy, "poisson_tensor"),
    ("hierarchy.equivalent_mod_chi", hierarchy, "equivalent_mod_chi"),
    ("lattice.hamiltonian", lattice, "hamiltonian"),
    ("lattice.toda_velocity", lattice, "toda_velocity"),
    ("lattice.flow_residuals", lattice, "flow_residuals"),
    ("symmetry.build_Y", symmetry, "build_Y"),
    ("symmetry.determining_residuals", symmetry, "determining_residuals"),
    ("symmetry.evolutionary_defect", symmetry, "evolutionary_defect"),
    ("dynamics.integrate", dynamics, "integrate"),
    ("dynamics.spectrum", dynamics, "spectrum"),
    ("dynamics.drift_report", dynamics, "drift_report"),
    ("dynamics.symmetry_map_test", dynamics, "symmetry_map_test"),
    ("verify.run_verify", verify, "run_verify"),
)

# (span name, class, method): wrapped on the class; Polynomial.__mul__ is
# wrapped separately because it also counts term pairs
METHODS = (
    ("ratpoly.add", ratpoly.Polynomial, "__add__"),
    ("ratpoly.add", ratpoly.Polynomial, "__sub__"),
    ("ratpoly.diff", ratpoly.Polynomial, "diff_index"),
    ("ratpoly.scale", ratpoly.Polynomial, "scale"),
    ("fields.apply", fields.VectorField, "apply"),
    ("fields.bracket", fields.VectorField, "bracket"),
    ("poisson.tensor_build", poisson.PoissonTensor, "__init__"),
    ("dynamics.compiled_field.build", dynamics.CompiledField, "__init__"),
    ("dynamics.compiled_field.eval", dynamics.CompiledField, "__call__"),
    ("verify.report_json", verify.Report, "to_json_str"),
)

# lru_cache'd functions, read through their public cache_info()
CACHES = {
    "hierarchy.master_field": hierarchy.master_field,
    "hierarchy.poisson_tensor": hierarchy.poisson_tensor,
    "hierarchy.chi": hierarchy.chi,
    "lattice.hamiltonian": lattice.hamiltonian,
}

# spans reported with .calls and .self_s
CALLS_AND_SELF = (
    "ratpoly.mul", "ratpoly.add", "ratpoly.diff", "ratpoly.scale",
    "fields.apply", "fields.bracket",
    "poisson.schouten_self", "poisson.lie_derivative", "poisson.hamiltonian_field",
    "poisson.poisson_bracket", "poisson.tensor_build",
    "hierarchy.equivalent_mod_chi",
    "lattice.toda_velocity", "lattice.flow_residuals",
    "symmetry.build_Y", "symmetry.determining_residuals", "symmetry.evolutionary_defect",
    "dynamics.integrate", "dynamics.spectrum", "dynamics.drift_report",
    "dynamics.symmetry_map_test",
    "verify.run_verify",
)  # fmt: skip
# spans reported with .self_s only (their call counts are cache lookups)
SELF_ONLY = (
    "hierarchy.master_field", "hierarchy.poisson_tensor", "lattice.hamiltonian",
    "verify.report_json",
)  # fmt: skip

OP = "op"


class Recorder:
    """Spans of one pass in flat arrays; parent -1 marks a root span."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.term_pairs = 0
        self.out_terms = 0
        self.max_operand_terms = 0
        self.integrate_keys: list[tuple] = []
        self.steps = 0
        self.samples = 0

    def intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, before=None):
        """fn with a span around each call; before(*args, **kw) sees the arguments."""
        nid = self.intern(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_span = self.open(self.intern(OP))

    def end_op(self) -> None:
        self.close(self._op_span)
        self.op_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _rebind_everywhere(replacements: dict[int, object]) -> None:
    """Point every module-level name that holds a replaced object at its wrapper."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None) or {}
        for attr, value in list(namespace.items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                namespace[attr] = wrapper


def install(rec: Recorder) -> None:
    """Wrap the program's public functions and hot methods for one pass."""
    hooks = {"integrate": _integrate_hook(rec), "drift_report": _drift_hook(rec)}
    replacements = {}
    for name, module, attr in FUNCTIONS:
        orig = getattr(module, attr)
        replacements[id(orig)] = rec.wrap(name, orig, hooks.get(attr))
    _rebind_everywhere(replacements)
    for name, cls, attr in METHODS:
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr)))
    _install_mul(rec)


def _install_mul(rec: Recorder) -> None:
    """Span Polynomial x Polynomial products; scalar ones go on to scale()."""
    cls = ratpoly.Polynomial
    orig = cls.__mul__
    traced = rec.wrap("ratpoly.mul", orig)

    def mul(self, other):
        if not isinstance(other, cls):
            return orig(self, other)
        left, right = len(self.terms), len(other.terms)
        out = traced(self, other)
        rec.term_pairs += left * right
        rec.out_terms += len(out.terms)
        rec.max_operand_terms = max(rec.max_operand_terms, left, right)
        return out

    cls.__mul__ = mul


def _integrate_hook(rec: Recorder):
    def before(z0, t_end, dt, field=None, require_positive_a=None, store_stride=1):
        rec.steps += int(round(t_end / dt))
        field_key = None if field is None else id(field)
        rec.integrate_keys.append((z0.a, z0.b, z0.time, t_end, dt, field_key, store_stride))

    return before


def _drift_hook(rec: Recorder):
    def before(traj, m_max, stride=1):
        rec.samples += len(range(0, len(traj.times), stride))

    return before


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    a = rec.arrays()
    dur = a["end"] - a["start"]
    rooted = a["parent"] >= 0
    child = np.zeros_like(dur)
    np.add.at(child, a["parent"][rooted], dur[rooted])
    width = len(rec.names)
    calls = np.bincount(a["name"], minlength=width)
    self_s = np.bincount(a["name"], weights=dur - child, minlength=width)
    total_s = np.bincount(a["name"], weights=dur, minlength=width)
    nid = {name: i for i, name in enumerate(rec.names)}

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    m: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = int(calls[nid[name]])
    for name in CALLS_AND_SELF + SELF_ONLY:
        m[f"{name}.self_s"] = float(self_s[nid[name]])

    m["ratpoly.mul.term_pairs"] = rec.term_pairs
    m["ratpoly.mul.out_terms"] = rec.out_terms
    m["ratpoly.mul.yield"] = ratio(rec.out_terms, rec.term_pairs)
    m["ratpoly.mul.max_operand_terms"] = rec.max_operand_terms
    m["poisson.schouten_self.mul_per_call"] = ratio(
        _count_below(a, nid["ratpoly.mul"], nid["poisson.schouten_self"]),
        m["poisson.schouten_self.calls"],
    )

    for name, cached in CACHES.items():
        info = cached.cache_info()
        m[f"{name}.hit_ratio"] = ratio(info.hits, info.hits + info.misses)
    for name in ("hierarchy.master_field", "hierarchy.poisson_tensor"):
        m[f"{name}.misses"] = CACHES[name].cache_info().misses

    integrate_s = total_s[nid["dynamics.integrate"]]
    m["dynamics.integrate.steps"] = rec.steps
    m["dynamics.integrate.steps_per_s"] = ratio(rec.steps, integrate_s)
    m["dynamics.integrate.unique_ratio"] = ratio(
        len(set(rec.integrate_keys)), len(rec.integrate_keys)
    )
    m["dynamics.rk4_step_us"] = ratio(integrate_s * 1e6, rec.steps)

    build, evaluate = nid["dynamics.compiled_field.build"], nid["dynamics.compiled_field.eval"]
    m["dynamics.compiled_field.builds"] = int(calls[build])
    m["dynamics.compiled_field.build_s"] = float(total_s[build])
    m["dynamics.compiled_field.evals"] = int(calls[evaluate])
    m["dynamics.compiled_field.eval_us"] = ratio(total_s[evaluate] * 1e6, calls[evaluate])

    m["dynamics.drift_report.samples"] = rec.samples
    m["dynamics.drift_report.us_per_sample"] = ratio(
        total_s[nid["dynamics.drift_report"]] * 1e6, rec.samples
    )
    return m


def _count_below(a, child: int, ancestor: int) -> int:
    """How many spans named child have an ancestor span named ancestor."""
    names, parent = a["name"], a["parent"]
    up = parent[names == child].copy()
    found = np.zeros(len(up), dtype=bool)
    live = up >= 0
    while live.any():
        found[live] = names[up[live]] == ancestor
        up[live] = parent[up[live]]
        live = (up >= 0) & ~found
    return int(np.count_nonzero(found))
