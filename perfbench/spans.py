"""Spans and call counts at the layer boundaries of the rons package.

Everything here is installed from outside the package: each boundary is the
set of module attributes and class methods through which the program calls
one layer, and installing replaces each binding with a wrapper.  A boundary
whose bindings are all gone (a later version renamed or removed them) is
listed in `missing`, and the metrics that need it are left out instead of
failing the run.

Spans (name, start, end, parent) are kept in flat arrays so that the
~300k spans of one leapfrog pass stay small in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array

import numpy as np

_METHOD_NAMES_EVAL = (
    "evaluate",
    "tangent_stack",
    "spatial_derivative",
    "psi_derivative",
    "psi_tangent_derivative",
)


def _module(name):
    # importlib, not attribute access: `rons.integrate` is rebound to the
    # function of that name by the package's __init__
    return importlib.import_module(name)


def _attrs(*paths):
    """Bindings `module:attr` that exist, as (owner, attr) pairs."""

    def resolve():
        found = []
        for path in paths:
            mod_name, attr = path.split(":")
            try:
                mod = _module(mod_name)
            except ImportError:
                continue
            if attr in vars(mod):
                found.append((mod, attr))
        return found

    return resolve


def _methods(mod_name, base_name, *method_names):
    """Methods defined (not inherited) by `base_name` and its subclasses in
    the module, so that each implementation is wrapped exactly once."""

    def resolve():
        try:
            mod = _module(mod_name)
        except ImportError:
            return []
        base = vars(mod).get(base_name)
        if not isinstance(base, type):
            return []
        found = []
        for obj in vars(mod).values():
            if isinstance(obj, type) and issubclass(obj, base):
                found += [(obj, m) for m in method_names if m in vars(obj)]
        return found

    return resolve


def _assemble_key(*args, **kwargs):
    family = kwargs["family"] if "family" in kwargs else args[0]
    q = kwargs["q"] if "q" in kwargs else args[1]
    return (getattr(family, "name", ""), np.asarray(q, dtype=float).tobytes())


# boundary -> (bindings, key function recorded per call or None)
BOUNDARIES = {
    "ansatz.kernel": (_methods("rons.ansatz", "VortexStreamFunction", "terms"), None),
    "ansatz.eval": (_methods("rons.ansatz", "AnsatzFamily", *_METHOD_NAMES_EVAL), None),
    "models.evaluation": (_methods("rons.models", "PdeModel", "evaluation"), None),
    "models.gradient": (_methods("rons.models", "ConservedQuantity", "gradient"), None),
    "models.value": (_methods("rons.models", "ConservedQuantity", "value"), None),
    "engine.assemble": (
        _attrs(
            "rons:assemble",
            "rons.engine:assemble",
            "rons.integrate:assemble",
            "rons.experiments:assemble",
        ),
        _assemble_key,
    ),
    "engine.reduced_rhs": (
        _attrs(
            "rons:reduced_rhs",
            "rons.engine:reduced_rhs",
            "rons.integrate:reduced_rhs",
            "rons.experiments:reduced_rhs",
        ),
        None,
    ),
    "engine.residual": (
        _attrs("rons:residual", "rons.engine:residual", "rons.integrate:residual"), None
    ),
    "integrate.integrate": (
        _attrs("rons.integrate:integrate", "rons.experiments:integrate"), None
    ),
    "oracles.nlse_dns": (_attrs("rons.oracles:nlse_dns", "rons.experiments:nlse_dns"), None),
    "oracles.point_vortex": (
        _attrs("rons.oracles:point_vortex", "rons.experiments:point_vortex"), None
    ),
    "oracles.core_centroid": (
        _attrs(
            "rons.oracles:core_centroid_velocities",
            "rons.experiments:core_centroid_velocities",
        ),
        None,
    ),
    "hilbert.rule": (
        _attrs(
            "rons.hilbert:make_rule",
            "rons.hilbert:box_rule",
            "rons.experiments:make_rule",
            "rons.experiments:box_rule",
        ),
        None,
    ),
    "experiments.run": (_attrs("rons.experiments:run"), None),
    "experiments.validate": (_attrs("rons.experiments:validate_summary"), None),
}

# the reduced-ODE steppers as the integrator calls them; their step
# callbacks (the recorder) become spans, the steppers themselves do not, so
# step control stays in the self time of `integrate`
STEPPERS = _attrs("rons.integrate:solve_adaptive_rk45", "rons.integrate:solve_fixed_rk4")
CALLBACK_FIRST = "integrate.callback0"   # the callback at t0, before any step
CALLBACK_STEP = "integrate.callback"     # one per accepted step


class _Patches:
    """Replaced bindings, restored by `uninstall`."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class CallCounter(_Patches):
    """Counts calls through every binding of `assemble`, nothing else.

    This is what the untraced run installs to report `rhs_evals`: one
    integer increment per call, no clock reads.
    """

    def __init__(self):
        super().__init__()
        self.calls = 0
        bindings = BOUNDARIES["engine.assemble"][0]()
        self.found = bool(bindings)
        for owner, attr in bindings:
            self.replace(owner, attr, self._wrap(vars(owner)[attr]))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        return counted


class Tracer(_Patches):
    """Records one span per call at every boundary in BOUNDARIES."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.keys: dict[int, object] = {}
        self._stack: list[int] = []
        self.missing: set[str] = set()
        for boundary, (resolve, key) in BOUNDARIES.items():
            bindings = resolve()
            if not bindings:
                self.missing.add(boundary)
            for owner, attr in bindings:
                self.replace(owner, attr, self.wrap(boundary, vars(owner)[attr], key))
        stepper_bindings = STEPPERS()
        if not stepper_bindings:
            self.missing.add("integrate.stepper")
        for owner, attr in stepper_bindings:
            self.replace(owner, attr, self._wrap_stepper(vars(owner)[attr]))

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, key=None):
        name_id = self._id(name)
        stack, keys = self._stack, self.keys

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            if key is not None:
                keys[idx] = key(*args, **kwargs)
            stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()

        return traced

    def _wrap_stepper(self, stepper):
        tracer = self

        @functools.wraps(stepper)
        def stepper_with_traced_callback(*args, step_callback=None, **kwargs):
            if step_callback is not None:
                first = tracer.wrap(CALLBACK_FIRST, step_callback)
                later = tracer.wrap(CALLBACK_STEP, step_callback)
                calls = [0]

                def callback(*cb_args):
                    calls[0] += 1
                    return (first if calls[0] == 1 else later)(*cb_args)

                step_callback = callback
            return stepper(*args, step_callback=step_callback, **kwargs)

        return stepper_with_traced_callback


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    n = len(start)
    covered = np.zeros(n)
    reach: dict[int, float] = {}   # parent -> end of the union so far
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, -np.inf))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, -np.inf), hi)
    return np.asarray(end) - np.asarray(start) - covered


# metric -> (unit, boundaries it needs)
LAYER_METRICS = {
    "ansatz.kernel_calls": ("count", ("ansatz.kernel",)),
    "ansatz.kernel_s": ("s", ("ansatz.kernel",)),
    "ansatz.eval_s": ("s", ("ansatz.eval",)),
    "models.evaluation_calls": ("count", ("models.evaluation",)),
    "models.evaluation_s": ("s", ("models.evaluation",)),
    "models.gradient_calls": ("count", ("models.gradient",)),
    "models.gradient_s": ("s", ("models.gradient",)),
    "models.value_s": ("s", ("models.value",)),
    "engine.assemble_calls": ("count", ("engine.assemble",)),
    "engine.distinct_states": ("count", ("engine.assemble",)),
    "engine.unique_ratio": ("ratio", ("engine.assemble",)),
    "engine.assemble_self_s": ("s", ("engine.assemble",)),
    "engine.assemble_ms_p50": ("ms", ("engine.assemble",)),
    "engine.solve_s": ("s", ("engine.reduced_rhs",)),
    "engine.residual_s": ("s", ("engine.residual",)),
    "integrate.accepted_steps": ("count", ("integrate.stepper",)),
    "integrate.rhs_per_step": (
        "ratio",
        ("integrate.stepper", "integrate.integrate", "engine.assemble"),
    ),
    "integrate.self_s": ("s", ("integrate.integrate",)),
    "integrate.callback_s": ("s", ("integrate.stepper",)),
    "oracles.nlse_dns_s": ("s", ("oracles.nlse_dns",)),
    "oracles.point_vortex_s": ("s", ("oracles.point_vortex",)),
    "oracles.core_centroid_s": ("s", ("oracles.core_centroid",)),
    "hilbert.rule_builds": ("count", ("hilbert.rule",)),
    "hilbert.rule_s": ("s", ("hilbert.rule",)),
    "experiments.self_s": ("s", ("experiments.run",)),
    "experiments.validate_s": ("s", ("experiments.validate",)),
    "experiments.bytes_written": ("bytes", ()),
}


def pass_metrics(names, name, parent, start, end, keys, lo, hi, bytes_written):
    """Layer metrics of the spans lo..hi-1 (one pass).

    Spans of one pass only have parents inside the same pass, because a
    pass starts with an empty call stack.
    """
    ids = {n: i for i, n in enumerate(names)}
    nm = np.asarray(name[lo:hi], dtype=int)
    par = [p - lo if p >= 0 else -1 for p in parent[lo:hi]]
    st, en = start[lo:hi], end[lo:hi]
    own = self_times(st, en, par)
    dur = np.asarray(en) - np.asarray(st)

    def sel(boundary):
        return nm == ids.get(boundary, -1)

    def count(boundary):
        return int(np.count_nonzero(sel(boundary)))

    def self_s(boundary):
        return float(own[sel(boundary)].sum())

    def incl_s(boundary):
        return float(dur[sel(boundary)].sum())

    assemble = np.flatnonzero(sel("engine.assemble"))
    n_assemble = len(assemble)
    distinct = len({keys[lo + i] for i in assemble})
    integrate_id = ids.get("integrate.integrate", -1)
    under_integrate = 0
    for i in assemble:
        p = par[i]
        while p >= 0 and nm[p] != integrate_id:
            p = par[p]
        under_integrate += p >= 0
    accepted = count(CALLBACK_STEP)

    return {
        "ansatz.kernel_calls": count("ansatz.kernel"),
        "ansatz.kernel_s": self_s("ansatz.kernel"),
        "ansatz.eval_s": self_s("ansatz.eval"),
        "models.evaluation_calls": count("models.evaluation"),
        "models.evaluation_s": self_s("models.evaluation"),
        "models.gradient_calls": count("models.gradient"),
        "models.gradient_s": self_s("models.gradient"),
        "models.value_s": self_s("models.value"),
        "engine.assemble_calls": n_assemble,
        "engine.distinct_states": distinct,
        "engine.unique_ratio": distinct / n_assemble if n_assemble else 0.0,
        "engine.assemble_self_s": self_s("engine.assemble"),
        "engine.assemble_ms_p50": (
            1e3 * float(np.median(dur[assemble])) if n_assemble else 0.0
        ),
        "engine.solve_s": self_s("engine.reduced_rhs"),
        "engine.residual_s": self_s("engine.residual"),
        "integrate.accepted_steps": accepted,
        # no integrator ran (rhs-sweep): the ratio has no base and reads 0
        "integrate.rhs_per_step": under_integrate / accepted if accepted else 0.0,
        "integrate.self_s": self_s("integrate.integrate"),
        "integrate.callback_s": incl_s(CALLBACK_FIRST) + incl_s(CALLBACK_STEP),
        "oracles.nlse_dns_s": incl_s("oracles.nlse_dns"),
        "oracles.point_vortex_s": incl_s("oracles.point_vortex"),
        "oracles.core_centroid_s": incl_s("oracles.core_centroid"),
        "hilbert.rule_builds": count("hilbert.rule"),
        "hilbert.rule_s": self_s("hilbert.rule"),
        "experiments.self_s": self_s("experiments.run"),
        "experiments.validate_s": self_s("experiments.validate"),
        "experiments.bytes_written": bytes_written,
    }


def layer_metrics(tracer: Tracer, passes, bytes_written) -> dict:
    """Median over passes of each layer metric, as {name: (value, unit)}.

    `passes` holds the (first, end) span index of each pass.  Metrics whose
    boundaries are missing are left out.
    """
    per_pass = [
        pass_metrics(
            tracer.names, tracer.name, tracer.parent, tracer.start, tracer.end,
            tracer.keys, lo, hi, nbytes,
        )
        for (lo, hi), nbytes in zip(passes, bytes_written)
    ]
    out = {}
    for metric, (unit, needs) in LAYER_METRICS.items():
        if any(b in tracer.missing for b in needs):
            continue
        values = [p[metric] for p in per_pass]
        # counts repeat from pass to pass; median_low keeps them whole
        mid = statistics.median_low if unit in ("count", "bytes") else statistics.median
        out[metric] = (mid(values), unit)
    return out
