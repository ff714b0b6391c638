"""The benchmark's workloads against the rons package.

A workload is built in its constructor (that is the set-up the benchmark
times), then runs passes.  A pass is one run of the workload's full set of
operations; `run_pass` times only the operations, and `check_pass` checks
their outputs afterwards, outside the timed region.  Every pass attempts
the same number of operations.
"""

from __future__ import annotations

import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import rons.engine as engine
import rons.experiments as experiments
from rons.ansatz import GaussianWavePacket, HeatKernel, LinearModes, SineWave, VortexStreamFunction, fourier_modes
from rons.hilbert import box_rule, make_rule, periodic_interval, real_line
from rons.models import advection_diffusion, nlse, vorticity

CATALOG = (
    "advdiff-exact",
    "nlse-focusing",
    "nlse-defocusing",
    "nlse-unconstrained",
    "galerkin-equivalence",
    "appendixA-instability",
    "fit-demo",
)
SWEEP_EXPERIMENTS = ("euler-pair", "euler-leapfrog", "nlse-focusing")
SWEEP_STATES = 16          # per experiment and pass
SWEEP_SPREAD = 0.05        # relative perturbation of q0
WARMUP_LEAPFROG_T_END = 1.0


def _report(exc: BaseException, what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def window(family: VortexStreamFunction, q, pad: float, resolution: int):
    """Moving quadrature window around the vortex centers, built the way the
    vortex experiments build theirs."""
    centers = family.centers(q)
    L = float(np.max(family.length_scales(q)))
    return box_rule(centers.min(axis=0) - pad * L, centers.max(axis=0) + pad * L, resolution)


def _experiment_setup(config):
    """(family, model, rule, quantities, q) of each reduced system that one
    registered experiment builds at its defaults; none for fit-demo, which
    has no model."""
    name = config["experiment"]
    if name == "advdiff-exact":
        family, model = SineWave(), advection_diffusion(config["c"], config["nu"])
        rule = make_rule(periodic_interval(2 * np.pi * config["q0"][1]), config["resolution"])
        return [(family, model, rule, (), config["q0"])]
    if name.startswith("nlse-"):
        family, model = GaussianWavePacket(), nlse()
        rule = make_rule(real_line(config["half_width"]), config["resolution"])
        quantities = model.conserved if config["constrained"] else ()
        return [(family, model, rule, quantities, config["q0"])]
    if name.startswith("euler-"):
        family = VortexStreamFunction(len(config["q0"]) // 4)
        model = vorticity(config["nu"])
        rule = window(family, config["q0"], config["window_pad"], config["resolution"])
        return [(family, model, rule, model.conserved, config["q0"])]
    if name == "galerkin-equivalence":
        family = LinearModes(fourier_modes(2 * np.pi, config["n_modes"]))
        model = advection_diffusion(config["c"], config["nu"])
        rule = make_rule(periodic_interval(2 * np.pi), config["resolution"])
        q = np.random.default_rng(config["seed"]).standard_normal(config["n_modes"])
        return [(family, model, rule, (), q)]
    if name == "appendixA-instability":
        family = LinearModes(fourier_modes(2 * np.pi, 1))
        rule = make_rule(periodic_interval(2 * np.pi), 64)
        return [
            (family, advection_diffusion(0.0, lam), rule, (), [1.0])
            for lam in config["lambdas"]
        ]
    if name == "fit-demo":
        family = HeatKernel()
        rule = make_rule(real_line(config["half_width"]), config["resolution"])
        family.tangent_stack(rule.nodes, np.asarray(config["q0"]))
        return []
    raise ValueError(f"no set-up for {name}")


def _setup_experiments(names):
    """Resolve the configs, build every rule and model, and assemble once at
    each q0."""
    configs = {n: experiments.resolve_config({"experiment": n}) for n in names}
    built = {}
    for name, config in configs.items():
        built[name] = _experiment_setup(config)
        for family, model, rule, quantities, q in built[name]:
            engine.reduced_rhs(engine.assemble(family, q, model, rule, quantities))
    return configs, built


class ExperimentWorkload:
    """Operations are `rons.experiments.run` of registered experiments at
    their defaults, each writing into its own directory under `out_dir`."""

    def __init__(self, names, out_dir: Path, seed: int):
        # experiments at their defaults take no input from the seed
        del seed
        self.names = tuple(names)
        self.out_dir = out_dir
        _setup_experiments(self.names)
        self.defaults = {n: experiments.EXPERIMENTS[n].defaults for n in self.names}

    @property
    def ops_per_pass(self) -> int:
        return len(self.names)

    def warmup(self):
        for name in self.names:
            self._run(name, self.out_dir / "warmup" / name, self._warmup_config(name))

    def _warmup_config(self, name):
        return {"experiment": name}

    def _run(self, name, run_dir, config):
        try:
            return experiments.run(config, out_dir=run_dir).status == "ok"
        except Exception as exc:  # an operation that raises is a failed one
            _report(exc, name)
            return False

    def run_pass(self, index: int):
        outcome = {}
        start = time.perf_counter()
        for name in self.names:
            outcome[name] = self._run(name, self.out_dir / name, {"experiment": name})
        return time.perf_counter() - start, outcome

    def check_pass(self, outcome):
        """(failed operations, operations whose outputs were wrong)."""
        failed = wrong = 0
        for name, ok in outcome.items():
            if not ok:
                failed += 1
                continue
            problems = self._check(name, self.out_dir / name)
            for p in problems:
                print(f"perfbench: {name}: {p}", file=sys.stderr)
            failed += bool(problems)
            wrong += bool(problems)
        return failed, wrong

    def _check(self, name, run_dir):
        return checks.check_catalog_run(name, run_dir, self.defaults[name])

    def bytes_written(self) -> int:
        return sum(_dir_bytes(self.out_dir / n) for n in self.names)


class Leapfrog(ExperimentWorkload):
    def __init__(self, out_dir: Path, seed: int):
        super().__init__(("euler-leapfrog",), out_dir, seed)

    def _warmup_config(self, name):
        # every code path of the run at a fraction of its length
        return {"experiment": name, "t_end": WARMUP_LEAPFROG_T_END}

    def _check(self, name, run_dir):
        return checks.check_leapfrog(run_dir)


class Catalog(ExperimentWorkload):
    def __init__(self, out_dir: Path, seed: int):
        super().__init__(CATALOG, out_dir, seed)


class RhsSweep:
    """Operations are `assemble` then `reduced_rhs` at one parameter state,
    constraints on.  Each pass draws fresh states, so no state repeats."""

    def __init__(self, out_dir: Path, seed: int):
        self.seed = seed
        self.configs, built = _setup_experiments(SWEEP_EXPERIMENTS)
        # (family, model, quantities, rule at q0) per experiment; vortex
        # states get their own window, the NLSE rule does not depend on q
        self.models = {
            n: (family, model, quantities, rule)
            for n, [(family, model, rule, quantities, _q)] in built.items()
        }

    @property
    def ops_per_pass(self) -> int:
        return SWEEP_STATES * len(SWEEP_EXPERIMENTS)

    def states(self, index: int):
        """The pass's states: q = q0 + SWEEP_SPREAD * max(|q0|, 0.1) * z with
        z standard normal from the generator seeded by (seed, pass, experiment),
        each vortex state with its own window."""
        out = []
        for e, name in enumerate(SWEEP_EXPERIMENTS):
            config = self.configs[name]
            family, _, _, rule = self.models[name]
            q0 = np.asarray(config["q0"])
            rng = np.random.default_rng([self.seed, index, e])
            for _ in range(SWEEP_STATES):
                q = q0 + SWEEP_SPREAD * np.maximum(np.abs(q0), 0.1) * rng.standard_normal(len(q0))
                if name.startswith("euler-"):
                    rule = window(family, q, config["window_pad"], config["resolution"])
                out.append((name, q, rule))
        return out

    def warmup(self):
        self.check_pass(self.run_pass(0)[1])

    def run_pass(self, index: int):
        states = self.states(index)
        results = []
        start = time.perf_counter()
        for name, q, rule in states:
            family, model, quantities, _ = self.models[name]
            try:
                system = engine.assemble(family, q, model, rule, quantities)
                results.append((engine.reduced_rhs(system), system.constraints.gradients))
            except Exception as exc:  # an operation that raises is a failed one
                _report(exc, f"{name} state")
                results.append(None)
        return time.perf_counter() - start, list(zip(states, results))

    def check_pass(self, outcome):
        failed = wrong = 0
        seen = set()
        for (name, q, rule), result in outcome:
            if result is None:
                failed += 1
                continue
            qdot, B = result
            family, model, quantities, _ = self.models[name]
            ev = model.evaluation(family, q, rule)
            problems = checks.check_qdot(qdot, ev, rule.weights, B)
            if name not in seen:   # the first state of each experiment
                seen.add(name)
                problems += checks.check_gradients(family, q, rule, quantities, B)
            for p in problems:
                print(f"perfbench: {name}: {p}", file=sys.stderr)
            failed += bool(problems)
            wrong += bool(problems)
        return failed, wrong

    def bytes_written(self) -> int:
        return 0


WORKLOADS = {"leapfrog": Leapfrog, "catalog-1d": Catalog, "rhs-sweep": RhsSweep}
