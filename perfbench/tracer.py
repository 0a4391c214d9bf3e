"""Span tracer for the traced run, kept entirely in the benchmark.

It wraps every public function of the seqbounds modules at each name where a
caller looks it up: the modules import each other's functions by name, so
``simulate_sequence`` is replaced in ``processes`` and also in ``experiments``,
``scenario``, ``estimators``, ``cli`` and the package.  It also wraps the
callable that ``threshold_risk_oracle`` returns and the ``scipy.optimize``
calls that ``scenario`` makes, as spans named ``scipy.optimize``: they are
the solver, not ``scenario``'s own code, so they count in no layer's self
time.  Each span records its name, start, end and parent; self time is
derived from them when the run ends.  Spans stay in memory until then.

The tracer's own bookkeeping after a call (counting draws, replications and
solver rows, wrapping the risk oracle) is recorded as a ``tracer.hook`` span,
a child of the caller's span, so it lands in no busy or self time that a
metric reads.  The traced run is single-threaded (the CLI default of one
thread), so the spans of one parent never overlap; ``metrics`` fails loudly
if they do.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("processes", "losses", "classes", "estimators", "bounds",
          "scenario", "experiments", "cli")

SOLVER = "scipy.optimize"
HOOK = "tracer.hook"

# experiment functions named after the validate op they run
_EXPERIMENT_OPS = {"scenario_pac_coverage": "scenario_coverage",
                   "quarter_lemma_grid": "quarter_lemma"}

# (metric, unit, kind, span or layer name); every value is per pass
PER_LAYER = [
    ("processes.self_s", "s", "layer_self", "processes"),
    ("processes.simulate_sequence.s", "s", "busy", "processes.simulate_sequence"),
    ("processes.simulate_sequence.calls", "count", "calls", "processes.simulate_sequence"),
    ("processes.draws_per_s", "1/s", "draws_per_s", "processes.simulate_sequence"),
    ("processes.sample_marginal.s", "s", "busy", "processes.sample_marginal"),
    ("processes.sample_marginal.calls", "count", "calls", "processes.sample_marginal"),
    ("processes.sequence_to_csv.s", "s", "busy", "processes.sequence_to_csv"),
    ("estimators.self_s", "s", "layer_self", "estimators"),
    ("estimators.threshold_empirical_risks.s", "s", "busy", "estimators.threshold_empirical_risks"),
    ("estimators.risk_oracle.s", "s", "busy", "estimators.risk_oracle"),
    ("estimators.sup_deviation.self_s", "s", "self", "estimators.sup_deviation"),
    ("estimators.threshold_ghost_gap.s", "s", "busy", "estimators.threshold_ghost_gap"),
    ("estimators.violation_rate.s", "s", "busy", "estimators.violation_rate"),
    ("estimators.empirical_rademacher.s", "s", "busy", "estimators.empirical_rademacher"),
    ("estimators.empirical_rademacher.calls", "count", "calls", "estimators.empirical_rademacher"),
    ("estimators.empirical_rademacher_exact.s", "s", "busy", "estimators.empirical_rademacher_exact"),
    ("classes.self_s", "s", "layer_self", "classes"),
    ("classes.covering_number_exhaustive.s", "s", "busy", "classes.covering_number_exhaustive"),
    ("classes.covering_number_exhaustive.calls", "count", "calls", "classes.covering_number_exhaustive"),
    ("classes.pseudo_metric_matrix.s", "s", "busy", "classes.pseudo_metric_matrix"),
    ("bounds.self_s", "s", "layer_self", "bounds"),
    ("bounds.exact_binomial_mean_tail.s", "s", "busy", "bounds.exact_binomial_mean_tail"),
    ("bounds.exact_binomial_mean_tail.calls", "count", "calls", "bounds.exact_binomial_mean_tail"),
    ("bounds.chaining_rad_upper_best.self_s", "s", "self", "bounds.chaining_rad_upper_best"),
    ("scenario.self_s", "s", "layer_self", "scenario"),
    ("scenario.certify.self_s", "s", "self", "scenario.certify"),
    ("scenario.certify.calls", "count", "calls", "scenario.certify"),
    ("scenario.tau_lambda.calls", "count", "calls", "scenario.tau_lambda"),
    ("scenario.solve_margin_program.self_s", "s", "self", "scenario.solve_margin_program"),
    ("scenario.solver.s", "s", "busy", SOLVER),
    ("scenario.solver.calls", "count", "calls", SOLVER),
    ("scenario.solver_rows", "rows", "rows_per_call", SOLVER),
    ("scenario.rows_per_scenario", "ratio", "rows_per_scenario", SOLVER),
    ("experiments.self_s", "s", "layer_self", "experiments"),
    ("experiments.vc_coverage.self_s", "s", "self", "experiments.vc_coverage"),
    ("experiments.relative_coverage.self_s", "s", "self", "experiments.relative_coverage"),
    ("experiments.margin_rad_coverage.self_s", "s", "self", "experiments.margin_rad_coverage"),
    ("experiments.regression_coverage.self_s", "s", "self", "experiments.regression_coverage"),
    ("experiments.symmetrization.self_s", "s", "self", "experiments.symmetrization"),
    ("experiments.scenario_coverage.self_s", "s", "self", "experiments.scenario_coverage"),
    ("experiments.concentration_exactness.self_s", "s", "self", "experiments.concentration_exactness"),
    ("experiments.quarter_lemma.self_s", "s", "self", "experiments.quarter_lemma"),
    ("experiments.chaining_dominance.self_s", "s", "self", "experiments.chaining_dominance"),
    ("experiments.replications", "count", "counter", "experiments.replications"),
    ("cli.self_s", "s", "layer_self", "cli"),
    ("cli.bytes_written", "B", "counter", "cli.bytes_written"),
]


def _argument(fn, name):
    """A cheap reader of ``fn``'s argument ``name`` from a call's
    ``(args, kwargs)``, or None if ``fn`` has no such parameter."""
    params = inspect.signature(fn).parameters
    if name not in params:
        return None
    position = list(params).index(name)
    default = params[name].default

    def read(args, kwargs):
        if position < len(args):
            return args[position]
        return kwargs.get(name, default)

    return read


class _Proxy:
    """Stands in for a module: the given attributes are replaced, every
    other one is read from the module."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.counts = Counter()
        self._names = []
        self._name_ids = {}
        self._next_id = itertools.count()
        self._stack = []
        self._patched = []
        self.span_id = array("q")
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn, after=None, rename=None):
        """Return ``fn`` recording one span per call while enabled.

        ``after(result, args, kwargs)`` runs on success, timed as a
        ``tracer.hook`` span, and may replace the result;
        ``rename(args, kwargs)`` picks the span name per call.
        """
        tracer = self
        default_id = self._name_to_id(name)
        hook_id = self._name_to_id(HOOK)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            nid = default_id if rename is None else tracer._name_to_id(
                rename(args, kwargs))
            parent = stack[-1] if stack else -1
            sid = next(tracer._next_id)
            stack.append(sid)
            ok = 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = 1
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._record(sid, nid, parent, t0, t1, ok)
            if after is not None:
                result = after(result, args, kwargs)
                tracer._record(next(tracer._next_id), hook_id, parent, t1,
                               time.perf_counter(), 1)
            return result

        return traced

    def _record(self, sid, nid, parent, t0, t1, ok):
        self.span_id.append(sid)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.start.append(t0)
        self.end.append(t1)
        self.ok.append(ok)

    def _name_to_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer wherever they are bound."""
        modules = [m for name, m in sys.modules.items()
                   if name == "seqbounds" or name.startswith("seqbounds.")]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"seqbounds.{layer}"]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                replacements[id(fn)] = self.wrap(f"{layer}.{attr}", fn,
                                                 **self._hooks(layer, attr, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    self._patch(module, attr, replacements[id(value)])
        scenario = sys.modules["seqbounds.scenario"]
        optimize = scenario.optimize
        self._patch(scenario, "optimize", _Proxy(
            optimize,
            linprog=self.wrap(SOLVER, optimize.linprog,
                              after=self._count_linprog_rows),
            minimize=self.wrap(SOLVER, optimize.minimize,
                               after=self._count_minimize_rows)))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module, attr, value):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _hooks(self, layer, attr, fn):
        if (layer, attr) == ("estimators", "threshold_risk_oracle"):
            return {"after": lambda oracle, a, k: self.wrap(
                "estimators.risk_oracle", oracle)}
        if (layer, attr) == ("processes", "simulate_sequence"):
            return {"after": self._count_draws(fn)}
        if (layer, attr) == ("scenario", "solve_margin_program"):
            return {"after": self._count_scenario_rows}
        if layer != "experiments":
            return {}
        # one span name per validate op; counts the replications asked for
        name = f"experiments.{_EXPERIMENT_OPS.get(attr, attr)}"
        replications = _argument(fn, "replications") or _argument(fn, "instances")
        relative = attr == "vc_coverage" and _argument(fn, "relative")

        def rename(args, kwargs):
            if relative and relative(args, kwargs):
                return "experiments.relative_coverage"
            return name

        def after(result, args, kwargs):
            if replications:
                self.counts["experiments.replications"] += replications(args, kwargs)
            return result

        return {"rename": rename, "after": after}

    def _count_draws(self, fn):
        n = _argument(fn, "n")

        def after(result, args, kwargs):
            self.counts["processes.draws"] += n(args, kwargs)
            return result

        return after

    def _count_scenario_rows(self, result, args, kwargs):
        program, scenarios = args[0], args[1]
        xs = np.asarray(getattr(scenarios, "x", scenarios))
        self.counts["scenario.scenario_rows"] += xs.shape[0] * len(program.pieces)
        self.counts["scenario.solves"] += 1
        return result

    def _count_linprog_rows(self, result, args, kwargs):
        for key in ("A_ub", "A_eq"):
            if kwargs.get(key) is not None:
                self.counts["scenario.solver_rows"] += np.shape(kwargs[key])[0]
        return result

    def _count_minimize_rows(self, result, args, kwargs):
        x0 = args[1] if len(args) > 1 else kwargs["x0"]
        constraints = kwargs.get("constraints", ())
        if isinstance(constraints, dict):
            constraints = [constraints]
        for con in constraints:
            self.counts["scenario.solver_rows"] += np.atleast_1d(
                con["fun"](np.asarray(x0, float))).size
        return result

    # -- reporting --------------------------------------------------------

    def _spans(self):
        ids = np.frombuffer(self.span_id, dtype=np.int64)
        row_of = np.full(ids.max() + 2, -1, dtype=np.int64)
        row_of[ids] = np.arange(ids.size)      # row_of[-1] stays -1: no parent
        parent = row_of[np.frombuffer(self.parent, dtype=np.int64)]
        return (np.frombuffer(self.name_id, dtype=np.int64), parent,
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.ok, dtype=np.int8))

    @staticmethod
    def _child_cover(parent, start, end):
        """Per span: the summed length of its children's intervals."""
        cover = np.zeros(start.size)
        rows = np.nonzero(parent >= 0)[0]
        rows = rows[np.lexsort((start[rows], parent[rows]))]
        p, s, e = parent[rows], start[rows], end[rows]
        if np.any((p[1:] == p[:-1]) & (s[1:] < e[:-1])):
            raise RuntimeError("child spans of one parent overlap: the program "
                               "ran traced calls on several threads")
        np.add.at(cover, p, e - s)
        return cover

    def metrics(self, passes):
        """Every PER_LAYER metric; totals are per pass.  Spans that raised
        are left out."""
        index = {n: i for i, n in enumerate(self._names)}
        busy = own = calls = np.zeros(len(self._names))
        if self.start:
            name_id, parent, start, end, ok = self._spans()
            duration = end - start
            self_time = duration - self._child_cover(parent, start, end)
            good = ok == 1
            size = len(self._names)
            busy = np.bincount(name_id[good], duration[good], size)
            own = np.bincount(name_id[good], self_time[good], size)
            calls = np.bincount(name_id[good], minlength=size)

        def pick(totals, name):
            return float(totals[index[name]]) if name in index else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        out = {}
        for metric, unit, kind, name in PER_LAYER:
            if kind == "draws_per_s":
                value = ratio(c["processes.draws"], pick(busy, name))
            elif kind == "rows_per_call":
                value = ratio(c["scenario.solver_rows"], pick(calls, name))
            elif kind == "rows_per_scenario":
                value = ratio(ratio(c["scenario.solver_rows"], pick(calls, name)),
                              ratio(c["scenario.scenario_rows"],
                                    c["scenario.solves"]))
            else:
                total = {
                    "busy": lambda: pick(busy, name),
                    "self": lambda: pick(own, name),
                    "calls": lambda: pick(calls, name),
                    "layer_self": lambda: sum(float(own[i]) for n, i in index.items()
                                              if n.startswith(name + ".")),
                    "counter": lambda: float(c[name]),
                }[kind]()
                value = total / passes
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Write every span as CSV: id, parent id, name, start, end, ok."""
        names = self._names
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,ok\n")
            fh.writelines(
                f"{i},{p},{names[n]},{s:.9f},{e:.9f},{k}\n"
                for i, p, n, s, e, k in zip(self.span_id, self.parent,
                                            self.name_id, self.start,
                                            self.end, self.ok))
        return len(self.start)
