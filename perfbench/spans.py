"""In-memory spans recorded around calls into the productmix modules.

Nothing in the package is instrumented.  ``instrument`` replaces public
functions of each module (and the names other modules imported from it) with
wrappers that record one span per call: its name, start, end, parent span and
operation id.  Spans are only recorded while an operation is open, so
correctness checks that call the same functions between operations leave no
trace.  ``layer_metrics`` turns the spans and counters into the per-layer
figures the benchmark reports.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    """Spans kept in parallel arrays (one entry per span) plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def run_op(self, name: str, fn, *args):
        """Run one operation as a root span with its own operation id."""
        self._op = self._ops
        self._ops += 1
        idx = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.finish(idx)
            self._op = -1

    def count(self, key: str, amount: int = 1) -> None:
        if self._op >= 0:
            self.counts[key] += amount

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """Span-recording wrapper; hooks add counters from args or result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(self, args, kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def span_name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in range(len(self))]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                kids[parent].append(idx)
        return kids

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        kids = self.children()
        return [
            self_time(
                self.start[i],
                self.end[i],
                [(self.start[c], self.end[c]) for c in kids[i]],
            )
            for i in range(len(self))
        ]

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self)):
                fh.write(
                    json.dumps(
                        [
                            self.span_name(i),
                            self.start[i],
                            self.end[i],
                            self.parent[i],
                            self.op[i],
                        ]
                    )
                )
                fh.write("\n")


def self_time(start: float, end: float, children) -> float:
    """``end - start`` minus the union of the child intervals inside it."""
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, reach)
        c_end = min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# Instrumentation of the productmix modules
# ---------------------------------------------------------------------------

KERNEL_FUNCTIONS = ("indirect_utility", "demand_masks", "unique_bundle", "min_step")


def _count_rows(tracer, args, kwargs):
    tracer.count("kernels.calls")
    tracer.count("kernels.rows", len(args[0]))


def _count_sfm(limit):
    def hook(tracer, args, kwargs):
        tracer.count("sfm.calls")
        if args[0].n > limit:
            tracer.count("sfm.wide_calls")

    return hook


def _count_descent(tracer, result):
    tracer.count("pricing.iterations", result[1].iterations)


def _count_allocation(tracer, result):
    tracer.count("allocation.iterations", result.iterations)


def _count_subsets(tracer, result):
    tracer.count("validity.subsets_checked", result.subsets_checked)


def instrument(tracer: Tracer) -> list:
    """Wrap the public entry points of every layer.

    Returns the replaced attributes as (owner, name, original) triples for
    ``restore``.
    """
    from productmix import allocation, core, graphs, kernels, pricing, sfm, validity

    saved = []

    def patch(owner, name, value):
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def wrap(owners, fname, span, on_call=None, on_result=None):
        """Wrap owners[0].fname, also where other modules imported it."""
        wrapped = tracer.wrap(span, getattr(owners[0], fname), on_call, on_result)
        for owner in owners:
            patch(owner, fname, wrapped)

    lanes = [kernels.pure] + ([kernels._fast] if kernels.HAVE_COMPILED else [])
    for lane in lanes:
        for fname in KERNEL_FUNCTIONS:
            wrap([lane], fname, f"kernels.{fname}", on_call=_count_rows)

    build = core.ScaledBids.__dict__["build"].__func__
    counted_build = tracer.wrap("core.build", build, on_call=_tally("core.build_calls"))
    patch(core.ScaledBids, "build", classmethod(counted_build))
    wrap([core, allocation], "is_demanded", "core.is_demanded")

    hook = _count_sfm(sfm.BRUTE_FORCE_LIMIT)
    for fname in ("minimise", "minimal_minimiser"):
        wrap([sfm], fname, f"sfm.{fname}", on_call=hook)
    patch(sfm, "SetFunction", _counting_set_function(sfm.SetFunction, tracer))

    wrap([pricing.PriceProblem], "__init__", "pricing.PriceProblem")
    wrap([pricing], "long_step_min_up", "pricing.long_step_min_up", on_result=_count_descent)
    wrap(
        [pricing],
        "steepest_direction",
        "pricing.steepest_direction",
        on_call=_tally("pricing.direction_calls"),
    )
    for fname in ("step_length_binary", "step_length_demand_change"):
        wrap([pricing], fname, f"pricing.{fname}", on_call=_tally("pricing.step_length_calls"))

    for fname in ("build_marginal_graph", "find_params", "priority_params"):
        wrap([graphs, allocation], fname, f"graphs.{fname}", on_call=_tally("graphs.calls"))

    wrap([allocation], "allocate", "allocation.allocate", on_result=_count_allocation)
    for fname, counter in (
        ("initial_problem", None),
        ("non_marginals", None),
        ("unambiguous_marginals", "allocation.cluster_calls"),
        ("shift_project_unshift", "allocation.cycle_calls"),
    ):
        wrap([allocation], fname, f"allocation.{fname}", on_call=counter and _tally(counter))

    wrap(
        [validity],
        "check_validity",
        "validity.check_validity",
        on_call=_tally("validity.calls"),
        on_result=_count_subsets,
    )
    return saved


def restore(saved) -> None:
    """Undo ``instrument``."""
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)


def _tally(key):
    def hook(tracer, args, kwargs):
        tracer.count(key)

    return hook


def _counting_set_function(base, tracer):
    """SetFunction whose callback counts every oracle evaluation."""

    class CountingSetFunction(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fn = self.fn

            def counted(s):
                tracer.count("sfm.oracle_evals")
                return fn(s)

            self.fn = counted

    return CountingSetFunction


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

UNITS = {
    "kernels.calls": "calls/op",
    "kernels.rows": "rows/op",
    "kernels.self_s": "s/op",
    "core.build_calls": "calls/op",
    "core.build_self_s": "s/op",
    "core.verify_s": "s/op",
    "sfm.calls": "calls/op",
    "sfm.oracle_evals": "evals/op",
    "sfm.wide_ground_share": "ratio",
    "sfm.self_s": "s/op",
    "pricing.iterations": "steps/op",
    "pricing.direction_calls": "calls/op",
    "pricing.sfm_free_share": "ratio",
    "pricing.step_length_calls": "calls/op",
    "pricing.self_s": "s/op",
    "graphs.calls": "calls/op",
    "graphs.self_s": "s/op",
    "allocation.iterations": "iterations/op",
    "allocation.cycle_calls": "calls/op",
    "allocation.cluster_calls": "calls/op",
    "allocation.cycle_s": "s/op",
    "allocation.self_s": "s/op",
    "validity.calls": "calls/op",
    "validity.subsets_checked": "subsets/op",
    "validity.subsets_per_s": "1/s",
    "validity.self_s": "s/op",
    "testgen.gen_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation counts and times for every layer, plus shares."""
    self_s: dict[str, float] = defaultdict(float)  # by layer and by span name
    inclusive: dict[str, float] = defaultdict(float)  # by span name
    for i, s in enumerate(tracer.self_times()):
        name = tracer.span_name(i)
        self_s[layer_of(name)] += s
        self_s[name] += s
        inclusive[name] += tracer.end[i] - tracer.start[i]

    # a descent-direction call is SFM-free when no SFM span sits below it
    kids = tracer.children()
    directions = free = 0
    for i in range(len(tracer)):
        if tracer.span_name(i) == "pricing.steepest_direction":
            directions += 1
            free += not any(layer_of(tracer.span_name(k)) == "sfm" for k in kids[i])

    c = tracer.counts
    totals = {
        "kernels.calls": c["kernels.calls"],
        "kernels.rows": c["kernels.rows"],
        "kernels.self_s": self_s["kernels"],
        "core.build_calls": c["core.build_calls"],
        "core.build_self_s": self_s["core.build"],
        "core.verify_s": inclusive["core.is_demanded"],
        "sfm.calls": c["sfm.calls"],
        "sfm.oracle_evals": c["sfm.oracle_evals"],
        "sfm.self_s": self_s["sfm"],
        "pricing.iterations": c["pricing.iterations"],
        "pricing.direction_calls": c["pricing.direction_calls"],
        "pricing.step_length_calls": c["pricing.step_length_calls"],
        "pricing.self_s": self_s["pricing"],
        "graphs.calls": c["graphs.calls"],
        "graphs.self_s": self_s["graphs"],
        "allocation.iterations": c["allocation.iterations"],
        "allocation.cycle_calls": c["allocation.cycle_calls"],
        "allocation.cluster_calls": c["allocation.cluster_calls"],
        "allocation.cycle_s": inclusive["allocation.shift_project_unshift"],
        "allocation.self_s": self_s["allocation"],
        "validity.calls": c["validity.calls"],
        "validity.subsets_checked": c["validity.subsets_checked"],
        "validity.self_s": self_s["validity"],
    }
    out = {key: value / ops for key, value in totals.items()}
    out["sfm.wide_ground_share"] = _ratio(c["sfm.wide_calls"], c["sfm.calls"])
    out["pricing.sfm_free_share"] = _ratio(free, directions)
    out["validity.subsets_per_s"] = _ratio(
        c["validity.subsets_checked"], inclusive["validity.check_validity"]
    )
    return {key: out[key] for key in UNITS if key in out}
