"""Outside-in layer trace for one benchmark child process.

``install`` replaces the module bindings the pipeline calls through with
timing wrappers. Each wrapped call records a span (name, start, end, parent,
run id) in flat in-memory arrays; nothing is written until ``write_spans`` at
exit. A span's self time is its duration minus the time its child spans
cover, so the self times of all spans add up to the root spans' durations.

Only public names are wrapped. Private helpers (``_initial_entries``,
``_extension_models``, ...) stay inside the span of their public caller.

Counters come from the wrapped calls' arguments and results: machine steps
and emitting traces from each ``OutputTrace``, gate verdicts from each
``RefutationResult`` and its budget argument, cache hits from the
``ConCache`` objects the gate was handed, claim-set sizes from each
``accumulate_claims`` result.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

# Span names are "<layer>.<function>"; the layer is the first component.
LAYERS = ("bits", "machine", "consistency", "prover", "estimator", "harness", "svgplot", "logic")

# Every span the wiring below records. A run reports all of them, with zero
# calls for the ones its workload never reaches.
SPAN_NAMES = (
    "bits.random_bits",
    "machine.run_prefix",
    "consistency.consistent_enough",
    "consistency.ClaimSet.union",
    "consistency.ClaimSet.contains",
    "prover.refute_bounded",
    "prover.truth_table",
    "estimator.accumulate_claims",
    "estimator.membership_counts",
    "estimator.membership_counts_exact",
    "estimator.sequence_trajectories",
    "estimator.extension_probabilities",
    "harness.run_suite",
    "harness.run_crosscheck",
    "svgplot.render_chart",
    "logic.render_sentence",
)


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self.runs: list[str] = []
        self.name_of = array("H")
        self.run_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.run_id = 0
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.caches: dict[int, object] = {}

    def begin_run(self, label: str) -> None:
        self.runs.append(label)
        self.run_id = len(self.runs) - 1

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def wrap(self, name: str, fn, observe=None):
        """A wrapper recording one span per call of ``fn``. ``observe(args,
        kwargs, result, seconds)`` runs after the span closes."""
        name_id = self.names.index(name)
        clock = time.perf_counter
        stack, names, runs, parents = self.stack, self.name_of, self.run_of, self.parent
        starts, ends = self.start, self.end
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            runs.append(tracer.run_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(args, kwargs, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, root seconds, counters and
        raw samples; the parent process merges these across processes."""
        selfs = self_times(self.parent, self.start, self.end)
        spans: dict[str, list[float]] = {n: [0, 0.0, 0.0] for n in self.names}
        root_s = 0.0
        for i, self_s in enumerate(selfs):
            row = spans[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += self_s
            if self.parent[i] < 0:
                root_s += dur
        counters = dict(self.counters)
        counters["consistency.cache_hits"] = sum(c.hits for c in self.caches.values())
        counters["consistency.cache_misses"] = sum(c.misses for c in self.caches.values())
        return {"spans": spans, "root_s": root_s, "counters": counters, "samples": self.samples}

    def write_spans(self, path: Path) -> None:
        """One JSON header line, then the raw arrays in header order."""
        header = {
            "names": self.names,
            "runs": self.runs,
            "count": len(self.start),
            "arrays": [["name", "H"], ["run", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.run_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def self_times(parent, start, end) -> list[float]:
    selfs = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            selfs[p] -= end[i] - start[i]
    return selfs


def read_spans(path: Path) -> dict:
    """Inverse of ``Tracer.write_spans``: the header plus one array per field."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"header": header}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            out[field] = arr
    return out


# --- wiring -----------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the bindings the pipeline calls through. Imports happen here so
    the untraced child never loads this wiring."""
    from sentprob import cli, consistency, estimator, harness, prover

    def patch(owner, attr, name, observe=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))

    def suite_done(args, kwargs, result, seconds):
        tracer.count("harness.assertions_passed", sum(o.passed for o in result.outcomes))

    def crosscheck_done(args, kwargs, result, seconds):
        tracer.count("harness.assertions_passed", sum(r.passed for r in result.rows))

    def trace_done(args, kwargs, trace, seconds):
        tracer.count("machine.steps", trace.steps_used)
        tracer.count("machine.emitting", 1 if trace.emitted else 0)

    def gate_done(args, kwargs, accepted, seconds):
        tracer.count("consistency.accepted", 1 if accepted else 0)
        cache = args[2] if len(args) > 2 else kwargs.get("cache")
        if cache is not None:
            tracer.caches[id(cache)] = cache

    def refutation_done(args, kwargs, result, seconds):
        budget = args[1] if len(args) > 1 else kwargs["budget"]
        if result.refuted:
            tracer.count("prover.refuted")
            if result.steps_used == 0:
                tracer.count("prover.refuted_at_setup")
        elif result.saturated:
            tracer.count("prover.saturated")
        else:
            tracer.count("prover.budget_exhausted")
        tracer.count("prover.inferences", result.steps_used)
        tracer.sample("prover.refute_ms", seconds * 1e3)
        if budget > 0:
            tracer.sample("prover.budget_use", result.steps_used / budget)

    def accumulate_done(args, kwargs, claims, seconds):
        stage = args[1] if len(args) > 1 else kwargs["stage"]
        tracer.sample("estimator.accumulate_stage", stage.n)
        tracer.sample("estimator.accumulate_ms", seconds * 1e3)
        tracer.sample("estimator.claims_size", len(claims))

    patch(cli, "run_suite", "harness.run_suite", suite_done)
    patch(cli, "run_crosscheck", "harness.run_crosscheck", crosscheck_done)
    patch(harness, "sequence_trajectories", "estimator.sequence_trajectories")
    patch(harness, "render_chart", "svgplot.render_chart")
    for owner in (harness, estimator):
        patch(owner, "membership_counts", "estimator.membership_counts")
        patch(owner, "extension_probabilities", "estimator.extension_probabilities")
    patch(estimator, "membership_counts_exact", "estimator.membership_counts_exact")
    patch(estimator, "accumulate_claims", "estimator.accumulate_claims", accumulate_done)
    patch(estimator, "random_bits", "bits.random_bits")
    patch(estimator, "run_prefix", "machine.run_prefix", trace_done)
    patch(estimator, "consistent_enough", "consistency.consistent_enough", gate_done)
    patch(estimator, "truth_table", "prover.truth_table")
    patch(consistency, "refute_bounded", "prover.refute_bounded", refutation_done)
    patch(consistency.ClaimSet, "union", "consistency.ClaimSet.union")
    patch(consistency.ClaimSet, "__contains__", "consistency.ClaimSet.contains")
    for owner in (consistency, prover, harness):
        patch(owner, "render_sentence", "logic.render_sentence")
