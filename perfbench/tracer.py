"""Outside-in span tracer for the slumpgp layers.

The tracer swaps module-global bindings (the names callers look functions up
by) for timing wrappers and restores them afterwards; no program file is
edited. Only the bindings in `slumpgp.cli`, `slumpgp.gsgp` and
`slumpgp.baselines` are wrapped, so recursion inside `expr` (`eval_matrix`,
`tree_size`) calls the unwrapped function and is not spanned.

Every wrapped call records its duration and self time (duration minus the
time its wrapped callees took). Calls with no wrapped callee ("leaves") are
aggregated per parent span; every other call records a span
(name, start, end, parent span, invocation id, self time). Spans stay in
memory until `write` is called once at the end of a run.

A binding that no longer exists is skipped and its metrics read 0, so a
refactor that deletes or renames a function does not fail the benchmark.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name): the binding is wrapped where its caller
# looks it up, and reported under the module that defines the function.
BINDINGS = (
    ("slumpgp.cli", "evolve", "gsgp.evolve"),
    ("slumpgp.cli", "archive_individual", "gsgp.archive_individual"),
    ("slumpgp.cli", "replay_semantics", "gsgp.replay_semantics"),
    ("slumpgp.cli", "stgp_run", "baselines.stgp_run"),
    ("slumpgp.cli", "lssvm_grid_search", "baselines.lssvm_grid_search"),
    ("slumpgp.cli", "lssvm_fit", "baselines.lssvm_fit"),
    ("slumpgp.cli", "lssvm_predict", "baselines.lssvm_predict"),
    ("slumpgp.cli", "wilcoxon_rank_sum", "stats.wilcoxon_rank_sum"),
    ("slumpgp.cli", "box_summary", "stats.box_summary"),
    ("slumpgp.cli", "relative_errors", "stats.relative_errors"),
    ("slumpgp.cli", "pearson_r", "stats.pearson_r"),
    ("slumpgp.cli", "load_csv", "dataset.load_csv"),
    ("slumpgp.cli", "split", "dataset.split"),
    ("slumpgp.gsgp", "tournament_select", "gsgp.tournament_select"),
    ("slumpgp.gsgp", "geometric_crossover", "gsgp.geometric_crossover"),
    ("slumpgp.gsgp", "geometric_mutation", "gsgp.geometric_mutation"),
    ("slumpgp.gsgp", "fitness", "gsgp.fitness"),
    ("slumpgp.gsgp", "eval_matrix", "expr.eval_matrix"),
    ("slumpgp.gsgp", "sigmoid", "expr.sigmoid"),
    ("slumpgp.gsgp", "random_tree", "expr.random_tree"),
    ("slumpgp.gsgp", "ramped_half_and_half", "expr.ramped_half_and_half"),
    ("slumpgp.gsgp", "to_infix", "expr.to_infix"),
    ("slumpgp.gsgp", "parse_infix", "expr.parse_infix"),
    ("slumpgp.gsgp", "tree_size", "expr.tree_size"),
    ("slumpgp.baselines", "fitness", "gsgp.fitness"),
    ("slumpgp.baselines", "eval_matrix", "expr.eval_matrix"),
    ("slumpgp.baselines", "random_tree", "expr.random_tree"),
    ("slumpgp.baselines", "ramped_half_and_half", "expr.ramped_half_and_half"),
    ("slumpgp.baselines", "tree_size", "expr.tree_size"),
    ("slumpgp.baselines", "tree_depth", "expr.tree_depth"),
)

# Span names whose calls reach no other wrapped binding.
LEAVES = frozenset(
    {
        "baselines.lssvm_fit",
        "baselines.lssvm_grid_search",
        "baselines.lssvm_predict",
        "dataset.load_csv",
        "dataset.split",
        "expr.eval_matrix",
        "expr.parse_infix",
        "expr.ramped_half_and_half",
        "expr.random_tree",
        "expr.sigmoid",
        "expr.to_infix",
        "expr.tree_depth",
        "expr.tree_size",
        "gsgp.fitness",
        "gsgp.tournament_select",
        "stats.box_summary",
        "stats.pearson_r",
        "stats.relative_errors",
        "stats.wilcoxon_rank_sum",
    }
)


def _node_count(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


class Tracer:
    """Collects spans and per-invocation totals while its wrappers are installed."""

    def __init__(self, bindings=BINDINGS, leaves=LEAVES):
        self.bindings = bindings
        self.leaves = leaves
        self.missing: list[str] = []
        self.spans: list[list] = []  # [name, start, end, parent, invocation, self_s]
        self.leaf_calls: dict[tuple, list] = {}  # (parent span, name) -> [calls, s]
        self.invocation = -1
        self._stack: list[list] = []  # open spans: [span id, seconds covered by callees]
        self._totals: dict[str, list] = {}  # name -> [calls, s, self_s]
        self._counts: dict[str, int] = {}
        self._max_depth = None  # depth cap of the stgp_run in progress

    # -- per-invocation bookkeeping --------------------------------------

    def begin(self, invocation: int) -> None:
        self.invocation = invocation
        self._totals = {}
        self._counts = {}

    def finish(self) -> dict[str, float]:
        """Totals of the invocation since `begin`, keyed by metric name."""
        out: dict[str, float] = {}
        for name, (calls, seconds, self_seconds) in self._totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = seconds
            out[f"{name}.self_s"] = self_seconds
        out.update(self._counts)
        built = self._counts.get("baselines.stgp_run.offspring", 0)
        rejected = self._counts.get("baselines.stgp_run.depth_rejects", 0)
        out["baselines.stgp_run.depth_reject_ratio"] = rejected / built if built else 0.0
        return out

    def _count(self, key: str, n: int) -> None:
        self._counts[key] = self._counts.get(key, 0) + n

    # -- counters taken from arguments and results -----------------------

    def _before(self, name: str, args) -> None:
        if name == "baselines.stgp_run":
            self._max_depth = getattr(args[0], "max_depth", None)

    def _after(self, name: str, args, result) -> None:
        if name == "expr.eval_matrix":
            self._count("expr.eval_matrix.node_rows", _node_count(args[0]) * len(args[1]))
        elif name == "expr.tree_depth" and self._max_depth is not None:
            self._count("baselines.stgp_run.offspring", 1)
            self._count("baselines.stgp_run.depth_rejects", int(result > self._max_depth))
        elif name == "gsgp.archive_individual":
            self._count("gsgp.archive_individual.records", len(result["records"]))
            self._count("gsgp.archive_individual.trees", len(result["trees"]))
        elif name == "gsgp.replay_semantics":
            self._count(
                "gsgp.replay_semantics.vector_bytes", len(args[0]["records"]) * len(args[1]) * 8
            )
        elif name == "dataset.load_csv":
            self._count("dataset.load_csv.rows", len(result))
        elif name == "baselines.stgp_run":
            self._max_depth = None

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call is timed under `name`."""
        leaf = name in self.leaves
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = None
            if not leaf:
                frame = [len(tracer.spans), 0.0]
                tracer.spans.append(None)
                stack.append(frame)
            tracer._before(name, args)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                seconds = end - start
                covered = 0.0
                if frame is not None:
                    stack.pop()
                    covered = frame[1]
                    tracer.spans[frame[0]] = [
                        name, start, end, parent[0] if parent else None,
                        tracer.invocation, seconds - covered,
                    ]
                elif parent is not None:
                    agg = tracer.leaf_calls.setdefault((parent[0], name), [0, 0.0])
                    agg[0] += 1
                    agg[1] += seconds
                if parent is not None:
                    parent[1] += seconds
                total = tracer._totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += seconds
                total[2] += seconds - covered
            try:
                tracer._after(name, args, result)
            except (AttributeError, KeyError, TypeError):
                pass  # a reshaped argument or result drops the count, not the call
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding that exists; restore the originals on exit."""
        saved = []
        self.missing = []
        try:
            for module_name, attr, name in self.bindings:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        """Write every span and leaf aggregate recorded so far as one JSON file."""
        doc = {
            "span_fields": ["name", "start", "end", "parent", "invocation", "self_s"],
            "spans": self.spans,
            "leaf_fields": ["parent", "name", "calls", "s"],
            "leaf_calls": [[p, n, c, s] for (p, n), (c, s) in self.leaf_calls.items()],
            "missing_bindings": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
