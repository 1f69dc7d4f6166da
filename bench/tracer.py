"""Spans around treeshift's public functions, recorded from outside.

``Tracer.install`` replaces each listed function in every treeshift
module namespace that binds it (``moments``, ``matrices`` and ``cli``
import their dependencies by name, so patching only the defining module
would miss internal calls); ``uninstall`` puts the originals back.
Per-vertex accessors (``vertex_norm``, ``generation``, ``DirectedTree``
methods) stay unwrapped: they run 10^4-10^5 times per operation.

A span is (name, start, end, parent span index, operation id).  Spans
stay in memory until ``write``.  Self time is a span's duration minus
the durations of its direct children.  Counters are taken at the same
boundaries from the arguments and results of the wrapped call.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("trees", "shifts", "moments", "matrices", "cli")

TRACED = {
    "trees": ("materialize", "classify_tree"),
    "shifts": ("build_shift", "is_two_isometry", "satisfies_kernel_condition",
               "cauchy_dual", "classify_adjacency", "shift_invariants",
               "operator_norm", "are_unitarily_equivalent",
               "are_unitarily_equivalent_multiset"),
    "moments": ("moment_sequence", "stieltjes_test", "hausdorff_test",
                "dual_subnormality", "perturbed_kernel_dual_moment",
                "reciprocal_linear_moments", "backward_extension"),
    "matrices": ("truncate", "defect", "dual_matrix", "gram_diag",
                 "verify_table1", "build_brownian_shift",
                 "block_shift_from_atoms"),
    "cli": ("parse_spec", "run_suite", "run_demo", "main"),
}

DECISION_PATHS = ("cdsubn", "BrownianG", "constant-t", "main2",
                  "generic-moment-test")

# Dense-kernel cost model for a d x d float64 operand, labelled
# "computed": a matrix product is 2 d^3 flops and touches three d x d
# arrays; a symmetric eigendecomposition with vectors is taken as 9 d^3
# flops (Golub & Van Loan) touching three arrays as well.
_MATMUL, _EIGH = 2, 9


def _dense(tracer: "Tracer", d: int, matmuls: int, eighs: int = 0) -> None:
    c = tracer.counts
    c["matrices.dense_flops_computed"] += (matmuls * _MATMUL
                                           + eighs * _EIGH) * d ** 3
    c["matrices.dense_bytes_computed"] += (matmuls + eighs) * 3 * 8 * d * d
    c["matrices.dense_dim_max"] = max(c["matrices.dense_dim_max"], d)


def _matrix_power_products(n: int) -> int:
    return 0 if n < 2 else n.bit_length() - 1 + bin(n).count("1") - 1


def _hook_materialize(t, args, kwargs, tree):
    t.counts["trees.vertices"] += tree.vertex_count


def _hook_stieltjes(t, args, kwargs, verdict):
    if verdict.failing_order is not None:
        order = verdict.failing_order
    else:
        order = (len(args[0]) - 1) // 2
    t.counts["moments.hankel_order_sum"] += order


def _hook_subnormality(t, args, kwargs, report):
    t.counts[f"moments.decision_path.{report.decision_path}"] += 1


def _hook_truncate(t, args, kwargs, trunc):
    _dense(t, trunc.dim, 0)


def _hook_defect(t, args, kwargs, out):
    m = args[1] if len(args) > 1 else kwargs["m"]
    _dense(t, out.shape[0], 2 * m + 1)


def _hook_dual_matrix(t, args, kwargs, dual):
    _dense(t, dual.dim, 4, 1)


def _hook_gram_diag(t, args, kwargs, out):
    n = args[1] if len(args) > 1 else kwargs["n"]
    _dense(t, out.shape[0], _matrix_power_products(n))


def _hook_verify_table1(t, args, kwargs, report):
    op = args[0]
    if hasattr(op, "dim"):
        d = op.dim
    else:
        depth = args[3] if len(args) > 3 else kwargs.get("depth")
        gens = op.tree.generations()
        d = sum(len(g) for g in (gens if depth is None else gens[:depth + 1]))
    # gram + eigh, then per order: one dual power (n > 0), the lhs product
    # and the two products of the spectral right-hand side
    _dense(t, d, 1 + 3 * (report.nmax + 1) + report.nmax, 1)


def _hook_built(t, args, kwargs, result):
    trunc = result[0] if isinstance(result, tuple) else result
    _dense(t, trunc.dim, 0)


HOOKS = {
    "trees.materialize": _hook_materialize,
    "moments.stieltjes_test": _hook_stieltjes,
    "moments.dual_subnormality": _hook_subnormality,
    "matrices.truncate": _hook_truncate,
    "matrices.defect": _hook_defect,
    "matrices.dual_matrix": _hook_dual_matrix,
    "matrices.gram_diag": _hook_gram_diag,
    "matrices.verify_table1": _hook_verify_table1,
    "matrices.build_brownian_shift": _hook_built,
    "matrices.block_shift_from_atoms": _hook_built,
}


class Tracer:
    """Records spans and counters for the wrapped treeshift functions."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [importlib.import_module("treeshift")]
        modules += [importlib.import_module(f"treeshift.{m}") for m in LAYERS]
        for layer in LAYERS:
            defining = importlib.import_module(f"treeshift.{layer}")
            for fname in TRACED[layer]:
                original = getattr(defining, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._patches.append((mod, fname, original, wrapper))

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            self.counts[f"{name}.calls"] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod, fname, _, wrapper in self._patches:
            setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original, _ in self._patches:
            setattr(mod, fname, original)

    def take_counts(self) -> Counter:
        counts, self.counts = self.counts, Counter()
        return counts

    def self_ms(self, first_span: int) -> dict[str, float]:
        """Self time in ms per function name over spans[first_span:]."""
        child_total: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first_span:]:
            if parent >= 0:
                child_total[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in range(first_span, len(self.spans)):
            name, start, end, _, _ = self.spans[i]
            out[name] += (end - start - child_total.get(i, 0.0)) * 1e3
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


PER_LAYER = [
    ("trees.self_ms", "ms"), ("shifts.self_ms", "ms"),
    ("moments.self_ms", "ms"), ("matrices.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trees.materialize.ms", "ms"), ("trees.materialize.calls", "count"),
    ("trees.vertices", "count"), ("trees.classify_tree.ms", "ms"),
    ("shifts.build_shift.ms", "ms"), ("shifts.is_two_isometry.ms", "ms"),
    ("shifts.satisfies_kernel_condition.ms", "ms"),
    ("shifts.satisfies_kernel_condition.calls", "count"),
    ("shifts.cauchy_dual.ms", "ms"), ("shifts.cauchy_dual.calls", "count"),
    ("shifts.classify_adjacency.ms", "ms"),
    ("shifts.shift_invariants.ms", "ms"),
    ("moments.moment_sequence.ms", "ms"),
    ("moments.moment_sequence.calls", "count"),
    ("moments.stieltjes_test.ms", "ms"),
    ("moments.stieltjes_test.calls", "count"),
    ("moments.hankel_order_sum", "count"),
    ("moments.hausdorff_test.ms", "ms"),
    ("moments.dual_subnormality.ms", "ms"),
    ("moments.perturbed_kernel_dual_moment.ms", "ms"),
] + [(f"moments.decision_path.{p}", "count") for p in DECISION_PATHS] + [
    ("matrices.truncate.ms", "ms"), ("matrices.defect.ms", "ms"),
    ("matrices.dual_matrix.ms", "ms"), ("matrices.dual_matrix.calls", "count"),
    ("matrices.verify_table1.ms", "ms"), ("matrices.dense_dim_max", "count"),
    ("matrices.dense_flops_computed", "flop"),
    ("matrices.dense_bytes_computed", "B"),
    ("matrices.cold_eigh_ms", "ms"),
    ("cli.parse_spec.ms", "ms"), ("cli.run_suite.ms", "ms"),
    ("cli.run_demo.ms", "ms"), ("cli.main.ms", "ms"),
    ("cli.report_bytes", "B"),
    ("trace.overhead_pct", "%"),
]

#: Counts that must repeat exactly between passes and between runs with
#: the same seed.
EXACT = [name for name, unit in PER_LAYER
         if unit in ("count", "flop")] + ["matrices.dense_bytes_computed"]


def layer_self_ms(per_fn: dict[str, float]) -> dict[str, float]:
    out = {f"{layer}.self_ms": 0.0 for layer in LAYERS}
    for name, ms in per_fn.items():
        out[f"{name.split('.')[0]}.self_ms"] += ms
    return out
