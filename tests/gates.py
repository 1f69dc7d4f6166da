"""Resource gates: runs at the vertex budget that must finish in time,
stay under a peak-RSS bound and give the results they are known to give.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/gates.py

Each row of ``GATES`` names a run: a run spec for ``treeshift.cli.main``,
or a function of this module.  The runner starts each row in a fresh
interpreter (``python -c``), one at a time, killed at the row's timeout.
The child times itself, reads its own peak RSS (``ru_maxrss``) and
prints both, with what it observed, as one JSON line.  The runner prints
one JSON line per row (name, wall time, peak, timeout, bound and the
breaches found) and exits 1, naming every row that breached its timeout,
its bound or an expected result.

A spec row observes ``exit`` (the exit code of ``main``), ``canonical``
(whether the report's bytes are ``json.dumps(sort_keys=True, indent=2)``
of itself) and ``results`` (the ``result`` of each command).  An
expectation names an observed value by a dotted path, such as
``results.2.decision_path``; ``Same(row)`` expects the value that an
earlier row observed under the same path.

``ru_maxrss`` survives ``exec``: a child reads at least the peak of the
process that started it.  So the runner imports the stdlib only, and
``treeshift`` is imported by the functions that run in a child.
"""
from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

HERE = Path(__file__).resolve().parent


class Same(NamedTuple):
    """Expect the value that the row named ``row`` observed."""

    row: str


class Gate(NamedTuple):
    name: str
    #: a run spec for ``treeshift.cli.main``, or a function of this
    #: module that returns what it observed
    run: dict | Callable[[], dict]
    #: dotted path into the observed values -> expected value or Same
    expect: dict[str, Any]
    timeout_s: float = 30.0
    bound_mb: float | None = None


# ---------------------------------------------------------------------------
# what a child runs
# ---------------------------------------------------------------------------

def run_spec(spec: dict) -> dict:
    """Run ``spec`` through ``treeshift.cli.main`` as the command line
    does (from a file, report written with ``--out``)."""
    from treeshift.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        spec_path, out = Path(tmp, "spec.json"), Path(tmp, "report.json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["--spec", str(spec_path), "--quiet", "--out", str(out)])
        if not out.exists():
            return {"exit": code}
        text = out.read_text(encoding="utf-8")
    report = json.loads(text)
    return {"exit": code,
            "canonical": text == json.dumps(report, sort_keys=True,
                                            indent=2) + "\n",
            "results": [entry.get("result") for entry in report["results"]]}


def full_tree(spec: dict) -> dict:
    """The commands of a generation-rule spec run on the rule's tree built
    vertex by vertex: one child per vertex past the rule and none on the
    last generation, a full tree."""
    import numpy as np
    from treeshift import DirectedTree, build_shift
    from treeshift.cli import RunSpec, parse_spec, run_suite

    text = json.dumps(spec)
    parsed = parse_spec(text)
    depth, rows = parsed.tree.depth, spec["tree"]["rule"]
    sizes = [1] + [sum(row) for row in rows]
    sizes += [sizes[-1]] * (depth + 1 - len(sizes))
    degrees = np.concatenate([
        np.concatenate(rows),
        np.ones(sum(sizes[len(rows):-1]), dtype=np.int64),
        np.zeros(sizes[-1], dtype=np.int64)])
    full = DirectedTree(degrees, sizes)
    report, _ = run_suite(RunSpec(parsed.tree, parsed.weights,
                                  parsed.commands,
                                  build_shift(parsed.weights, full)))
    # through JSON, as a report read back from --out
    results = json.loads(json.dumps([e.get("result")
                                     for e in report["results"]]))
    return {"full": full.class_count == full.vertex_count,
            "results": results}


QB_TREE = {"kind": "quasi_brownian", "valency": 3, "depth": 1413}
ADJACENCY = {"kind": "adjacency"}
QB_CLASSES = {
    "tree": QB_TREE, "weights": ADJACENCY,
    "commands": [{"name": "materialize"}, {"name": "check-2iso"},
                 {"name": "check-kernel", "expect": False},
                 {"name": "classify-adjacency"},
                 {"name": "dual-subnormality"}]}
STAR_CLASSES = {
    "tree": {"kind": "t_eta_kappa", "eta": 666666, "depth": 3},
    "weights": {"kind": "kernel_condition", "x": 1.3},
    "commands": [{"name": "materialize"}, {"name": "check-2iso"},
                 {"name": "check-kernel"}, {"name": "classify-adjacency"},
                 {"name": "dual-subnormality"}]}
STAR_RULE = {**STAR_CLASSES, "tree": {"kind": "generation_rule",
                                      "rule": [[666666]], "depth": 3}}


def _qb_rule_spec() -> dict:
    return {**QB_CLASSES, "tree": {
        "kind": "generation_rule", "depth": 1413,
        "rule": [[3] + [1] * (2 * n) for n in range(1413)]}}


def _constancy_spec(rule: list, depth: int) -> dict:
    return {"tree": {"kind": "generation_rule", "rule": rule,
                     "depth": depth},
            "weights": {"kind": "kernel_condition", "x": 1.3},
            "commands": [{"name": "check-2iso"}, {"name": "check-kernel"},
                         {"name": "dual-subnormality",
                          "expect": "subnormal"}]}


def explicit_path() -> dict:
    n = 200_000
    return run_spec({"tree": {"kind": "explicit", "edges": [
        [f"v{i}", f"v{i + 1}"] for i in range(n)]},
        "weights": ADJACENCY, "commands": [{"name": "materialize"}]})


def with_classes(spec: dict) -> dict:
    """``run_spec``, and the class count of the spec's tree."""
    from treeshift import TreeSpec, materialize

    observed = run_spec(spec)
    observed["class_count"] = materialize(TreeSpec(**spec["tree"])).class_count
    return observed


def qb_classes() -> dict:
    return with_classes(QB_CLASSES)


def qb_rule() -> dict:
    return with_classes(_qb_rule_spec())


def star_classes() -> dict:
    return with_classes(STAR_CLASSES)


def star_rule() -> dict:
    return with_classes(STAR_RULE)


def qb_full() -> dict:
    return full_tree(_qb_rule_spec())


def star_full() -> dict:
    return full_tree(STAR_RULE)


def child_index_path() -> dict:
    observed = run_spec({"tree": QB_TREE, "weights": ADJACENCY, "commands": [
        {"name": "moments", "vertex": [1, 0, 0], "dual": True},
        {"name": "moments", "vertex": "g3:5", "dual": True}]})
    by_path, by_id = observed.pop("results")
    return {**observed, "same": by_path == by_id}


def _qb_tree():
    from treeshift import TreeSpec, materialize

    return materialize(TreeSpec(**QB_TREE))


def lookups() -> dict:
    from dataclasses import astuple

    tree = _qb_tree()
    return {"vertex": astuple(tree.vertex("g700:3")),
            "children_of": tree.children_of("g5:0"),
            "parent_of": tree.parent_of("g1413:7"),
            "resolve_path": tree.resolve_path([1, 0, 0]),
            "expanded": tree._expanded is not None}


def per_vertex_arrays() -> dict:
    from treeshift import WeightSpec, build_shift

    tree = _qb_tree()
    shift = build_shift(WeightSpec("adjacency"), tree)
    v = tree.index("g5:0")
    degree, lengths = int(tree.degrees[v]), [len(tree.degrees)]
    # one at a time: each read is a gather of a class array
    for name in ("weight_array", "squared_weights", "vertex_norms",
                 "squared_norms"):
        lengths.append(len(getattr(shift, name)))
    return {"degree": degree, "lengths": lengths,
            "norm": float(shift.vertex_norms[v]),
            "expanded": tree._expanded is not None}


def vertex_arrays() -> dict:
    tree = _qb_tree()
    # one at a time: parents and child_starts are not kept
    parent = tree.parents.item(tree.index("g1413:7"))
    first_child = tree.child_starts.item(tree.index("g700:3"))
    grandchildren, target = tree.adjacency_expansion()
    return {"parent": tree.label(parent),
            "first_child": tree.label(first_child),
            "expansion": [len(target), bool((grandchildren == target).all())],
            "expanded": tree._expanded is not None}


def constancy_classes() -> dict:
    return run_spec(_constancy_spec([[2] * 2 ** g for g in range(19)], 19))


def constancy_full() -> dict:
    # a vertex of degree 2 has children of degrees 2 and 1, one of
    # degree 1 a child of degree 2
    rule = [[2]]
    for _ in range(26):
        rule.append([c for d in rule[-1] for c in ([2, 1] if d == 2
                                                   else [2])])
    return run_spec(_constancy_spec(rule, 27))


def bound_rays() -> dict:
    d = 30768
    return run_spec({"tree": {"kind": "generation_rule",
                              "rule": [[65]] + [[1] * 65] * (d - 1),
                              "depth": d},
                     "weights": ADJACENCY,
                     "commands": [{"name": "materialize"}]})


def bound_runs() -> dict:
    row = ([2] * 64 + [0] * 64) * 32
    return run_spec({"tree": {"kind": "generation_rule",
                              "rule": [[4096]] + [row] * 486, "depth": 487},
                     "weights": ADJACENCY,
                     "commands": [{"name": "materialize"}]})


def truncate_at_budget() -> dict:
    from treeshift import WeightSpec, build_shift, truncate

    op = truncate(build_shift(WeightSpec("adjacency"), _qb_tree()), 3)
    return {"shape": op.matrix.shape, "basis": op.basis[:3]}


def cauchy_dual_at_budget() -> dict:
    from treeshift import WeightSpec, build_shift, cauchy_dual

    tree = _qb_tree()
    dual = cauchy_dual(build_shift(WeightSpec("adjacency"), tree))
    return {"vertex_count": dual.tree.vertex_count,
            "class_count": dual.tree.class_count,
            "expanded": tree._expanded is not None}


def kernel_condition_at_budget() -> dict:
    from treeshift import WeightSpec, build_shift, dual_subnormality

    tree = _qb_tree()
    shift = build_shift(WeightSpec("kernel_condition", x=1.3), tree)
    report = dual_subnormality(shift)
    return {"verdict": report.verdict,
            "decision_path": report.decision_path,
            "class_count": shift.tree.class_count,
            "expanded": tree._expanded is not None}


def classify_tree_at_budget() -> dict:
    from treeshift import classify_tree

    report = classify_tree(_qb_tree())
    return {"quasi_brownian": report.quasi_brownian.holds,
            "valency": report.valency}


OK = {"exit": 0}
QB_SAME = {"results": Same("qb-classes")}
STAR_SAME = {"results": Same("star-classes")}

GATES: tuple[Gate, ...] = (
    # 200,000 edges, depth inferred: about 2 s with a linear-time
    # builder; a quadratic one exceeds the timeout
    Gate("explicit-path", explicit_path, OK),
    # a path of depth 1,000,000: about 1 s when linear in the depth
    Gate("invariants-path", {
        "tree": {"kind": "path", "depth": 1000000},
        "weights": {"kind": "dirichlet"},
        "commands": [{"name": "invariants"}]}, OK),
    # both checks, then dual-subnormality, which reads the kept verdicts
    Gate("shift-checks-at-budget", {
        "tree": QB_TREE, "weights": ADJACENCY,
        "commands": [{"name": "check-2iso"},
                     {"name": "check-kernel", "expect": False},
                     {"name": "dual-subnormality"}]}, OK),
    # the 1,999,396-vertex quasi-Brownian tree as 2,826 classes, as its
    # generation rule (the same classes) and as the rule's full tree;
    # then a t_eta_kappa star of 1,999,999 vertices (4 classes), its rule
    # [[666666]] and the rule's full tree: each command's result must be
    # the same on all three, and the kind and its rule hash alike
    Gate("qb-classes", qb_classes, {**OK, "class_count": 2_826}),
    Gate("qb-rule", qb_rule,
         {**OK, **QB_SAME, "class_count": Same("qb-classes")}),
    Gate("qb-full", qb_full, {"full": True, **QB_SAME}),
    # the star's runs are built in closed form, and star-rule reads
    # [[666666]] through the rule reader's general conversion
    # (_rule_entries): each peaks at about 72 MB
    Gate("star-classes", star_classes, {**OK, "class_count": 4},
         bound_mb=85),
    Gate("star-rule", star_rule,
         {**OK, **STAR_SAME, "class_count": Same("star-classes")},
         bound_mb=85),
    Gate("star-full", star_full, {"full": True, **STAR_SAME}),
    # the path [1, 0, 0] is walked on the class arrays: about 34 MB, and
    # 81 MB when it expanded the tree
    Gate("child-index-path", child_index_path, {**OK, "same": True},
         bound_mb=50),
    # each lookup reads the class arrays and formats only the ids it
    # returns: about 31 MB, and 260-387 MB when they expanded the tree
    Gate("vertex-lookups", lookups, {
        "vertex": ["g700:3", 700, "g699:1", ["g701:5"]],
        "children_of": ["g6:0", "g6:1", "g6:2"],
        "parent_of": "g1412:5", "resolve_path": "g3:5",
        "expanded": False}, bound_mb=50),
    # degrees and the shift's four per-vertex arrays, each a read-only
    # gather of a class array: about 60 MB, and 182 MB when the reads
    # expanded the tree
    Gate("per-vertex-arrays", per_vertex_arrays, {
        "degree": 3, "lengths": [1_999_396] * 5, "norm": math.sqrt(3),
        "expanded": False}, bound_mb=80),
    # parents, child_starts and the adjacency expansion per vertex, each
    # built from the class arrays: about 64 MB, and 139 MB when they
    # expanded the tree
    Gate("vertex-arrays", vertex_arrays, {
        "parent": "g1412:5", "first_child": "g701:5",
        "expansion": [1_993_744, True], "expanded": False}, bound_mb=80),
    # read from the shift's index arrays: about 0.7 s and 251 MB; a
    # dense truncation would need 29 TiB
    Gate("table1-at-budget", {
        "tree": QB_TREE, "weights": ADJACENCY,
        "commands": [{"name": "verify-table1", "row": "quasi_brownian",
                      "nmax": 8}]}, OK, bound_mb=300),
    # kernel_condition weights on a binary rule of depth 19 (1,048,575
    # vertices, 20 run classes) and on a Fibonacci rule of depth 27
    # (1,346,267 vertices), whose runs do not compress, so it stays a full
    # tree: no parent is a suspect, and the decision is cdsubn
    Gate("constancy-classes", constancy_classes,
         {**OK, "results.2.decision_path": "cdsubn"}),
    Gate("constancy-full", constancy_full,
         {**OK, "results.2.decision_path": "cdsubn"}),
    # about 2,000,000 vertices with 64 or 65 vertices per run, the fewest
    # that are hashed: 65 rays (30,769 classes), and rows of runs of 64
    # whose classes pass the bound, so the tree is built vertex by vertex
    Gate("hash-bound-rays", bound_rays, OK),
    Gate("hash-bound-runs", bound_runs, OK),
    # a treiso path of depth 3,000: 2,998 witnesses, 64 listed, in a
    # report whose bytes are json.dumps(sort_keys=True, indent=2)
    Gate("generic-witnesses", {
        "tree": {"kind": "path", "depth": 3000},
        "weights": {"kind": "treiso"},
        "commands": [{"name": "dual-subnormality", "nmax": 30,
                      "expect": "not-subnormal"}]},
         {**OK, "canonical": True,
          "results.0.decision_path": "generic-moment-test",
          "results.0.evidence.witnesses_omitted": 2934}),
    # costs on the 1,999,396-vertex quasi-Brownian tree that no command
    # bounds yet: the truncation reads the classes above its cut, and the
    # Cauchy dual and kernel_condition weights stay on the 2,826 classes,
    # one weight per class edge (each peak about 38 MB; 244, 167 and
    # 215 MB when they expanded the tree); classify-tree peaks at 75 MB
    Gate("truncate-at-budget", truncate_at_budget,
         {"shape": [16, 16], "basis": ["g0:0", "g1:0", "g1:1"]},
         bound_mb=60),
    Gate("cauchy-dual-at-budget", cauchy_dual_at_budget,
         {"vertex_count": 1_999_396, "class_count": 2_826,
          "expanded": False}, bound_mb=60),
    Gate("kernel-condition-at-budget", kernel_condition_at_budget,
         {"verdict": "subnormal", "decision_path": "cdsubn",
          "class_count": 2_826, "expanded": False}, bound_mb=60),
    Gate("classify-tree-at-budget", classify_tree_at_budget,
         {"quasi_brownian": True, "valency": 3}, bound_mb=90),
)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def child(arg: str, start: float) -> None:
    """Run one row in this process and print what it measured."""
    run = json.loads(arg)
    observed = run_spec(run) if isinstance(run, dict) else globals()[run]()
    wall_s = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"wall_s": wall_s, "peak_mb": peak_mb,
                      "observed": observed}))


_CHILD = ("import sys, time; start = time.perf_counter(); "
          f"sys.path.insert(0, {str(HERE)!r}); import gates; "
          "gates.child(sys.argv[1], start)")

_MISSING = object()


def _lookup(observed: Any, path: str) -> Any:
    for part in path.split("."):
        try:
            observed = observed[int(part) if part.isdigit() else part]
        except (KeyError, IndexError, TypeError):
            return _MISSING
    return observed


def _shown(value: Any) -> str:
    return "nothing" if value is _MISSING else json.dumps(value)[:80]


def measure(gate: Gate, seen: dict[str, Any]) -> dict:
    """Run one row in a fresh interpreter; its record, with every breach."""
    arg = json.dumps(gate.run if isinstance(gate.run, dict)
                     else gate.run.__name__)
    record = {"name": gate.name, "wall_s": None, "peak_mb": None,
              "timeout_s": gate.timeout_s, "bound_mb": gate.bound_mb,
              "breaches": []}
    breaches = record["breaches"]
    try:
        proc = subprocess.run([sys.executable, "-c", _CHILD, arg],
                              capture_output=True, text=True,
                              timeout=gate.timeout_s)
    except subprocess.TimeoutExpired:
        breaches.append(f"timed out after {gate.timeout_s} s")
        return record
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        breaches.append(f"child exited {proc.returncode}: {tail[0]}")
        return record
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall_s"] = round(line["wall_s"], 3)
    record["peak_mb"] = round(line["peak_mb"], 1)
    seen[gate.name] = observed = line["observed"]
    if gate.bound_mb is not None and line["peak_mb"] >= gate.bound_mb:
        breaches.append(f"peak RSS {line['peak_mb']:.1f} MB, bound "
                        f"{gate.bound_mb} MB")
    for path, want in gate.expect.items():
        source = ""
        if isinstance(want, Same):
            source = f" (as {want.row})"
            want = _lookup(seen.get(want.row), path)
        got = _lookup(observed, path)
        if got is _MISSING or want is _MISSING or got != want:
            breaches.append(f"{path}: expected {_shown(want)}{source}, "
                            f"observed {_shown(got)}")
    return record


def main(gates: tuple[Gate, ...] = GATES) -> int:
    seen: dict[str, Any] = {}
    failed = []
    for gate in gates:
        record = measure(gate, seen)
        print(json.dumps(record), flush=True)
        failed += [f"{gate.name}: {b}" for b in record["breaches"]]
    for line in failed:
        print(f"breach: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
