"""Seeded operation lists for the three benchmark workloads.

Each operation is one call of the public CLI entry
``treeshift.cli.main`` with a generated spec file or a demo name.  The
seed draws parameter values and random weights only; sizes and the
operation mix are fixed per workload, so a figure can be rechecked on an
unseen seed.

Every operation carries the outcome its check expects.  For specs from
a known family the expectation follows from the family's mathematics,
never from a program run:

* ``glowny`` weights (y1 != y2) are 2-isometric with sibling constancy
  failing at the root and holding from generation 1: path ``main2``,
  verdict ``not-subnormal``.
* ``kernel_condition`` weights are 2-isometric and sibling constant:
  path ``cdsubn``, verdict ``subnormal``.
* adjacency weights on a quasi-Brownian tree: path ``BrownianG``,
  verdict ``subnormal``.
* ``dirichlet`` weights satisfy the ``kernel`` row of the closed-form
  table; ``bergman_dual`` and ``treiso`` paths have non-subnormal duals
  (the dual of ``bergman_dual`` is the Dirichlet shift, whose moments
  n + 1 fail the order-1 Hankel test): generic path, ``not-subnormal``.

Malformed specs expect exit code 2 and the offending JSON path on
stderr.  Random-weight specs expect no ``"error"`` status and a report
that repeats exactly from pass to pass.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: One line per workload: why it exists, which layers it stresses and
#: which it bypasses.  BENCHMARK.json repeats these sentences.
WHY = {
    "catalog": "13 demos + small specs (<=1000 vertices): per-call overhead,"
               " dense matrix oracle and CLI glue; stresses matrices/cli,"
               " bypasses engine rewrites",
    "deep-trees": "ROADMAP size ladder up to 65535 vertices: stresses trees"
                  " (materialize), shifts, dense eigh; bypasses moments;"
                  " path depth 1e8 rung left out: no size budget, exhausts RAM",
    "moment-sweep": "seeded sweeps over small trees, nmax 30: stresses dual"
                    " moment recurrence, cauchy_dual and Hankel tests;"
                    " bypasses matrices and large trees",
}

#: Percentile reported as op_tail_ms: the highest step of 99.9/99/95/90/
#: 75/50 that leaves at least ten samples beyond it in a baseline run of
#: 30 s (catalog about 5,500 samples, moment-sweep about 1,100,
#: deep-trees 20 to 24).  It is fixed per workload so that a faster or
#: slower program is compared at the same percentile.
TAIL_PERCENTILE = {"catalog": 99.0, "deep-trees": 50.0, "moment-sweep": 95.0}

DEMOS = ("bergman-dual", "brownian-shift", "dirichlet", "glowny",
         "mewa-distinction", "nbnkcsub", "nbnkcsub-2", "nbnkcsub-3",
         "nbnkcsub-4", "przadj", "sl-chm", "treiso", "two-plus-three")


@dataclass
class Op:
    """One CLI invocation and the outcome its check expects."""

    name: str
    kind: str  # "demo" | "family" | "malformed" | "random"
    demo: Optional[str] = None
    spec: Optional[dict] = None
    exit_code: Optional[int] = None
    # per command index: expected status / decision_path / verdict
    results: dict = field(default_factory=dict)
    json_path: Optional[str] = None

    def to_manifest(self, spec_dir: Path, out_dir: Path) -> dict:
        out = str(out_dir / f"{self.name}.json")
        if self.demo is not None:
            argv = ["--demo", self.demo, "--quiet", "--out", out]
        else:
            spec_path = spec_dir / f"{self.name}.json"
            spec_path.write_text(json.dumps(self.spec), encoding="utf-8")
            argv = ["--spec", str(spec_path), "--quiet", "--out", out]
        return {"name": self.name, "kind": self.kind, "argv": argv,
                "out": out, "exit_code": self.exit_code,
                "results": {str(k): v for k, v in self.results.items()},
                "json_path": self.json_path}


def _comb_rule(valency: int, depth: int) -> list[list[int]]:
    """Per-generation child counts of the comb tree: a root of degree l
    whose children are one ray and l-1 spines; a spine vertex has a ray
    child and a spine child."""
    deg = {"root": valency, "ray": 1, "spine": 2}
    child = {"root": ["ray"] + ["spine"] * (valency - 1), "ray": ["ray"],
             "spine": ["ray", "spine"]}
    kinds, rule = ["root"], []
    for _ in range(depth):
        rule.append([deg[k] for k in kinds])
        kinds = [c for k in kinds for c in child[k]]
    return rule


def _explicit_tree(rule: list[list[int]]) -> tuple[list[list[str]], list[str]]:
    """Edge list and non-root vertex ids of the tree a rule describes."""
    edges, ids, prev = [], [], ["r"]
    for g, degs in enumerate(rule):
        nxt = []
        for u, d in zip(prev, degs):
            for i in range(d):
                v = f"{u}.{i}" if g else f"v{i}"
                edges.append([u, v])
                nxt.append(v)
        ids.extend(nxt)
        prev = nxt
    return edges, ids


def _random_weight_spec(rng: random.Random, rule: list[list[int]],
                        nmax: int) -> dict:
    edges, ids = _explicit_tree(rule)
    values = {v: round(rng.uniform(0.6, 1.4), 6) for v in ids}
    return {"tree": {"kind": "explicit", "edges": edges, "depth": len(rule)},
            "weights": {"kind": "explicit", "values": values},
            "commands": [{"name": "dual-subnormality", "nmax": nmax}]}


def _glowny_pair(rng: random.Random) -> tuple[float, float]:
    """Distinct y1, y2 in (1, sqrt 2), at least 0.05 apart."""
    y1 = round(rng.uniform(1.02, 1.39), 6)
    y2 = y1
    while abs(y2 - y1) < 0.05:
        y2 = round(rng.uniform(1.02, 1.39), 6)
    return y1, y2


PASSED = {"status": "passed"}


def _sub(path: str, verdict: str) -> dict:
    return {"status": "passed", "decision_path": path, "verdict": verdict}


def catalog(rng: random.Random) -> list[Op]:
    ops = [Op(f"demo-{d}", "demo", demo=d, exit_code=0) for d in DEMOS]
    y1, y2 = _glowny_pair(rng)
    ops.append(Op("glowny-default", "family", spec={
        "weights": {"kind": "glowny", "y1": y1, "y2": y2},
        "commands": [{"name": "check-2iso"},
                     {"name": "check-kernel", "k": 0, "expect": False},
                     {"name": "check-kernel", "k": 1},
                     {"name": "dual-subnormality",
                      "expect": "not-subnormal"}]},
        exit_code=0, results={0: PASSED, 1: PASSED, 2: PASSED,
                              3: _sub("main2", "not-subnormal")}))
    ops.append(Op("dirichlet-invariants", "family", spec={
        "weights": {"kind": "dirichlet"},
        "commands": [{"name": "check-2iso"}, {"name": "check-kernel"},
                     {"name": "invariants"},
                     {"name": "verify-table1", "row": "kernel", "nmax": 8}]},
        exit_code=0, results={i: PASSED for i in range(4)}))
    ops.append(Op("quasi-brownian-3", "family", spec={
        "tree": {"kind": "quasi_brownian", "valency": 3, "depth": 10},
        "weights": {"kind": "adjacency"},
        "commands": [{"name": "classify-tree"},
                     {"name": "classify-adjacency"},
                     {"name": "dual-subnormality"}]},
        exit_code=0, results={0: PASSED, 1: PASSED,
                              2: _sub("BrownianG", "subnormal")}))
    ops.append(Op("comb-2-table1", "family", spec={
        "tree": {"kind": "generation_rule", "rule": _comb_rule(2, 14),
                 "depth": 14},
        "weights": {"kind": "adjacency"},
        "commands": [{"name": "verify-table1", "row": "adjacency_pattern",
                      "nmax": 8}]},
        exit_code=0, results={0: PASSED}))
    y = round(rng.uniform(1.02, 1.39), 6)
    malformed = [
        # the two type-check gaps: both raise TypeError instead of exit 2
        ("bad-nmax-type", {"weights": {"kind": "glowny", "y1": y, "y2": 1.4},
                           "commands": [{"name": "moments", "nmax": "5"}]},
         "$.commands[0].nmax"),
        ("bad-k-type", {"weights": {"kind": "dirichlet"},
                        "commands": [{"name": "check-kernel", "k": 1.5}]},
         "$.commands[0].k"),
        ("bad-depth", {"tree": {"kind": "path", "depth": -1},
                       "weights": {"kind": "adjacency"}}, "$.tree.depth"),
        ("bad-key", {"weights": {"kind": "dirichlet"}, "colour": "red"},
         "$.colour"),
    ]
    for name, spec, path in malformed:
        ops.append(Op(name, "malformed", spec=spec, exit_code=2,
                      json_path=path))
    return ops


def deep_trees(rng: random.Random) -> list[Op]:
    x = round(rng.uniform(1.1, 1.6), 6)
    x_star = round(rng.uniform(1.1, 1.6), 6)
    binary = [[2] * (2 ** g) for g in range(15)]
    return [
        Op("binary-15", "family", spec={
            "tree": {"kind": "generation_rule", "rule": binary, "depth": 15},
            "weights": {"kind": "kernel_condition", "x": x},
            "commands": [{"name": "materialize"}, {"name": "check-2iso"},
                         {"name": "check-kernel"},
                         {"name": "moments", "dual": True, "nmax": 12},
                         {"name": "dual-subnormality"}]},
            exit_code=0, results={0: PASSED, 1: PASSED, 2: PASSED,
                                  3: PASSED, 4: _sub("cdsubn", "subnormal")}),
        Op("quasi-brownian-200", "family", spec={
            "tree": {"kind": "quasi_brownian", "valency": 3, "depth": 200},
            "weights": {"kind": "adjacency"},
            "commands": [{"name": "dual-subnormality"}]},
            exit_code=0, results={0: _sub("BrownianG", "subnormal")}),
        Op("star-20000", "family", spec={
            "tree": {"kind": "t_eta_kappa", "eta": 20000, "depth": 3},
            "weights": {"kind": "kernel_condition", "x": x_star},
            "commands": [{"name": "materialize"}, {"name": "check-2iso"},
                         {"name": "dual-subnormality"}]},
            exit_code=0, results={0: PASSED, 1: PASSED,
                                  2: _sub("cdsubn", "subnormal")}),
        Op("comb-2-depth-40", "family", spec={
            "tree": {"kind": "generation_rule", "rule": _comb_rule(2, 40),
                     "depth": 40},
            "weights": {"kind": "adjacency"},
            "commands": [{"name": "verify-table1", "row": "quasi_brownian",
                          "nmax": 8}]},
            exit_code=0, results={0: PASSED}),
    ]


def moment_sweep(rng: random.Random) -> list[Op]:
    ops = []
    for i in range(6):
        y1, y2 = _glowny_pair(rng)
        ops.append(Op(f"glowny-{i}", "family", spec={
            "tree": {"kind": "t_eta_kappa", "eta": 2, "depth": 40},
            "weights": {"kind": "glowny", "y1": y1, "y2": y2},
            "commands": [{"name": "moments", "dual": True, "nmax": 30},
                         {"name": "dual-subnormality", "nmax": 30,
                          "expect": "not-subnormal"}]},
            exit_code=0, results={0: PASSED,
                                  1: _sub("main2", "not-subnormal")}))
    for kind in ("treiso", "bergman_dual"):
        ops.append(Op(f"{kind}-64", "family", spec={
            "weights": {"kind": kind},
            "commands": [{"name": "dual-subnormality", "nmax": 30,
                          "expect": "not-subnormal"}]},
            exit_code=0,
            results={0: _sub("generic-moment-test", "not-subnormal")}))
    for i in range(3):
        ops.append(Op(f"random-path-{i}", "random", spec=_random_weight_spec(
            rng, [[1]] * 64, 30)))
    for i in range(2):
        ops.append(Op(f"random-comb-{i}", "random", spec=_random_weight_spec(
            rng, _comb_rule(3, 24), 30)))
    return ops


WORKLOADS = {"catalog": catalog, "deep-trees": deep_trees,
             "moment-sweep": moment_sweep}


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's operations for a seed; same seed, same inputs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
