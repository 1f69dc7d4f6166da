"""Command-line front end: JSON run specs, check suites, demo catalog.

A run spec is a JSON document with top-level keys "tree", "weights",
"commands" and "tolerances".  Commands run in order; dependent commands
are skipped when a prerequisite check failed earlier in the suite.  The
demo catalog builds each named model, checks its published conclusion,
and reports the numeric evidence.

Exit codes: 0 = all commands/demos completed with their expected
verdicts; 1 = a verdict contradicted an expectation or a published demo
conclusion; 2 = configuration or parse error.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .errors import (ConfigurationError, DomainError, SpecParseError,
                     TreeShiftError)
from .matrices import (TruncatedOperator, block_shift_from_atoms,
                       build_brownian_shift, defect, dual_matrix, truncate,
                       verify_table1)
from .moments import (DiscreteMeasure, MomentSequence, backward_extension,
                      closed_form_table1, dual_subnormality, hausdorff_test,
                      moment_sequence, perturbed_kernel_dual_moment,
                      reciprocal_linear_moments, stieltjes_test)
from .shifts import (DEFAULT_TOL, WeightedShift, WeightSpec, build_shift,
                     cauchy_dual, check_tolerance, classify_adjacency,
                     is_two_isometry, operator_norm,
                     satisfies_kernel_condition, shift_invariants,
                     two_isometry_weight, vertex_norm,
                     are_unitarily_equivalent,
                     are_unitarily_equivalent_multiset)
from .trees import (DirectedTree, TreeSpec, classify_tree, comb_tree_spec,
                    hub_comb_tree_spec, materialize, two_plus_three_tree_spec)

__all__ = ["RunSpec", "CommandRecord", "parse_spec", "run_suite", "run_demo",
           "main", "DEMO_NAMES"]

@dataclass(frozen=True)
class CommandRecord:
    name: str
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RunSpec:
    """Validated run specification."""

    tree: TreeSpec
    weights: WeightSpec
    commands: tuple[CommandRecord, ...]
    #: ``weights`` on ``tree`` at the run's depth, built while parsing;
    #: the run reads it
    shift: WeightedShift = field(compare=False, repr=False)
    tolerance: float = DEFAULT_TOL


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def _reject_unknown(obj: Mapping[str, Any], allowed: set[str],
                    path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SpecParseError(
                f"unknown field {key!r} (allowed: {sorted(allowed)})",
                json_path=f"{path}.{key}")


def _require(obj: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in obj:
        raise SpecParseError(f"missing required field {key!r}",
                             json_path=f"{path}.{key}")
    return obj[key]


#: Largest integer a spec field or a count flag takes: the int64 range,
#: which numpy arrays of orders and sizes hold
_INT_MAX = 2 ** 63 - 1


def _as_int(value: Any, path: str, minimum: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecParseError(f"expected an integer, got {value!r}",
                             json_path=path)
    if minimum is not None and value < minimum:
        raise SpecParseError(f"expected an integer >= {minimum}, got {value}",
                             json_path=path)
    if value > _INT_MAX:
        raise SpecParseError(f"expected an integer <= {_INT_MAX}, got "
                             f"{value}", json_path=path)
    return value


def _as_number(value: Any, path: str) -> float:
    """A finite number; the JSON decoder also yields NaN and infinities
    (from ``NaN``, ``Infinity`` or a literal such as 1e400)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecParseError(f"expected a number, got {value!r}",
                             json_path=path)
    try:
        number = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise SpecParseError("expected a number within the float range",
                             json_path=path) from exc
    if not math.isfinite(number):
        raise SpecParseError(f"expected a finite number, got {number!r}",
                             json_path=path)
    return number


def _tolerance_arg(text: str) -> float:
    """``--tol``: argparse reports a bad value as a usage error."""
    try:
        return check_tolerance(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise SpecParseError(f"expected true or false, got {value!r}",
                             json_path=path)
    return value


def _as_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SpecParseError(f"expected a string, got {value!r}",
                             json_path=path)
    return value


_VERDICTS = ("subnormal", "not-subnormal", "consistent")


def _as_verdict(value: Any, path: str) -> str:
    if value not in _VERDICTS:
        raise SpecParseError(
            f"expected one of {list(_VERDICTS)}, got {value!r}",
            json_path=path)
    return value


def _as_demo(value: Any, path: str) -> str:
    if value not in DEMO_NAMES:
        raise SpecParseError(
            f"unknown demo {value!r}; catalog: {', '.join(DEMO_NAMES)}",
            json_path=path)
    return value


def _as_vertex(value: Any, path: str) -> Any:
    """A vertex id string, a list of child indices, or null (the root)."""
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, list):
        for i, index in enumerate(value):
            _as_int(index, f"{path}[{i}]", minimum=0)
        return value
    raise SpecParseError(
        f"expected a vertex id string or a list of child indices, got "
        f"{value!r}", json_path=path)


def _as_numbers(value: Any, path: str) -> dict[str, float]:
    """An object mapping vertex ids to finite numbers; a bad value fails
    at the first key that holds one."""
    if not isinstance(value, dict):
        raise SpecParseError("expected an object mapping vertex ids to "
                             "numbers", json_path=path)
    # JSON numbers are exactly int and float (bool is neither), and
    # float() of an int beyond the float range raises OverflowError
    try:
        numbers = (dict(zip(value, map(float, value.values())))
                   if set(map(type, value.values())) <= {int, float}
                   else None)
    except OverflowError:
        numbers = None
    if numbers is None or not all(map(math.isfinite, numbers.values())):
        for vid, number in value.items():
            _as_number(number, f"{path}.{vid}")
    return numbers


def _as_other(value: Any, path: str) -> WeightedShift:
    """The second shift of ``equivalent``, on its tree at the tree's own
    depth."""
    if not isinstance(value, dict):
        raise SpecParseError("'other' must be an object with tree and "
                             "weights", json_path=path)
    _reject_unknown(value, {"tree", "weights"}, path)
    _, tree = _parse_tree(_require(value, "tree", path), f"{path}.tree")
    weights = _parse_section(_require(value, "weights", path),
                             f"{path}.weights", WeightSpec)
    return _spec_call(f"{path}.weights", build_shift, weights, tree)


# the JSON type of every tree field, weight field and command parameter,
# checked at parse time; a "<name>.<field>" entry overrides "<field>" for
# the kind or command of that name.  A field without an entry (an
# explicit tree's edges, a rule) is passed on as decoded, and TreeSpec
# checks it.
_FIELD_TYPES: dict[str, Callable[[Any, str], Any]] = {
    "depth": functools.partial(_as_int, minimum=0), "eta": _as_int,
    "kappa": _as_int, "valency": _as_int, "values": _as_numbers,
    "x": _as_number, "proportions": _as_numbers, "y1": _as_number,
    "y2": _as_number,
    "nmax": functools.partial(_as_int, minimum=0),
    "k": functools.partial(_as_int, minimum=0),
    "verify-table1.nmax": functools.partial(_as_int, minimum=1),
    "verify-table1.depth": functools.partial(_as_int, minimum=1),
    "dual": _as_bool, "vertex": _as_vertex, "other": _as_other,
    "expect": _as_bool, "dual-subnormality.expect": _as_verdict,
    "row": _as_string, "demo": _as_demo,
}


def _parse_fields(obj: Any, path: str, key: str,
                  fields: Mapping[str, tuple[tuple[str, ...], ...]]
                  ) -> tuple[str, dict[str, Any]]:
    """Check a tree, weights or command object against the schema
    ``fields``: ``obj[key]`` names an entry whose last two items are its
    required and its optional fields, checked in that order.  Returns
    the name and the fields present, converted through _FIELD_TYPES."""
    if not isinstance(obj, dict):
        raise SpecParseError("expected an object", json_path=path)
    name = _require(obj, key, path)
    if not isinstance(name, str) or name not in fields:
        raise SpecParseError(
            f"unknown {key} {name!r} (expected one of {sorted(fields)})",
            json_path=f"{path}.{key}")
    required, optional = fields[name][-2:]
    _reject_unknown(obj, {key, *required, *optional}, path)
    values = {}
    for f in required + optional:
        if f in obj:
            convert = _FIELD_TYPES.get(f"{name}.{f}", _FIELD_TYPES.get(f))
            values[f] = convert(obj[f], f"{path}.{f}") if convert else obj[f]
        elif f in required:
            raise SpecParseError(f"missing required field {f!r}",
                                 json_path=f"{path}.{f}")
    return name, values


def _spec_call(path: str, build: Callable[..., Any], *args: Any,
               **kwargs: Any) -> Any:
    """``build(*args, **kwargs)`` on the spec section at ``path``; a
    library error fails at ``<path>.<field>`` when it names a field,
    else at ``path`` (weights that do not fit their tree, say)."""
    try:
        return build(*args, **kwargs)
    except TreeShiftError as exc:
        at = path if exc.field is None else f"{path}.{exc.field}"
        raise SpecParseError(str(exc), json_path=at) from exc


def _parse_section(obj: Any, path: str, cls: type) -> Any:
    """A TreeSpec or WeightSpec from its JSON object, checked against
    ``cls.KIND_FIELDS``."""
    kind, values = _parse_fields(obj, path, "kind", cls.KIND_FIELDS)
    return _spec_call(path, cls, kind, **values)


def _parse_tree(obj: Any, path: str, depth: Optional[int] = None
                ) -> tuple[TreeSpec, DirectedTree]:
    """A TreeSpec from its JSON object, and its tree at ``depth``
    (default: the spec's own)."""
    spec = _parse_section(obj, path, TreeSpec)
    return spec, _spec_call(path, materialize, spec, depth)


# the tree section of a spec that has none, by weight kind
_DEFAULT_TREES: dict[str, dict[str, Any]] = {
    "glowny": {"kind": "t_eta_kappa", "eta": 2, "depth": 16},
    "dirichlet": {"kind": "path", "depth": 64},
    "bergman_dual": {"kind": "path", "depth": 64},
    "treiso": {"kind": "path", "depth": 64},
}


@functools.cache
def _orjson_loads() -> Optional[Callable[[str], Any]]:
    """``orjson.loads``, or None when orjson is not installed.  It is
    imported on the first decode: its import costs a few milliseconds
    that ``import treeshift.cli`` and a demo run do not pay."""
    try:
        import orjson
    except ImportError:
        return None
    return orjson.loads


# digits to "9" and "{" to "[": one pass gives both counts _loads needs
_SCAN = str.maketrans("012345678{", "999999999[")


def _loads(text: str) -> Any:
    """``json.loads(text)``: the same value, or the same exception.
    orjson decodes only the documents ``parse_spec`` names."""
    fast = _orjson_loads()
    if fast is not None:
        scan = text.translate(_SCAN)
        if (scan.count("[") < sys.getrecursionlimit() // 4
                and "9" * 19 not in scan):
            try:
                return fast(text)
            except ValueError:  # orjson.JSONDecodeError
                pass
    return json.loads(text)


def parse_spec(text: str, depth: Optional[int] = None) -> RunSpec:
    """Parse and validate a JSON run spec, and build its shifts: the
    main one on its tree at ``depth`` (default: the spec's depth), each
    ``equivalent`` one on its tree at that tree's depth.  Unknown fields
    are rejected and every error carries the JSON path of the offending
    field.

    The text is decoded by ``_loads``.  With orjson installed, orjson
    decodes it unless orjson could read it otherwise than
    ``json.loads``, which decodes the rest and reports every error.
    ``json.loads`` decodes a document that holds:

    - a run of 19 or more digits: orjson reads an integer of 2**64 or
      more as a float;
    - as many ``[`` and ``{`` as a quarter of the recursion limit (250
      by default: an explicit tree of 250 or more edges, a rule of 250
      or more rows): nesting that deep can make ``json.loads`` raise
      RecursionError, and orjson 3.8 nested a million deep exhausts
      the C stack and kills the process;
    - what orjson refuses: NaN, Infinity, 1e400, a lone surrogate, or
      any error."""
    try:
        doc = _loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # nesting past the decoder's recursion limit is a RecursionError
        raise SpecParseError(f"invalid JSON: {exc}", json_path="$") from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise SpecParseError(
            f"invalid JSON: an integer literal is longer than "
            f"{sys.get_int_max_str_digits():,} digits", json_path="$") from exc
    if not isinstance(doc, dict):
        raise SpecParseError("top level must be an object", json_path="$")
    _reject_unknown(doc, {"tree", "weights", "commands", "tolerances"}, "$")
    weights = _parse_section(_require(doc, "weights", "$"), "$.weights",
                             WeightSpec)
    if "tree" not in doc and weights.kind not in _DEFAULT_TREES:
        raise SpecParseError(
            f"missing required field 'tree' (no default tree for "
            f"weight kind {weights.kind!r})", json_path="$.tree")
    tree, built = _parse_tree(
        doc.get("tree", _DEFAULT_TREES.get(weights.kind)), "$.tree", depth)
    commands: list[CommandRecord] = []
    raw_commands = doc.get("commands", [])
    if not isinstance(raw_commands, list):
        raise SpecParseError("commands must be a list",
                             json_path="$.commands")
    for i, c in enumerate(raw_commands):
        commands.append(CommandRecord(*_parse_fields(
            c, f"$.commands[{i}]", "name", _Suite.COMMANDS)))
    tolerance = DEFAULT_TOL
    if "tolerances" in doc:
        tols = doc["tolerances"]
        if not isinstance(tols, dict):
            raise SpecParseError("tolerances must be an object",
                                 json_path="$.tolerances")
        _reject_unknown(tols, {"tol"}, "$.tolerances")
        if "tol" in tols:
            tolerance = _spec_call("$.tolerances", check_tolerance,
                                   _as_number(tols["tol"], "$.tolerances.tol"))
    return RunSpec(tree, weights, tuple(commands),
                   _spec_call("$.weights", build_shift, weights, built),
                   tolerance)


# ---------------------------------------------------------------------------
# suite execution
# ---------------------------------------------------------------------------

class _Suite:
    def __init__(self, shift: WeightedShift, tol: float, nmax: int):
        self.tol = tol
        self.nmax = nmax
        self.shift = shift
        self.tree = shift.tree
        self.check_state: dict[str, bool] = {}

    def resolve_vertex(self, spec_vertex: Any) -> str:
        if spec_vertex is None:
            return self.tree.root
        if isinstance(spec_vertex, str):
            if spec_vertex not in self.tree:
                raise DomainError(f"unknown vertex {spec_vertex!r}")
            return spec_vertex
        if isinstance(spec_vertex, list) and all(
                isinstance(i, int) and not isinstance(i, bool)
                for i in spec_vertex):
            return self.tree.resolve_path(spec_vertex)
        raise DomainError(
            f"vertex must be an id string or a child-index list, got "
            f"{spec_vertex!r}")

    def execute(self, cmd: CommandRecord) -> tuple[dict, str]:
        return self.COMMANDS[cmd.name][0](self, cmd.params)

    @staticmethod
    def _status(actual: bool, expect: Optional[bool]) -> str:
        return "passed" if actual == (expect is not False) else "failed"

    def _cmd_materialize(self, params) -> tuple[dict, str]:
        t = self.tree
        return ({"vertex_count": t.vertex_count,
                 "materialized_depth": t.materialized_depth,
                 "generation_sizes": list(t.generation_sizes),
                 "root": t.root}, "passed")

    def _cmd_classify_tree(self, params) -> tuple[dict, str]:
        return (classify_tree(self.tree).to_dict(), "passed")

    def _cmd_check_2iso(self, params) -> tuple[dict, str]:
        v = is_two_isometry(self.shift, self.tol)
        self.check_state["check-2iso"] = v.holds
        return (v.to_dict(), self._status(v.holds, params.get("expect")))

    def _cmd_check_kernel(self, params) -> tuple[dict, str]:
        k = params.get("k", 0)
        v = satisfies_kernel_condition(self.shift, k, self.tol)
        if k == 0:
            self.check_state["check-kernel"] = v.holds
        payload = v.to_dict()
        payload["k"] = k
        return (payload, self._status(v.holds, params.get("expect")))

    def _cmd_cauchy_dual(self, params) -> tuple[dict, str]:
        dual = cauchy_dual(self.shift)
        return ({"weights": dict(sorted(dual.weights().items())),
                 "note": "dual weight at v is weight(v)/norm(parent(v))^2"},
                "passed")

    def _cmd_moments(self, params) -> tuple[dict, str]:
        u = self.resolve_vertex(params.get("vertex"))
        nmax = params.get("nmax", self.nmax)
        dual = bool(params.get("dual", False))
        seq = moment_sequence(self.shift, u, nmax, dual=dual)
        return ({"vertex": u, "nmax": nmax, "dual": dual,
                 "values": list(seq.values), "source": seq.source}, "passed")

    def _cmd_classify_adjacency(self, params) -> tuple[dict, str]:
        return (classify_adjacency(self.tree, self.tol).to_dict(), "passed")

    def _cmd_invariants(self, params) -> tuple[dict, str]:
        if self.check_state.get("check-2iso") is False \
                or self.check_state.get("check-kernel") is False:
            return ({"reason": "skipped: a prerequisite check "
                               "(expansion identity or sibling constancy) "
                               "failed earlier in the suite"}, "skipped")
        inv = shift_invariants(self.shift, self.tol)
        return ({**inv.to_dict(), "verified_depth": inv.verified_depth},
                "passed")

    def _cmd_equivalent(self, params) -> tuple[dict, str]:
        # each tree at its own depth; unequal depths are a ComparisonError
        inv_a = shift_invariants(self.shift, self.tol)
        inv_b = shift_invariants(params["other"], self.tol)
        eq = are_unitarily_equivalent(inv_a, inv_b)
        return ({"equivalent": eq, "left": inv_a.to_dict(),
                 "right": inv_b.to_dict()},
                self._status(eq, params.get("expect")))

    def _cmd_dual_subnormality(self, params) -> tuple[dict, str]:
        if self.check_state.get("check-2iso") is False:
            return ({"reason": "skipped: check-2iso failed earlier in the "
                               "suite (fast paths need the expansion "
                               "identity)"}, "skipped")
        nmax = params.get("nmax", self.nmax)
        rep = dual_subnormality(self.shift, nmax, self.tol)
        expect = params.get("expect")
        if expect is None:
            status = "passed" if rep.verdict != "not-subnormal" else "failed"
        else:
            status = "passed" if rep.verdict == expect else "failed"
        return (rep.to_dict(), status)

    def _cmd_verify_table1(self, params) -> tuple[dict, str]:
        if self.check_state.get("check-2iso") is False:
            return ({"reason": "skipped: check-2iso failed earlier in the "
                               "suite"}, "skipped")
        rep = verify_table1(self.shift, params["row"], params.get("nmax", 8),
                            params.get("depth"), tol=self.tol)
        return (rep.to_dict(), "passed" if rep.holds else "failed")

    def _cmd_demo(self, params) -> tuple[dict, str]:
        payload, code = run_demo(params["demo"], tol=self.tol)
        return (payload, "passed" if code == 0 else "failed")

    # command name -> (handler, required parameters, optional parameters);
    # each handler returns (payload, status) with status in
    # {"passed", "failed", "skipped"}
    COMMANDS: dict[str, tuple[Callable, tuple[str, ...], tuple[str, ...]]] = {
        "materialize": (_cmd_materialize, (), ()),
        "classify-tree": (_cmd_classify_tree, (), ()),
        "check-2iso": (_cmd_check_2iso, (), ("expect",)),
        "check-kernel": (_cmd_check_kernel, (), ("k", "expect")),
        "cauchy-dual": (_cmd_cauchy_dual, (), ()),
        "moments": (_cmd_moments, (), ("vertex", "nmax", "dual")),
        "classify-adjacency": (_cmd_classify_adjacency, (), ()),
        "invariants": (_cmd_invariants, (), ()),
        "equivalent": (_cmd_equivalent, ("other",), ("expect",)),
        "dual-subnormality": (_cmd_dual_subnormality, (), ("nmax", "expect")),
        "verify-table1": (_cmd_verify_table1, ("row",), ("nmax", "depth")),
        "demo": (_cmd_demo, ("demo",), ()),
    }


def run_suite(spec: RunSpec, tol: Optional[float] = None,
              nmax: int = 12) -> tuple[dict, int]:
    """Execute the commands of a parsed run spec in order.

    Returns (report, exit_code).  Command-level errors are recorded in
    the report and yield exit code 1; they never abort the suite."""
    effective_tol = check_tolerance(spec.tolerance if tol is None else tol)
    suite = _Suite(spec.shift, effective_tol, nmax)
    results = []
    worst = 0
    for cmd in spec.commands:
        start = time.perf_counter()
        try:
            payload, status = suite.execute(cmd)
        except TreeShiftError as exc:
            payload = {"error": str(exc),
                       "error_type": type(exc).__name__}
            status = "error"
        entry = {"command": cmd.name,
                 "parameters": {k: (v if not isinstance(v, dict) else "...")
                                for k, v in cmd.params.items()
                                if k != "other"},
                 "status": status,
                 "wall_clock_s": round(time.perf_counter() - start, 6)}
        entry.update({"result": payload})
        results.append(entry)
        if status in ("failed", "error"):
            worst = max(worst, 1)
    return _envelope(effective_tol, results, worst), worst


def _envelope(tol: float, results: list[dict], exit_code: int) -> dict:
    """The report around the results of a spec or demo run."""
    return {"tool": "treeshift", "version": __version__, "tolerance": tol,
            "results": results, "exit_code": exit_code}


# ---------------------------------------------------------------------------
# demo catalog
# ---------------------------------------------------------------------------

@dataclass
class _DemoOutcome:
    statement: str
    ok: bool
    evidence: dict
    csv_sequence: Optional[MomentSequence] = None


def _interior_defect(op: TruncatedOperator, m: int) -> float:
    """Largest entry of the order-m defect on the interior block, the
    part free of truncation artifacts."""
    idx = op.interior_indices(m)
    return float(np.max(np.abs(defect(op, m)[np.ix_(idx, idx)])))


def _demo_dirichlet(tol: float) -> _DemoOutcome:
    tree = materialize(TreeSpec("path", depth=64))
    shift = build_shift(WeightSpec("dirichlet"), tree)
    two = is_two_isometry(shift, tol)
    kc0 = satisfies_kernel_condition(shift, 0, tol)
    rep = dual_subnormality(shift, 12, tol)
    seq = moment_sequence(shift, tree.root, 12, dual=True)
    dev = max(abs(seq[n] - 1.0 / (n + 1)) for n in range(len(seq)))
    vt = verify_table1(shift, "kernel", nmax=10, tol=tol)
    ok = (two.holds and kc0.holds and rep.verdict == "subnormal"
          and rep.decision_path == "cdsubn" and dev < 1e-10 and vt.holds)
    statement = (f"subnormal contraction (decision path cdsubn): expansion "
                 f"identity and sibling constancy verified; dual moments "
                 f"equal 1/(n+1) (max deviation {dev:.3e}); closed-form "
                 f"'kernel' row verified to n=10, max deviation "
                 f"{vt.max_abs_error:.3e}")
    return _DemoOutcome(statement, ok, {
        "two_isometry": two.to_dict(), "kernel_condition": kc0.to_dict(),
        "subnormality": rep.to_dict(),
        "dual_moments": list(seq.values),
        "dual_moment_max_deviation_from_1_over_n_plus_1": dev,
        "table_row_check": vt.to_dict()}, seq)


def _demo_bergman_dual(tol: float) -> _DemoOutcome:
    tree = materialize(TreeSpec("path", depth=64))
    shift = build_shift(WeightSpec("bergman_dual"), tree)
    seq = moment_sequence(shift, tree.root, 12)
    dev = max(abs(seq[n] - 1.0 / (n + 1)) for n in range(len(seq)))
    haus = hausdorff_test(seq, tol)
    mu = reciprocal_linear_moments(1.0, 1.0, 12)
    dev_mu = max(abs(a - b) for a, b in zip(seq.values, mu.moments.values))
    dual = cauchy_dual(shift)
    two_d = is_two_isometry(dual, tol)
    kc_d = satisfies_kernel_condition(dual, 0, tol)
    # vertex d of the path has depth d
    dev_w = max(abs(w - two_isometry_weight(d - 1, math.sqrt(2)))
                for d, w in enumerate(dual.edge_weights[1:33].tolist(), 1))
    ok = (dev < 1e-12 and haus.is_hausdorff and dev_mu < 1e-12
          and two_d.holds and kc_d.holds and dev_w < 1e-12)
    statement = (f"subnormal contraction: power moments equal 1/(n+1) "
                 f"(moments of the uniform density on [0,1]; Hausdorff "
                 f"test passes, worst difference {haus.extremal_value:.3e});"
                 f" its Cauchy dual is the expansive sibling-constant "
                 f"shift (weight match {dev_w:.3e})")
    return _DemoOutcome(statement, ok, {
        "moments": list(seq.values),
        "moment_max_deviation_from_1_over_n_plus_1": dev,
        "hausdorff": haus.to_dict(),
        "measure": mu.description,
        "dual_two_isometry": two_d.to_dict(),
        "dual_kernel_condition": kc_d.to_dict(),
        "dual_weight_max_deviation": dev_w}, seq)


def _demo_treiso(tol: float) -> _DemoOutcome:
    tree = materialize(TreeSpec("path", depth=32))
    shift = build_shift(WeightSpec("treiso"), tree)
    trunc = truncate(shift)
    b3_norm = _interior_defect(trunc, 3)
    two = is_two_isometry(shift, tol)
    dual = dual_matrix(trunc)
    b4 = defect(dual, 4)
    root_entry = float(b4[0, 0])
    target = -12.0 / 85.0
    rep = dual_subnormality(shift, 12, tol)
    order = None
    for w in rep.evidence.get("witnesses", []):
        if w["vertex"] == tree.root:
            order = w["stieltjes"]["failing_order"]
    ok = (b3_norm < 1e-10 and not two.holds
          and abs(root_entry - target) < 1e-12
          and rep.verdict == "not-subnormal"
          and rep.decision_path == "generic-moment-test")
    statement = (f"3-isometry (order-3 defect vanishes on the interior, "
                 f"max entry {b3_norm:.3e}) but not a 2-isometry; the dual "
                 f"defect entry <B_4(T')e_0, e_0> = -12/85 = "
                 f"{root_entry:.12f} is negative and the dual moment "
                 f"sequence fails the Stieltjes test at order {order}; "
                 f"NOT subnormal (decision path generic-moment-test)")
    return _DemoOutcome(statement, ok, {
        "b3_interior_max": b3_norm,
        "two_isometry": two.to_dict(),
        "dual_b4_root_entry": root_entry,
        "dual_b4_expected": target,
        "subnormality": rep.to_dict()})


def _demo_glowny(tol: float) -> _DemoOutcome:
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=16))
    shift = build_shift(WeightSpec("glowny", y1=1.1, y2=1.3), tree)
    two = is_two_isometry(shift, tol)
    kc0 = satisfies_kernel_condition(shift, 0, tol)
    kc1 = satisfies_kernel_condition(shift, 1, tol)
    cs = sum(shift.weight(v) ** 2 / (2.0 - vertex_norm(shift, v) ** 2)
             for v in tree.children_of(tree.root))
    n4 = vertex_norm(shift, tree.root) ** 4
    rep = dual_subnormality(shift, 12, tol)
    seq = moment_sequence(shift, tree.root, 8, dual=True)
    dev_pk = max(abs(seq[n] - perturbed_kernel_dual_moment(
        shift, tree.root, n, tol)) for n in range(1, 9))
    order = rep.evidence.get("root_stieltjes", {}).get("failing_order")
    integral = rep.evidence.get("extension_integral")
    ok = (two.holds and not kc0.holds and kc1.holds
          and abs(cs - 6.004067) < 1e-6 and abs(n4 - 5.043683) < 1e-6
          and cs > n4 and dev_pk < 1e-10
          and rep.verdict == "not-subnormal"
          and rep.decision_path == "main2")
    statement = (f"NOT subnormal (decision path main2): sibling constancy "
                 f"holds from generation 1 but fails at the root; the "
                 f"Cauchy-Schwarz sum {cs:.6f} exceeds the fourth power of "
                 f"the root norm {n4:.6f}, so the extension integral "
                 f"{integral:.6f} > 1; the root dual sequence fails the "
                 f"Stieltjes test at order {order}")
    return _DemoOutcome(statement, ok, {
        "two_isometry": two.to_dict(),
        "kernel_condition_k0": kc0.to_dict(),
        "kernel_condition_k1": kc1.to_dict(),
        "cauchy_schwarz_sum": cs, "root_norm_fourth_power": n4,
        "closed_form_max_deviation": dev_pk,
        "subnormality": rep.to_dict()})


def _demo_przadj(tol: float) -> _DemoOutcome:
    tree = materialize(hub_comb_tree_spec(3, 14))
    shift = build_shift(WeightSpec("adjacency"), tree)
    psi = tree.children_of(tree.root)[-1]
    mu = DiscreteMeasure([(0.25, 4.0 / 27.0), (1.0, 5.0 / 27.0)])
    admissible, integral, nu = backward_extension(mu)
    hub_seq = moment_sequence(shift, psi, 12, dual=True)
    dev_hub = max(abs(hub_seq[n] - nu.moment(n)) for n in range(13))
    rho = DiscreteMeasure.mix([(2.0 / 9.0, DiscreteMeasure([(1.0, 1.0)])),
                               (1.0 / 9.0, nu)])
    rho_zero = rho.mass_at(0.0)
    root_seq = moment_sequence(shift, tree.root, 12, dual=True)
    dev_root = max(abs(root_seq[n] - rho.moment(n - 1))
                   for n in range(1, 13))
    st = stieltjes_test(root_seq, tol)
    rho_adm, rho_integral, _ = backward_extension(rho)
    rep = dual_subnormality(shift, 12, tol)
    ok = (admissible and abs(integral - 7.0 / 9.0) < 1e-12
          and dev_hub < 1e-12 and abs(rho_zero - 2.0 / 81.0) < 1e-12
          and dev_root < 1e-12 and not st.is_stieltjes
          and not rho_adm and rho_integral == math.inf
          and rep.verdict == "not-subnormal"
          and rep.decision_path == "generic-moment-test")
    statement = (f"NOT subnormal (decision path generic-moment-test): the "
                 f"hub dual sequence is represented by the atomic measure "
                 f"nu (backward extension of mu, integral of 1/t = 7/9), "
                 f"but the root tail measure rho has rho({{0}}) = 2/81 > 0,"
                 f" so the root extension is inadmissible and the root "
                 f"dual sequence fails the Stieltjes test at order "
                 f"{st.failing_order}")
    return _DemoOutcome(statement, ok, {
        "hub_vertex": psi,
        "mu_atoms": [list(a) for a in mu.atoms],
        "reciprocal_integral_mu": integral,
        "nu_atoms": [list(a) for a in nu.atoms],
        "hub_sequence": list(hub_seq.values),
        "hub_max_deviation_from_nu_moments": dev_hub,
        "rho_atoms": [list(a) for a in rho.atoms],
        "rho_mass_at_zero": rho_zero,
        "root_sequence": list(root_seq.values),
        "root_max_deviation_from_shifted_rho_moments": dev_root,
        "root_stieltjes": st.to_dict(),
        "subnormality": rep.to_dict()}, root_seq)


def _demo_nbnkcsub(valency: int, tol: float) -> _DemoOutcome:
    tree = materialize(comb_tree_spec(valency, 14))
    shift = build_shift(WeightSpec("adjacency"), tree)
    root_seq = moment_sequence(shift, tree.root, 12, dual=True)
    dev = max(abs(root_seq[n]
                  - closed_form_table1("adjacency_pattern", valency, n))
              for n in range(13))
    st = stieltjes_test(root_seq, tol)
    rep = dual_subnormality(shift, 12, tol)
    expected_path = "BrownianG" if valency == 2 else "constant-t"
    evidence = {
        "valency": valency,
        "root_sequence": list(root_seq.values),
        "closed_form_max_deviation": dev,
        "stieltjes": st.to_dict(),
        "subnormality": rep.to_dict()}
    ok = (dev < 1e-10 and st.is_stieltjes
          and rep.verdict == "subnormal"
          and rep.decision_path == expected_path)
    if valency == 2:
        gap = max(abs(closed_form_table1("adjacency_pattern", 2, n)
                      - closed_form_table1("quasi_brownian", 2.0, n))
                  for n in range(13))
        vt_pattern = verify_table1(shift, "adjacency_pattern", nmax=8,
                                   tol=tol)
        vt_qb = verify_table1(shift, "quasi_brownian", nmax=8, tol=tol)
        evidence["row_agreement_max_gap"] = gap
        evidence["pattern_row_check"] = vt_pattern.to_dict()
        evidence["quasi_brownian_row_check"] = vt_qb.to_dict()
        ok = ok and gap < 1e-12 and vt_pattern.holds and vt_qb.holds
        statement = (f"subnormal (decision path BrownianG): the valency-2 "
                     f"comb is a quasi-Brownian tree, and the pattern and "
                     f"quasi-Brownian closed forms agree pointwise (max "
                     f"gap {gap:.3e}); root dual moments match the "
                     f"pattern (max deviation {dev:.3e})")
    else:
        statement = (f"subnormal (decision path constant-t): root dual "
                     f"moments equal the closed-form pattern for valency "
                     f"{valency} (max deviation {dev:.3e}); Stieltjes "
                     f"test passes to order 12")
    return _DemoOutcome(statement, ok, evidence, root_seq)


def _demo_brownian_shift(tol: float) -> _DemoOutcome:
    sigma = 1.0
    trunc = build_brownian_shift(sigma, 64)
    vt = verify_table1(trunc, "quasi_brownian", nmax=10, tol=tol)
    b2_norm = _interior_defect(trunc, 2)
    dual = dual_matrix(trunc)
    c = trunc.index("c")
    r1 = float((dual.matrix[:, c] ** 2).sum())
    t = 1.0 + sigma ** 2
    ok = (vt.holds and b2_norm < 1e-10
          and abs(r1 - closed_form_table1("quasi_brownian", t, 1)) < 1e-12)
    statement = (f"expansion with rank-one defect (sigma = {sigma}): dual "
                 f"power norms match the closed form at t = 1 + sigma^2 = "
                 f"{t} (max deviation {vt.max_abs_error:.3e}); order-2 "
                 f"defect vanishes on the interior ({b2_norm:.3e}); the "
                 f"dual is subnormal (quasi-Brownian class)")
    return _DemoOutcome(statement, ok, {
        "sigma": sigma, "t": t,
        "table_row_check": vt.to_dict(),
        "b2_interior_max": b2_norm,
        "dual_first_moment_at_c": r1,
        "expected_r1": closed_form_table1("quasi_brownian", t, 1)})


def _demo_two_plus_three(tol: float) -> _DemoOutcome:
    depth = 12
    x = 1.2
    tree_a = materialize(two_plus_three_tree_spec("a", depth))
    tree_b = materialize(two_plus_three_tree_spec("b", depth))
    shift_a = build_shift(WeightSpec("kernel_condition", x=x), tree_a)
    shift_b = build_shift(WeightSpec("kernel_condition", x=x), tree_b)
    inv_a = shift_invariants(shift_a, tol)
    inv_b = shift_invariants(shift_b, tol)
    eq_same = are_unitarily_equivalent(inv_a, inv_b)
    shift_a13 = build_shift(WeightSpec("kernel_condition", x=1.3), tree_a)
    eq_x = are_unitarily_equivalent(inv_a, shift_invariants(shift_a13, tol))
    tree_c = materialize(TreeSpec("generation_rule", rule=((2,), (4, 1)),
                                  depth=depth))
    shift_c = build_shift(WeightSpec("kernel_condition", x=x), tree_c)
    eq_branch = are_unitarily_equivalent(inv_a,
                                         shift_invariants(shift_c, tol))
    block, decomposition = block_shift_from_atoms(
        [(math.sqrt(2.0), 1), (1.2, 2)], 16)
    hand_built = [(1.2,), (1.2,), (math.sqrt(2.0),)]
    multiset_ok = are_unitarily_equivalent_multiset(
        [(x_,) for x_ in decomposition], hand_built)
    b2_norm = _interior_defect(block, 2)
    ok = (eq_same and not eq_x and not eq_branch and multiset_ok
          and b2_norm < 1e-10)
    statement = (f"complete invariants decide equivalence: the two "
                 f"branching variants with equal first weight x = {x} are "
                 f"unitarily equivalent (root norm + branching degrees "
                 f"{list(inv_a.branching[:3])}...); changing x to 1.3 or "
                 f"one branching degree breaks equivalence; the block "
                 f"orthogonal sum decomposes into the multiset "
                 f"{{1.2, 1.2, sqrt(2)}}")
    return _DemoOutcome(statement, ok, {
        "equal_parameters_equivalent": eq_same,
        "different_x_equivalent": eq_x,
        "different_branching_equivalent": eq_branch,
        "invariants_a": inv_a.to_dict(),
        "invariants_b": inv_b.to_dict(),
        "block_decomposition": list(decomposition),
        "block_multiset_matches": multiset_ok,
        "block_b2_interior_max": b2_norm})


def _demo_mewa_distinction(tol: float) -> _DemoOutcome:
    tree = materialize(TreeSpec("quasi_brownian", valency=3, depth=12))
    cls = classify_adjacency(tree, tol)
    shift = build_shift(WeightSpec("adjacency"), tree)
    rep = dual_subnormality(shift, 10, tol)
    ok = (cls.two_isometry.holds and cls.quasi_brownian_isometry.holds
          and not cls.brownian_isometry.holds and not cls.isometry.holds
          and not cls.kernel_condition.holds
          and rep.verdict == "subnormal"
          and rep.decision_path == "BrownianG")
    statement = ("the valency-3 adjacency model separates the classes: a "
                 "quasi-Brownian isometry that is neither Brownian nor an "
                 "isometry and does not satisfy sibling constancy; its "
                 "dual is subnormal (decision path BrownianG)")
    return _DemoOutcome(statement, ok, {**cls.to_dict(),
                                        "subnormality": rep.to_dict()})


def _demo_sl_chm(tol: float) -> _DemoOutcome:
    depth = 6
    norms = []
    residual_max = 0.0
    for eta in (4, 8, 16):
        tree = materialize(TreeSpec("t_eta_kappa", eta=eta,
                                    depth=depth)).expanded()
        # ray i starts with weight 2^-i, then takes the two-isometry
        # weights of first weight second[i]; in canonical order,
        # generation g >= 1 holds vertex g of every ray, in ray order
        second = [math.sqrt(i / 2.0 + 1.0) if i % 2 == 0 else 1.0
                  for i in range(1, eta + 1)]
        w = [0.0] + [2.0 ** (-i) for i in range(1, eta + 1)]
        for g in range(2, depth + 1):
            w += [two_isometry_weight(g - 2, x) for x in second]
        shift = WeightedShift(tree, w, name=f"sl-chm(eta={eta})")
        norms.append(operator_norm(shift))
        weights = shift.edge_weights.tolist()
        vertex_norms = shift.class_norms.tolist()
        # the one child v of every vertex of generations 1..depth-2
        for v in range(1 + eta, 1 + (depth - 1) * eta):
            lhs = weights[v] ** 2 * (2.0 - vertex_norms[v] ** 2)
            residual_max = max(residual_max, abs(lhs - 1.0))
    growing = all(a < b for a, b in zip(norms, norms[1:]))
    ok = growing and residual_max < 1e-12
    statement = (f"unbounded family: the expansion identity holds exactly "
                 f"at every non-root vertex (max residual "
                 f"{residual_max:.3e}), yet the largest vertex norm grows "
                 f"without bound with the branch count: "
                 f"{[round(n, 6) for n in norms]} for 4, 8, 16 branches")
    return _DemoOutcome(statement, ok, {
        "branch_counts": [4, 8, 16],
        "largest_vertex_norms": norms,
        "interior_residual_max": residual_max,
        "note": "finite surrogate of an unbounded construction: the "
                "root-level identity needs the full infinite branch "
                "family, so only non-root vertices are checked"})


_DEMOS: dict[str, Callable[[float], _DemoOutcome]] = {
    "dirichlet": _demo_dirichlet,
    "bergman-dual": _demo_bergman_dual,
    "treiso": _demo_treiso,
    "glowny": _demo_glowny,
    "przadj": _demo_przadj,
    "nbnkcsub": functools.partial(_demo_nbnkcsub, 3),
    "nbnkcsub-2": functools.partial(_demo_nbnkcsub, 2),
    "nbnkcsub-3": functools.partial(_demo_nbnkcsub, 3),
    "nbnkcsub-4": functools.partial(_demo_nbnkcsub, 4),
    "brownian-shift": _demo_brownian_shift,
    "two-plus-three": _demo_two_plus_three,
    "mewa-distinction": _demo_mewa_distinction,
    "sl-chm": _demo_sl_chm,
}

DEMO_NAMES = tuple(sorted(_DEMOS))


def run_demo(name: str, tol: float = DEFAULT_TOL) -> tuple[dict, int]:
    """Run one catalog demo at its published orders.  Returns (report
    payload, exit code); exit code 0 iff every check matches the demo's
    published conclusion."""
    _as_demo(name, "$.demo")
    tol = check_tolerance(tol)
    start = time.perf_counter()
    outcome = _DEMOS[name](tol)
    payload = {"demo": name,
               "statement": outcome.statement,
               "conclusion_matches": outcome.ok,
               "evidence": outcome.evidence,
               "wall_clock_s": round(time.perf_counter() - start, 6)}
    if outcome.csv_sequence is not None:
        payload["sequence"] = list(outcome.csv_sequence.values)
    return payload, 0 if outcome.ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _write_csv(path: str, seq: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,value\n")
        for n, v in enumerate(seq):
            fh.write(f"{n},{v!r}\n")


class _Fallback(Exception):
    """The report holds something only ``json.dumps`` renders exactly."""


# the exact types of JSON scalars; any other type is checked for being a
# container subclass, which only json.dumps renders exactly
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _scalar_encoder() -> Callable[[Any, int], Sequence[str]]:
    """The C encoder that writes a list of JSON scalars with a raw line
    break between items; no encoded scalar holds one.  A separator of one
    character keeps the text that is split short."""
    return c_make_encoder(None, json.JSONEncoder().default,
                          encode_basestring_ascii, None, ": ", "\n",
                          True, False, True)


def _block(brackets: str, items: Sequence[str], level: int) -> str:
    """A non-empty container opened at indent ``level``, one item per
    line."""
    opening, closing = brackets
    indent = "\n" + "  " * level
    inner = indent + "  "
    return f"{opening}{inner}{(',' + inner).join(items)}{indent}{closing}"


def _row_template(rows: Sequence[dict], level: int,
                  columns: list[list]) -> Optional[str]:
    """The template of a row of ``rows``, dicts opened at indent
    ``level``; the scalar columns are appended to ``columns`` in the
    order of their ``%s``.

    None unless the rows share one layout: the same non-empty set of
    ``str`` keys, and each column holding only exact JSON scalars, or
    only dicts that share one layout in turn."""
    # rows of one length that all hold the keys of the first hold the same
    # keys; empty rows have no key type, so they fail the first test
    if (set(map(type, chain.from_iterable(rows))) != {str}
            or len(set(map(len, rows))) != 1):
        return None
    items = []
    for k in sorted(rows[0]):
        try:
            column = [row[k] for row in rows]
        except KeyError:
            return None
        kinds = set(map(type, column))
        if kinds <= _SCALARS:
            columns.append(column)
            value = "%s"
        elif kinds == {dict}:
            value = _row_template(column, level + 1, columns)
            if value is None:
                return None
        else:
            return None
        items.append(encode_basestring_ascii(k).replace("%", "%%")
                     + ": " + value)
    return _block("{}", items, level)


def _template(obj: Any, level: int, scalars: list) -> str:
    """The indent-2 rendering of obj, opened at indent ``level``, as a
    format string with one ``%s`` per dict key and per scalar; they are
    appended to ``scalars`` in the order of their ``%s``.  ``sorted``
    orders the keys as ``sort_keys`` does.

    A list of two or more dicts that share one layout (a run) is one row
    template repeated, its scalars added row by row.  Raises _Fallback
    for a key that is not a ``str`` and for a container subclass."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:
            raise _Fallback
        items = sorted(obj.items())  # unique keys: no value is compared
        if set(map(type, obj.values())) <= _SCALARS:
            scalars.extend(chain.from_iterable(items))
            return _block("{}", ["%s: %s"] * len(items), level)
        texts = []
        for k, v in items:
            scalars.append(k)
            if type(v) in _SCALARS:
                scalars.append(v)
                texts.append("%s: %s")
            else:
                texts.append("%s: " + _template(v, level + 1, scalars))
        return _block("{}", texts, level)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds <= _SCALARS:
            scalars.extend(obj)
            return _block("[]", ["%s"] * len(obj), level)
        if kinds == {dict} and len(obj) > 1:
            columns: list[list] = []
            row = _row_template(obj, level + 1, columns)
            if row is not None:
                scalars.extend(chain.from_iterable(zip(*columns)))
                return _block("[]", [row] * len(obj), level)
        return _block("[]", [_template(v, level + 1, scalars) for v in obj],
                      level)
    if isinstance(obj, (dict, list, tuple)):
        raise _Fallback
    scalars.append(obj)
    return "%s"


def _render_report(obj: Any) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2)``.

    With ``indent``, ``json`` encodes in pure Python; here one walk
    writes the report's layout as a template, one C encoder call writes
    all its scalars, and one ``%`` puts them in place.  Whatever the walk
    cannot render exactly (no C encoder, a key that is not a ``str``, a
    container subclass, a cycle) goes to ``json.dumps`` whole."""
    if c_make_encoder is not None:
        scalars: list = []
        try:
            template = _template(obj, 0, scalars)
        except (_Fallback, RecursionError):
            pass
        else:
            text = "".join(_scalar_encoder()(scalars, 0))
            return template % tuple(text[1:-1].split("\n") if scalars else ())
    return json.dumps(obj, sort_keys=True, indent=2)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="treeshift",
        description="Weighted shifts on rooted trees: property checks, "
                    "Cauchy duals, moment tests, and a demo catalog.")
    parser.add_argument("--spec", metavar="PATH",
                        help="JSON run spec ('-' reads stdin)")
    parser.add_argument("--demo", metavar="NAME",
                        help=f"run a catalog demo; one of: "
                             f"{', '.join(DEMO_NAMES)}")
    parser.add_argument("--out", metavar="PATH",
                        help="write the JSON report to this file")
    parser.add_argument("--csv", metavar="PATH",
                        help="write the last computed moment sequence as "
                             "CSV (header n,value)")
    parser.add_argument("--tol", type=_tolerance_arg, default=None,
                        help="tolerance override, finite and > 0 "
                             "(default 1e-9, relative)")
    parser.add_argument("--nmax", type=int, default=None,
                        help="default moment order of a --spec run "
                             "(default 12)")
    parser.add_argument("--depth", type=int, default=None,
                        help="materialization depth override of a --spec "
                             "run")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stdout report")
    return parser


# glibc mallopt parameters and the values main() sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 64 << 20
_TRIM_THRESHOLD = 128 << 20


@functools.cache
def _set_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds, once per process.

    By default glibc serves each block above 128 KiB with a fresh mmap
    and unmaps it on free, so a run that builds arrays of a few hundred
    KB pays a page fault per 4 KiB page on every pass; the threshold
    rises only after a large block is freed.  Fixed at 64 MiB (mmap) and
    128 MiB (trim), freed arrays stay in the heap for reuse.  A no-op
    where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _set_malloc_thresholds()
    parser = _parser()
    args = parser.parse_args(argv)
    for name in ("nmax", "depth"):
        value = getattr(args, name)
        if value is not None and not 0 <= value <= _INT_MAX:
            bound = ">= 0" if value < 0 else f"<= {_INT_MAX}"
            parser.error(f"argument --{name}: must be {bound}, got {value}")

    if (args.spec is None) == (args.demo is None):
        parser.print_usage(sys.stderr)
        print("error: exactly one of --spec and --demo is required",
              file=sys.stderr)
        return 2
    if args.demo is not None and (args.nmax, args.depth) != (None, None):
        parser.print_usage(sys.stderr)
        print("error: --nmax and --depth apply to --spec only; a demo runs "
              "at its published orders", file=sys.stderr)
        return 2

    try:
        if args.demo is not None:
            tol = DEFAULT_TOL if args.tol is None else args.tol
            payload, code = run_demo(args.demo, tol=tol)
            report = _envelope(tol, [payload], code)
            csv_seq = payload.get("sequence")
        else:
            if args.spec == "-":
                raw, spec_path = sys.stdin.buffer.read(), "<stdin>"
            else:
                with open(args.spec, "rb") as fh:
                    raw, spec_path = fh.read(), args.spec
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SpecParseError(f"spec is not UTF-8: {exc}",
                                     json_path="$") from exc
            report, code = run_suite(
                parse_spec(text, depth=args.depth), tol=args.tol,
                nmax=12 if args.nmax is None else args.nmax)
            report["input"] = {
                "path": spec_path,
                "digest": "sha256:" + hashlib.sha256(raw).hexdigest()}
            csv_seq = None
            for entry in report["results"]:
                values = entry.get("result", {}).get("values")
                if entry.get("command") == "moments" and values:
                    csv_seq = values
    except (TreeShiftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rendered = _render_report(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    if args.csv:
        if csv_seq is None:
            print("error: --csv given but no command produced a moment "
                  "sequence", file=sys.stderr)
            return 2
        try:
            _write_csv(args.csv, csv_seq)
        except OSError as exc:
            print(f"error: cannot write CSV: {exc}", file=sys.stderr)
            return 2
    if not args.quiet:
        print(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
