"""Rule R9: deterministic-kernel hygiene in plan-order-sensitive code.

The paper reproduction is pinned on bit-identical replay: every backend
must produce the same bytes for the same schedule, which means every
array ordering decision on the compile/replay path must be a pure
function of the input pattern.  Two classic ways to silently lose that:

* ``np.sort`` / ``np.argsort`` (function or ``.argsort()`` method form)
  default to introsort, which is *unstable*: equal keys land in an
  arbitrary order that can change with numpy version, array layout, or
  SIMD width.  Everything on the plan path passes ``kind="stable"`` or
  calls :func:`repro.sparse.coo.stable_argsort` — the one sanctioned
  route to an unstable sort, run only on keys made distinct by their
  position — and this rule keeps it that way.  ``np.lexsort`` is
  deliberately **not** flagged: numpy guarantees it is stable (it is a
  sequence of mergesorts and accepts no ``kind=``), so flagging it
  would only breed no-op suppressions.
* ``set``/``dict``-iteration feeding an array constructor
  (``np.array(list(seen))``, ``np.fromiter(d.keys(), ...)``): set order
  is hash-and-history dependent, and even dict insertion order is a
  program-history artifact rather than a function of the data.  Wrap
  the iterable in ``sorted(...)`` to make the order canonical — the
  rule recognizes that and stays quiet.

Scope: modules under a ``core``, ``graph``, or ``serve`` path segment —
the packages whose output feeds schedules, plans, or served responses.
``# lint: disable=R9`` suppresses a deliberate exception in place.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, SourceFile

RULE = "R9"

#: Path segments placing a module in scope.
_SCOPED_SEGMENTS = {"core", "graph", "serve"}

#: numpy functions that must carry a stable ``kind=``.
_SORT_FUNCTIONS = {"sort", "argsort"}

#: ``kind=`` values numpy documents as stable.
_STABLE_KINDS = {"stable", "mergesort"}

#: Array constructors whose argument order becomes array order.
_ARRAY_CONSTRUCTORS = {
    "array",
    "asarray",
    "asanyarray",
    "fromiter",
    "concatenate",
    "stack",
    "hstack",
    "vstack",
}

#: Dict-view methods whose iteration order is insertion history.
_VIEW_METHODS = {"keys", "values", "items"}


def _in_scope(source: SourceFile) -> bool:
    return bool(set(source.path.parts) & _SCOPED_SEGMENTS)


def _is_np_call(node: ast.Call, names: set[str]) -> str | None:
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in names
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


def _has_stable_kind(node: ast.Call) -> bool:
    for keyword in node.keywords:
        if keyword.arg == "kind":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value in _STABLE_KINDS
            )
    return False


def _unordered_iteration(node: ast.AST) -> ast.AST | None:
    """First set/dict-iteration node in the subtree, honoring sorted().

    Walks the expression tree under an array-constructor argument;
    descending stops at any ``sorted(...)`` call because sorting
    canonicalizes whatever order the iterable had.
    """
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "sorted":
                return None
            if func.id in ("set", "frozenset"):
                return node
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _VIEW_METHODS
            and not node.args
            and not node.keywords
        ):
            return node
    if isinstance(node, (ast.Set, ast.SetComp)):
        return node
    for child in ast.iter_child_nodes(node):
        hit = _unordered_iteration(child)
        if hit is not None:
            return hit
    return None


def check(source: SourceFile) -> list[Finding]:
    if not _in_scope(source):
        return []
    findings: list[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        sort_name = _is_np_call(node, _SORT_FUNCTIONS)
        method_sort = (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "argsort"
            and sort_name is None
        )
        if (sort_name or method_sort) and not _has_stable_kind(node):
            name = f"np.{sort_name}" if sort_name else ".argsort()"
            findings.append(
                source.finding(
                    RULE,
                    node,
                    f"{name} without kind=\"stable\": the default "
                    "introsort breaks ties in an arbitrary, "
                    "numpy-version-dependent order, which silently "
                    "forfeits bit-identical replay on the plan path "
                    "(# lint: disable=R9 for a deliberate exception)",
                )
            )
            continue
        if _is_np_call(node, _ARRAY_CONSTRUCTORS):
            for arg in node.args:
                hit = _unordered_iteration(arg)
                if hit is not None:
                    what = (
                        "set iteration"
                        if isinstance(hit, (ast.Set, ast.SetComp))
                        or (
                            isinstance(hit, ast.Call)
                            and isinstance(hit.func, ast.Name)
                        )
                        else f"dict .{hit.func.attr}() iteration"  # type: ignore[union-attr]
                    )
                    findings.append(
                        source.finding(
                            RULE,
                            node,
                            f"{what} feeding an array constructor: the "
                            "element order is hash/insertion history, "
                            "not a function of the data — wrap it in "
                            "sorted(...) to canonicalize "
                            "(# lint: disable=R9 for a deliberate "
                            "exception)",
                        )
                    )
                    break
    return findings
