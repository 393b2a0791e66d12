"""Aggregate state machinery shared by LFTA and HFTA aggregation.

Gigascope's aggregate query splitting works like sub-/super-aggregates
in data-cube computation: the LFTA maintains *partial* states that the
HFTA later *combines*.  For each GSQL aggregate this module defines

* ``init/update`` -- per-tuple accumulation,
* ``partials`` -- the flat slot encoding emitted by an LFTA,
* ``combine`` -- folding a partial encoding into a state, and
* ``final`` -- the finished value,

as Python source templates that :class:`AggregateOps` compiles into
one function per operation over a query's whole aggregate list.

COUNT combines by summing counts; SUM by summing; MIN/MAX by min/max;
AVG carries a (sum, count) pair across the split.
"""

from __future__ import annotations

import functools
import textwrap
from types import CodeType
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.gsql.ast_nodes import AggCall


def partial_layout(aggregates: Sequence[AggCall]) -> List[int]:
    """Number of partial slots each aggregate occupies (AVG needs two)."""
    return [2 if agg.name == "AVG" else 1 for agg in aggregates]


class _Fold(NamedTuple):
    """Source templates of one aggregate over its state slot ``s[{i}]``."""

    #: the initial state
    init: str
    #: statements folding row ``t``; ``_a{i}`` is the argument function
    update: str
    #: statements folding row ``t`` with Horvitz-Thompson weight ``w``
    weighted: str
    #: statements folding a partial encoding ``p`` whose slots start at
    #: ``p[{c}]``
    combine: str
    #: the state's partial slots, as items of a tuple display
    partials: str
    #: the finished value
    final: str


def _extremum(op: str) -> _Fold:
    """MIN (``op`` is ``<``) or MAX (``>``), undefined until the first
    value.  Order statistics fold unweighted: no reweighting can
    correct them, so the sample extremum is the best estimate."""
    fold = ("v = _a{i}(t)\nx = s[{i}]\n"
            f"if x is None or v {op} x:\n    s[{{i}}] = v")
    return _Fold("None", fold, fold,
                 "v = p[{c}]\nx = s[{i}]\n"
                 f"if x is None or (v is not None and v {op} x):\n"
                 "    s[{i}] = v",
                 "s[{i}]", "s[{i}]")


_FOLDS: Dict[str, _Fold] = {
    "COUNT": _Fold("0", "s[{i}] += 1", "s[{i}] += w", "s[{i}] += p[{c}]",
                   "s[{i}]", "s[{i}]"),
    "SUM": _Fold("0", "v = _a{i}(t)\ns[{i}] += v",
                 "v = _a{i}(t)\ns[{i}] += v * w", "s[{i}] += p[{c}]",
                 "s[{i}]", "s[{i}]"),
    "MIN": _extremum("<"),
    "MAX": _extremum(">"),
    "AVG": _Fold("[0.0, 0]",
                 "v = _a{i}(t)\nx = s[{i}]\nx[0] += v\nx[1] += 1",
                 "v = _a{i}(t)\nx = s[{i}]\nx[0] += v * w\nx[1] += w",
                 "x = s[{i}]\nx[0] += p[{c}]\nx[1] += p[{c} + 1]",
                 "*s[{i}]", "(s[{i}][0] / s[{i}][1] if s[{i}][1] else 0.0)"),
}


@functools.lru_cache(maxsize=256)
def _fold_code(names: Tuple[str, ...], layout: Tuple[int, ...]) -> CodeType:
    """The compiled operations of one aggregate list, by name, with its
    :func:`partial_layout`.

    Argument functions are free names (``_a{i}``) bound by the globals
    each :class:`AggregateOps` executes this code in, so queries with
    the same aggregate list share one compilation.
    """
    folds = [_FOLDS[name] for name in names]
    cursors = [sum(layout[:index]) for index in range(len(folds))]

    def fill(field: str) -> List[str]:
        return [getattr(fold, field).format(i=index, c=cursors[index])
                for index, fold in enumerate(folds)]

    def function(header: str, field: str) -> str:
        body = "\n".join(fill(field)) or "pass"
        return f"def {header}:\n" + textwrap.indent(body, "    ") + "\n"

    def display(field: str) -> str:
        return "(" + "".join(item + ", " for item in fill(field)) + ")"

    source = (
        f"def new_state():\n    return [{', '.join(fill('init'))}]\n"
        + function("update(s, t)", "update")
        + function("update_weighted(s, t, w)", "weighted")
        + function("combine(s, p)", "combine")
        + f"def partials(s):\n    return {display('partials')}\n"
        + f"def final_values(s):\n    return {display('final')}\n")
    return compile(source, "<aggregates>", "exec")


class AggregateOps:
    """Executes a list of aggregates over group state lists.

    ``arg_fns`` holds one compiled argument-extractor per aggregate
    (``None`` for COUNT(*)), each taking the input tuple.  Every
    operation is generated once from the aggregate list, the way
    ``repro.gsql.codegen`` compiles predicates, so a row or a group
    pays one call with no per-aggregate dispatch.
    """

    def __init__(self, aggregates: Sequence[AggCall],
                 arg_fns: Sequence[Optional[Callable[[tuple], Any]]]) -> None:
        if len(aggregates) != len(arg_fns):
            raise ValueError("one argument function per aggregate required")
        self.aggregates = list(aggregates)
        self.layout = partial_layout(aggregates)
        self.partial_width = sum(self.layout)
        env = {f"_a{index}": fn for index, fn in enumerate(arg_fns)}
        exec(_fold_code(tuple(agg.name for agg in self.aggregates),
                        tuple(self.layout)), env)
        #: ``() -> state``: a fresh group state
        self.new_state: Callable[[], list] = env["new_state"]
        #: ``(state, row)``: fold one raw input tuple into ``state``
        self.update: Callable[[list, tuple], None] = env["update"]
        #: ``(state, row, weight)``: fold one sampled tuple with a
        #: Horvitz-Thompson weight.  Used by the overload control plane:
        #: when an LFTA keeps a packet with probability ``p``, the kept
        #: tuple carries ``weight = 1/p`` so additive aggregates stay
        #: unbiased under shedding.  COUNT adds ``weight``, SUM adds
        #: ``value * weight``, AVG accumulates the weighted sum over
        #: total weight; MIN/MAX fold unweighted.
        self.update_weighted: Callable[[list, tuple, float], None] = (
            env["update_weighted"])
        #: ``(state, partial_slots)``: fold one partial encoding (a
        #: superaggregate step) into ``state``
        self.combine: Callable[[list, Sequence[Any]], None] = env["combine"]
        #: ``state -> tuple``: the LFTA partial-slot encoding of ``state``
        self.partials: Callable[[list], Tuple[Any, ...]] = env["partials"]
        #: ``state -> tuple``: one finished value per aggregate, in
        #: declaration order
        self.final_values: Callable[[list], Tuple[Any, ...]] = (
            env["final_values"])
