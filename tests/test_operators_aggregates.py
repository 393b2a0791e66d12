"""Tests for the aggregate state machinery (sub/super-aggregate split)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gsql.ast_nodes import AggCall, Column
from repro.operators.aggregates import AggregateOps, partial_layout


def make_ops(*names):
    """AggregateOps over rows that are (value,) 1-tuples."""
    aggregates = [
        AggCall(name, None if name == "COUNT" else Column("v"))
        for name in names
    ]
    arg_fns = [None if name == "COUNT" else (lambda row: row[0])
               for name in names]
    return AggregateOps(aggregates, arg_fns)


class TestLayout:
    def test_avg_takes_two_slots(self):
        aggregates = [AggCall("COUNT", None), AggCall("AVG", Column("v")),
                      AggCall("SUM", Column("v"))]
        assert partial_layout(aggregates) == [1, 2, 1]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AggregateOps([AggCall("COUNT", None)], [])


class TestDirectAccumulation:
    def test_all_aggregates(self):
        ops = make_ops("COUNT", "SUM", "MIN", "MAX", "AVG")
        state = ops.new_state()
        for value in (5, 1, 9, 3):
            ops.update(state, (value,))
        assert ops.final_values(state) == (4, 18, 1, 9, 4.5)

    def test_avg_of_nothing_is_zero(self):
        ops = make_ops("AVG")
        assert ops.final_values(ops.new_state()) == (0.0,)

    def test_min_max_single_value(self):
        ops = make_ops("MIN", "MAX")
        state = ops.new_state()
        ops.update(state, (7,))
        assert ops.final_values(state) == (7, 7)


class TestPartialCombine:
    def test_partials_round_trip(self):
        ops = make_ops("COUNT", "SUM", "MIN", "MAX", "AVG")
        state = ops.new_state()
        for value in (2, 8, 4):
            ops.update(state, (value,))
        partials = ops.partials(state)
        assert len(partials) == ops.partial_width == 6
        combined = ops.new_state()
        ops.combine(combined, partials)
        assert ops.final_values(combined) == ops.final_values(state)

    def test_combining_two_partials(self):
        ops = make_ops("COUNT", "SUM", "MIN", "MAX", "AVG")
        left, right = ops.new_state(), ops.new_state()
        for value in (1, 2, 3):
            ops.update(left, (value,))
        for value in (10, 20):
            ops.update(right, (value,))
        total = ops.new_state()
        ops.combine(total, ops.partials(left))
        ops.combine(total, ops.partials(right))
        assert ops.final_values(total) == (5, 36, 1, 20, 7.2)

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=60),
           st.data())
    def test_any_split_equals_direct(self, values, data):
        """Splitting the stream at arbitrary points (LFTA evictions) and
        recombining (HFTA) must equal direct aggregation -- the core
        correctness property of the aggregate query splitting."""
        ops = make_ops("COUNT", "SUM", "MIN", "MAX", "AVG")
        direct = ops.new_state()
        for value in values:
            ops.update(direct, (value,))

        combined = ops.new_state()
        cursor = 0
        while cursor < len(values):
            size = data.draw(st.integers(1, len(values) - cursor))
            chunk = ops.new_state()
            for value in values[cursor:cursor + size]:
                ops.update(chunk, (value,))
            ops.combine(combined, ops.partials(chunk))
            cursor += size

        direct_final = ops.final_values(direct)
        combined_final = ops.final_values(combined)
        assert direct_final[:4] == combined_final[:4]
        assert direct_final[4] == pytest.approx(combined_final[4])


# -- differential test: compiled folds vs a reference interpreter -------------
#
# The per-aggregate loops AggregateOps compiled its folds from, kept here
# as the reference: the generated code must do the same arithmetic, in
# the same order, on the same state shapes.

def ref_new_state(aggregates):
    return [[0.0, 0] if agg.name == "AVG"
            else None if agg.name in ("MIN", "MAX") else 0
            for agg in aggregates]


def ref_update(aggregates, arg_fns, state, row, weight=None):
    weighted = weight is not None
    for index, agg in enumerate(aggregates):
        name = agg.name
        if name == "COUNT":
            state[index] += weight if weighted else 1
            continue
        value = arg_fns[index](row)
        if name == "SUM":
            state[index] += value * weight if weighted else value
        elif name == "MIN":
            if state[index] is None or value < state[index]:
                state[index] = value
        elif name == "MAX":
            if state[index] is None or value > state[index]:
                state[index] = value
        elif name == "AVG":
            pair = state[index]
            pair[0] += value * weight if weighted else value
            pair[1] += weight if weighted else 1


def ref_combine(aggregates, state, partial_slots):
    cursor = 0
    for index, agg in enumerate(aggregates):
        name = agg.name
        if name == "AVG":
            pair = state[index]
            pair[0] += partial_slots[cursor]
            pair[1] += partial_slots[cursor + 1]
            cursor += 2
            continue
        value = partial_slots[cursor]
        cursor += 1
        if name in ("COUNT", "SUM"):
            state[index] += value
        elif name == "MIN":
            if state[index] is None or (value is not None and value < state[index]):
                state[index] = value
        elif name == "MAX":
            if state[index] is None or (value is not None and value > state[index]):
                state[index] = value


def ref_partials(aggregates, state):
    out = []
    for index, agg in enumerate(aggregates):
        if agg.name == "AVG":
            out.extend(state[index])
        else:
            out.append(state[index])
    return tuple(out)


def ref_final_values(aggregates, state):
    out = []
    for index, agg in enumerate(aggregates):
        if agg.name == "AVG":
            total, count = state[index]
            out.append(total / count if count else 0.0)
        else:
            out.append(state[index])
    return tuple(out)


def exact(value):
    """``value`` with every float spelled by ``float.hex`` and every
    number tagged with its type, so 1 and 1.0 (or two sums that differ
    in the last bit) never compare equal."""
    if isinstance(value, (list, tuple)):
        return [type(value).__name__] + [exact(item) for item in value]
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


AGG_NAMES = ("COUNT", "SUM", "MIN", "MAX", "AVG")
VALUES = st.one_of(
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.1, -0.0, 1e300, 3]))


class TestCompiledFoldMatchesReference:
    @given(aggregates=st.lists(st.tuples(st.sampled_from(AGG_NAMES),
                                         st.integers(0, 1)), max_size=6),
           rows=st.lists(st.tuples(st.integers(-1000, 1000), VALUES,
                                   st.sampled_from([None, 1.0, 2.0, 1 / 0.3])),
                         max_size=30))
    def test_states_partials_and_finals_equal(self, aggregates, rows):
        calls = [AggCall(name, None if name == "COUNT" else Column("v"))
                 for name, _ in aggregates]
        arg_fns = [None if name == "COUNT" else (lambda row, col=col: row[col])
                   for name, col in aggregates]
        ops = AggregateOps(calls, arg_fns)
        state, expected = ops.new_state(), ref_new_state(calls)
        assert exact(state) == exact(expected)
        for row in rows:
            weight = row[2]
            if weight is None:
                ops.update(state, row)
                ref_update(calls, arg_fns, expected, row)
            else:
                ops.update_weighted(state, row, weight)
                ref_update(calls, arg_fns, expected, row, weight)
            assert exact(state) == exact(expected)
        partials = ops.partials(state)
        assert exact(partials) == exact(ref_partials(calls, expected))
        assert exact(ops.final_values(state)) == \
            exact(ref_final_values(calls, expected))
        # Superaggregate steps from a fresh state: MIN/MAX start from
        # None, and a None partial (no rows yet) must not win.
        empty = ops.partials(ops.new_state())
        combined, expected_combined = ops.new_state(), ref_new_state(calls)
        for slots in (empty, partials, empty, partials):
            ops.combine(combined, slots)
            ref_combine(calls, expected_combined, slots)
            assert exact(combined) == exact(expected_combined)
