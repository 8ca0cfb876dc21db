"""Property-based tests: every registered representation vs Python's set.

The matrix is derived from ``repro.core.registry.SET_CLASSES`` so that new
backends — including user classes added via ``register_set_class`` — are
tested automatically.  Exact classes must agree with Python's ``set``
verbatim; approximate classes (``cls.IS_EXACT`` false) are held to their
one-sided guarantees instead:

* materialized ``intersect`` ⊇ truth (bounded by the left operand),
  ``diff`` ⊆ truth, ``union`` ⊇ truth;
* ``contains`` has no false negatives;
* ``*_count`` estimates stay inside their always-valid clamp ranges;
* iteration/cardinality/``to_array``/``clone`` reflect the exact member
  store (sketch-augmented design), hence stay strict everywhere.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (BitSet, HashSet, SortedSet, bit_set, hash_set,
                        sorted_set)
from repro.core.counters import Snapshot, snapshot
from repro.core.interface import SetBase
from repro.core.registry import get_set_class, registered_set_classes
from repro.graph import SetGraph, build_oriented_set_graph, build_undirected
from repro.graph.generators import holme_kim
from repro.graph.transforms import oriented_arcs

CLASSES = registered_set_classes()
EXACT_CLASSES = [cls for cls in CLASSES if cls.IS_EXACT]

elements = st.integers(min_value=0, max_value=200_000)
element_lists = st.lists(elements, max_size=60)


@settings(max_examples=60, deadline=None)
@given(a=element_lists, b=element_lists)
def test_binary_ops_match_python_sets(a, b):
    ref_a, ref_b = set(a), set(b)
    for cls in CLASSES:
        sa, sb = cls.from_iterable(a), cls.from_iterable(b)
        inter, uni, dif = set(sa.intersect(sb)), set(sa.union(sb)), set(sa.diff(sb))
        if cls.IS_EXACT:
            assert inter == ref_a & ref_b
            assert uni == ref_a | ref_b
            assert dif == ref_a - ref_b
            assert sa.intersect_count(sb) == len(ref_a & ref_b)
            assert sa.union_count(sb) == len(ref_a | ref_b)
        else:
            assert ref_a & ref_b <= inter <= ref_a, cls.__name__
            assert ref_a | ref_b <= uni, cls.__name__
            assert dif <= ref_a - ref_b, cls.__name__
            assert 0 <= sa.intersect_count(sb) <= min(len(ref_a), len(ref_b))
            assert (
                max(len(ref_a), len(ref_b))
                <= sa.union_count(sb)
                <= len(ref_a) + len(ref_b)
            )


@settings(max_examples=60, deadline=None)
@given(a=element_lists, b=element_lists)
def test_count_variants_match_python_sets(a, b):
    ref_a, ref_b = set(a), set(b)
    for cls in CLASSES:
        sa, sb = cls.from_iterable(a), cls.from_iterable(b)
        if cls.IS_EXACT:
            assert sa.union_count(sb) == len(ref_a | ref_b)
            assert sa.diff_count(sb) == len(ref_a - ref_b)
            assert sb.diff_count(sa) == len(ref_b - ref_a)
        else:
            assert 0 <= sa.diff_count(sb) <= len(ref_a)
            assert 0 <= sb.diff_count(sa) <= len(ref_b)
        # Count variants never mutate their operands.
        assert set(sa) == ref_a and set(sb) == ref_b


@settings(max_examples=60, deadline=None)
@given(a=element_lists, b=element_lists)
def test_inplace_ops_match_python_sets(a, b):
    ref_a, ref_b = set(a), set(b)
    for cls in CLASSES:
        other = cls.from_iterable(b)
        si = cls.from_iterable(a)
        si.intersect_inplace(other)
        su = cls.from_iterable(a)
        su.union_inplace(other)
        sd = cls.from_iterable(a)
        sd.diff_inplace(other)
        if cls.IS_EXACT:
            assert set(si) == ref_a & ref_b
            assert set(su) == ref_a | ref_b
            assert set(sd) == ref_a - ref_b
        else:
            assert ref_a & ref_b <= set(si) <= ref_a, cls.__name__
            assert ref_a | ref_b <= set(su), cls.__name__
            assert set(sd) <= ref_a - ref_b, cls.__name__
        # The in-place ops must leave the other operand untouched.
        assert set(other) == ref_b


@settings(max_examples=60, deadline=None)
@given(a=element_lists, b=element_lists, old=element_lists)
def test_intersect_assign_equals_the_unfused_pair(a, b, old):
    # Every backend's fused A = a ∩ b yields and records exactly what the
    # default assign + intersect_inplace pair does.
    for cls in CLASSES:
        runs = []
        for call in (cls.intersect_assign, SetBase.intersect_assign):
            sa, sb = cls.from_iterable(a), cls.from_iterable(b)
            scratch = cls.from_iterable(old)
            before = snapshot()
            call(scratch, sa, sb)
            runs.append((list(scratch), before.delta(snapshot())))
            assert set(sa) == set(a) and set(sb) == set(b), cls.__name__
        assert runs[0] == runs[1], cls.__name__


@settings(max_examples=60, deadline=None)
@given(values=element_lists, probe=elements)
def test_element_overloads_match_python_sets(values, probe):
    # diff_element/union_element ride on clone + add/remove on the exact
    # member store, so they are strict for approximate classes too.
    ref = set(values)
    for cls in CLASSES:
        s = cls.from_iterable(values)
        assert set(s.diff_element(probe)) == ref - {probe}
        assert set(s.union_element(probe)) == ref | {probe}
        assert set(s) == ref  # non-mutating overloads


@settings(max_examples=60, deadline=None)
@given(values=element_lists, extra=elements)
def test_clone_is_independent(values, extra):
    for cls in CLASSES:
        original = cls.from_iterable(values)
        ref = set(values)
        c = original.clone()
        c.add(extra)
        assert set(original) == ref, cls.__name__
        assert set(c) == ref | {extra}
        if values:
            c.remove(values[0])
            assert set(original) == ref, cls.__name__
        # Mutating the original must not leak into earlier clones either.
        snapshot = set(c)
        original.add(200_001)
        assert set(c) == snapshot, cls.__name__


@settings(max_examples=60, deadline=None)
@given(values=element_lists, probe=elements)
def test_contains_matches(values, probe):
    ref = set(values)
    for cls in CLASSES:
        s = cls.from_iterable(values)
        if cls.IS_EXACT:
            assert s.contains(probe) == (probe in ref)
        elif probe in ref:
            assert s.contains(probe), f"{cls.__name__}: false negative"
        assert s.cardinality() == len(ref)


@settings(max_examples=60, deadline=None)
@given(values=element_lists)
def test_no_false_negatives_on_members(values):
    """Every member of every representation must answer ``contains`` True."""
    for cls in CLASSES:
        s = cls.from_iterable(values)
        for x in sorted(set(values)):
            assert s.contains(x), cls.__name__


# A random op sequence applied to all exact representations stays in
# lockstep with Python's set; approximate representations only guarantee
# structural invariants under mixed add/remove/in-place sequences (their
# supersets/subsets interleave), checked separately below.
op = st.sampled_from(["add", "remove", "union_inplace", "diff_inplace",
                      "intersect_inplace"])
ops = st.lists(st.tuples(op, element_lists), max_size=12)


@settings(max_examples=40, deadline=None)
@given(initial=element_lists, sequence=ops)
def test_op_sequences_stay_in_lockstep(initial, sequence):
    ref = set(initial)
    sets = {cls: cls.from_iterable(initial) for cls in EXACT_CLASSES}
    for name, payload in sequence:
        if name == "add":
            x = payload[0] if payload else 0
            ref.add(x)
            for s in sets.values():
                s.add(x)
        elif name == "remove":
            x = payload[0] if payload else 0
            ref.discard(x)
            for s in sets.values():
                s.remove(x)
        else:
            other_ref = set(payload)
            if name == "union_inplace":
                ref |= other_ref
            elif name == "diff_inplace":
                ref -= other_ref
            else:
                ref &= other_ref
            for cls, s in sets.items():
                getattr(s, name)(cls.from_iterable(payload))
        for cls, s in sets.items():
            assert set(s) == ref, (cls.__name__, name)


def _counter_units(cls):
    """Counter deltas of one fixed sequence of bulk and point operations."""
    a = cls.from_iterable(range(0, 120, 2))
    b = cls.from_iterable(range(0, 90, 3))
    graph = SetGraph([b, cls.from_iterable(range(1, 200, 5)), cls.empty()],
                     cls)
    before = snapshot()
    a.intersect(b)
    a.intersect_count(b)
    a.intersect_count_many(graph, [0, 1, 2, 1])
    a.union(b)
    a.diff(b)
    scratch = cls.empty()
    scratch.intersect_assign(a, b)
    a.contains(7)
    c = a.clone()
    c.add(7)      # absent: 1 write
    c.add(7)      # present: no write
    c.remove(7)   # present: 1 write
    c.remove(7)   # absent: no write
    delta = before.delta(snapshot())
    return (delta.set_ops, delta.elements_read, delta.elements_written,
            delta.point_ops, delta.sketch_builds)


def test_counter_units_identical_across_backends():
    # Counters count elements, not machine words, so every exact
    # backend records the same deltas.
    reference = _counter_units(SortedSet)
    for cls in EXACT_CLASSES:
        assert _counter_units(cls) == reference, cls.__name__


@settings(max_examples=40, deadline=None)
@given(initial=element_lists, sequence=ops)
def test_op_sequences_keep_approx_invariants(initial, sequence):
    """Approximate sets stay structurally sound under arbitrary op mixes:
    sorted duplicate-free iteration, consistent cardinality, and no false
    negatives on their own members."""
    approx = [cls for cls in CLASSES if not cls.IS_EXACT]
    sets = {cls: cls.from_iterable(initial) for cls in approx}
    for name, payload in sequence:
        for cls, s in sets.items():
            if name in ("add", "remove"):
                getattr(s, name)(payload[0] if payload else 0)
            else:
                getattr(s, name)(cls.from_iterable(payload))
            out = list(s)
            assert out == sorted(set(out)), (cls.__name__, name)
            assert s.cardinality() == len(out), (cls.__name__, name)
            for x in out[:5]:
                assert s.contains(x), (cls.__name__, name)


# Both BitSet.to_array paths: peeled in Python up to 16 members,
# unpacked with numpy from 17 on, over a wide universe either way.
@settings(max_examples=50, deadline=None)
@given(values=element_lists)
@example(values=list(range(0, 160, 10)))
@example(values=list(range(0, 170, 10)))
@example(values=[3, 64, 199_999])
def test_iteration_is_sorted_and_to_array_roundtrips(values):
    # Strict for every class: approximate backends keep an exact member
    # store, so iteration and to_array are exact by design.
    for cls in CLASSES:
        s = cls.from_iterable(values)
        out = list(s)
        assert out == sorted(set(values))
        assert np.array_equal(s.to_array(), np.array(out, dtype=np.int64))
        # Rebuilding from to_array reproduces the set.
        assert cls.from_sorted_array(s.to_array()) == s


# intersect_count_many is one bulk instruction: whatever path a backend
# takes, it must return and record exactly what the per-operation loop
# does — every counter field.
small_elements = st.integers(min_value=0, max_value=300)
neighborhood_lists = st.lists(st.lists(small_elements, max_size=30),
                              min_size=1, max_size=8)
# Every class over a graph of its own class (the fast paths of bitset,
# sorted and hash), and mixed pairs, which take the default loop.
BULK_PAIRS = [(cls, cls) for cls in CLASSES] + [(BitSet, SortedSet),
                                                (SortedSet, HashSet)]


def _bulk_and_loop(receiver_cls, graph_cls, receiver, neighborhoods,
                   bulk, loop):
    """Run *bulk* and *loop* on fresh copies of the same receiver and
    graph; return each result with its counter delta."""
    runs = []
    for call in (bulk, loop):
        graph = SetGraph([graph_cls.from_iterable(n) for n in neighborhoods],
                         graph_cls)
        a = receiver_cls.from_iterable(receiver)
        before = snapshot()
        result = call(a, graph)
        runs.append((result, before.delta(snapshot())))
    return runs


@settings(max_examples=40, deadline=None)
@given(neighborhoods=neighborhood_lists,
       receiver=st.lists(small_elements, max_size=40),
       picks=st.lists(st.integers(min_value=0, max_value=7), max_size=12))
def test_intersect_count_many_equals_per_op_loop(neighborhoods, receiver,
                                                 picks):
    vertices = [p % len(neighborhoods) for p in picks]  # repeats allowed
    for receiver_cls, graph_cls in BULK_PAIRS:
        (bulk, bulk_delta), (loop, loop_delta) = _bulk_and_loop(
            receiver_cls, graph_cls, receiver, neighborhoods,
            lambda a, graph: a.intersect_count_many(graph, vertices),
            lambda a, graph: sum(a.intersect_count(graph[v])
                                 for v in vertices))
        name = (receiver_cls.__name__, graph_cls.__name__)
        assert bulk == loop, name
        assert bulk_delta == loop_delta, name
        if receiver_cls.IS_EXACT and graph_cls.IS_EXACT:
            assert bulk == sum(len(set(receiver) & set(neighborhoods[v]))
                               for v in vertices), name


# intersect_count_argmax is the Tomita pivot scan as one instruction, under
# the same contract: the loop's vertex (the first of the best) and the
# loop's counters; -1 and nothing recorded for no operands.
def _argmax_loop(a, graph, vertices):
    best_v, best = -1, -1
    for v in vertices:
        c = a.intersect_count(graph[v])
        if c > best:
            best_v, best = v, c
    return best_v


@settings(max_examples=40, deadline=None)
@given(neighborhoods=neighborhood_lists,
       receiver=st.lists(small_elements, max_size=40),
       picks=st.lists(st.integers(min_value=0, max_value=7), max_size=12))
@example(neighborhoods=[[1, 2]], receiver=[1, 2], picks=[])
@example(neighborhoods=[[], [1, 2], [5, 6], [2, 9]], receiver=[1, 2, 6, 9],
         picks=[0, 2, 3, 1, 2])
def test_intersect_count_argmax_equals_per_op_loop(neighborhoods, receiver,
                                                   picks):
    vertices = [p % len(neighborhoods) for p in picks]  # repeats allowed
    for receiver_cls, graph_cls in BULK_PAIRS:
        (bulk, bulk_delta), (loop, loop_delta) = _bulk_and_loop(
            receiver_cls, graph_cls, receiver, neighborhoods,
            lambda a, graph: a.intersect_count_argmax(graph, vertices),
            lambda a, graph: _argmax_loop(a, graph, vertices))
        name = (receiver_cls.__name__, graph_cls.__name__)
        assert bulk == loop, name
        assert bulk_delta == loop_delta, name
        if not vertices:
            assert bulk == -1 and bulk_delta == Snapshot.zero(), name
        elif receiver_cls.IS_EXACT and graph_cls.IS_EXACT:
            counts = [len(set(receiver) & set(neighborhoods[v]))
                      for v in vertices]
            assert bulk == vertices[counts.index(max(counts))], name


@pytest.mark.parametrize("cls", EXACT_CLASSES, ids=lambda c: c.__name__)
def test_intersect_count_argmax_ties_go_to_the_first_listed(cls):
    # |A ∩ N(v)| is 2 for v = 0, 1, 2 and 0 for v = 3.
    graph = SetGraph([cls.from_iterable(n)
                      for n in ([1, 2], [2, 3], [1, 3], [9])], cls)
    a = cls.from_iterable([1, 2, 3])
    assert a.intersect_count_argmax(graph, [3, 2, 0, 1]) == 2
    assert a.intersect_count_argmax(graph, [1, 0, 2]) == 1
    assert a.intersect_count_argmax(graph, [3]) == 3


# pivot_branch is BK's whole Tomita step as one instruction, under the
# same contract: whatever path a class takes, it yields the children of
# the per-operation sequence in its order, leaves P and X where that
# sequence leaves them after every child, and records its counter delta.
def _tomita_loop(P, X, graph, pivot):
    """The per-operation Tomita step that the instruction replaces."""
    if pivot is None:
        pivot = _argmax_loop(P, graph, list(P) + list(X))
        if pivot < 0:
            return
    for v in P.diff(graph[pivot]).to_array().tolist():
        yield v, P.intersect(graph[v]), X.intersect(graph[v])
        P.remove(v)
        X.add(v)


class _SubBitSet(BitSet):
    __slots__ = ()


# (P, X, graph) classes: each class on its own (a class's fast paths,
# everyone else's default), then mixes and a subclass, which take the
# default.
TOMITA_CLASSES = [(cls, cls, cls) for cls in CLASSES] + [
    (BitSet, BitSet, SortedSet), (BitSet, HashSet, BitSet),
    (HashSet, HashSet, SortedSet), (HashSet, BitSet, HashSet),
    (_SubBitSet, _SubBitSet, BitSet),
]


@st.composite
def tomita_inputs(draw):
    """A graph over ``0..n-1`` (crossing word boundaries), ``P`` and
    ``X`` drawn from its vertices (either may be empty, and they may
    overlap), and either no pivot or one of ``P ∪ X``."""
    n = draw(st.integers(min_value=1, max_value=200))
    vertex = st.integers(min_value=0, max_value=n - 1)
    neighborhoods = draw(st.lists(st.lists(vertex, max_size=12),
                                  min_size=n, max_size=n))
    P = draw(st.lists(vertex, max_size=16))
    X = draw(st.lists(vertex, max_size=16))
    members = sorted(set(P) | set(X))
    pivot = draw(st.none() | st.sampled_from(members)) if members else None
    return neighborhoods, P, X, pivot


def _run_tomita(step, classes, neighborhoods, P, X, pivot):
    """Drain *step* over fresh sets; return what it yielded with the
    state of P and X at each child, the final P and X, and the delta."""
    p_cls, x_cls, graph_cls = classes
    graph = SetGraph([graph_cls.from_iterable(nb) for nb in neighborhoods],
                     graph_cls)
    p, x = p_cls.from_iterable(P), x_cls.from_iterable(X)
    before = snapshot()
    children = [(v, type(p_v), list(p_v), type(x_v), list(x_v), list(p),
                 list(x))
                for v, p_v, x_v in step(p, x, graph, pivot)]
    return children, list(p), list(x), before.delta(snapshot())


@settings(max_examples=60, deadline=None)
@given(inputs=tomita_inputs())
@example(inputs=([[1], [2], [1]], [1, 2], [0], None))  # a tie
@example(inputs=([[1], [2], [1]], [1, 2], [0], 0))
@example(inputs=([[1, 2], [0, 2], [0, 1]], [], [0, 2], None))  # empty P
@example(inputs=([[1, 2], [0, 2], [0, 1]], [], [], None))
@example(inputs=([[1, 2, 3], [0, 2], [0, 1, 3], [0, 2]], [0, 1, 3],
                 [1, 3], None))  # P ∩ X = {1, 3}
@example(inputs=([[70, 130], [], [], [1]] + [[0]] * 140,
                 [0, 70, 130], [3, 64], 64))
def test_pivot_branch_equals_per_op_loop(inputs):
    neighborhoods, P, X, pivot = inputs
    for classes in TOMITA_CLASSES:
        name = tuple(cls.__name__ for cls in classes)
        got = _run_tomita(lambda p, x, graph, u: p.pivot_branch(x, graph, u),
                          classes, neighborhoods, P, X, pivot)
        default = _run_tomita(
            lambda p, x, graph, u: SetBase.pivot_branch(p, x, graph, u),
            classes, neighborhoods, P, X, pivot)
        loop = _run_tomita(_tomita_loop, classes, neighborhoods, P, X,
                           pivot)
        assert got == default == loop, name
        if not all(cls.IS_EXACT for cls in classes):
            continue
        # The exact classes also agree with Python's sets.
        p, x = set(P), set(X)
        chosen = pivot
        if chosen is None and (p or x):
            listed = sorted(p) + sorted(x)
            counts = [len(p & set(neighborhoods[u])) for u in listed]
            chosen = listed[counts.index(max(counts))]
        expected = sorted(p - set(neighborhoods[chosen])) if p or x else []
        assert [child[0] for child in got[0]] == expected, name
        for v, _, p_v, _, x_v, p_now, x_now in got[0]:
            assert p_v == sorted(p & set(neighborhoods[v])), name
            assert x_v == sorted(x & set(neighborhoods[v])), name
            assert (p_now, x_now) == (sorted(p), sorted(x)), name
            p.discard(v)
            x.add(v)
        assert (got[1], got[2]) == (sorted(p), sorted(x)), name


# maximal_clique_count is BK's whole recursion below P and X as one
# instruction, under the same contract: whatever path a class takes, it
# returns the per-step recursion's (cliques, calls, depth), leaves P and X
# where that recursion leaves them and records its counter delta.
def _bk_loop(P, X, graph):
    """The per-step recursion over the per-operation Tomita step."""
    if P.is_empty() and X.is_empty():
        return 1, 1, 0
    cliques, calls, depth = 0, 1, 0
    for _, P_v, X_v in _tomita_loop(P, X, graph, None):
        found, below, deepest = _bk_loop(P_v, X_v, graph)
        cliques += found
        calls += below
        if found:
            depth = max(depth, deepest + 1)
    return cliques, calls, depth


def _set_tomita(p, x, neighborhoods):
    """The same recursion over Python sets, with the same pivot rule."""
    if not p and not x:
        return 1, 1, 0
    listed = sorted(p) + sorted(x)
    counts = [len(p & neighborhoods[u]) for u in listed]
    pivot = listed[counts.index(max(counts))]
    cliques, calls, depth = 0, 1, 0
    for v in sorted(p - neighborhoods[pivot]):
        found, below, deepest = _set_tomita(p & neighborhoods[v],
                                            x & neighborhoods[v],
                                            neighborhoods)
        cliques += found
        calls += below
        if found:
            depth = max(depth, deepest + 1)
        p, x = p - {v}, x | {v}
    return cliques, calls, depth


# (P, X, graph) classes and whether the graph is a dict adjacency, as
# BK's H subgraph is: the exact rows of TOMITA_CLASSES, then dicts.  A
# sketch's intersection may keep v in P ∩ N(v), so the recursion need
# not end on one; BK runs sketches only in the pivot scan.
BK_CLASSES = [(classes, False) for classes in TOMITA_CLASSES
              if all(cls.IS_EXACT for cls in classes)] + [
    ((BitSet,) * 3, True), ((HashSet,) * 3, True), ((SortedSet,) * 3, True),
]


@st.composite
def bk_inputs(draw):
    """A graph over ``0..n-1`` (crossing word boundaries) with no vertex
    its own neighbor, and ``P`` and ``X`` drawn from its vertices (either
    may be empty, and they may overlap)."""
    n = draw(st.integers(min_value=1, max_value=200))
    vertex = st.integers(min_value=0, max_value=n - 1)
    neighborhoods = [
        sorted(set(nb) - {v}) for v, nb in enumerate(draw(
            st.lists(st.lists(vertex, max_size=12), min_size=n,
                     max_size=n)))]
    return (neighborhoods, draw(st.lists(vertex, max_size=16)),
            draw(st.lists(vertex, max_size=16)))


def _run_bk(count, classes, neighborhoods, P, X, as_dict=False):
    """Run *count* over fresh sets; return its triple, the final P and X,
    and the counter delta."""
    p_cls, x_cls, graph_cls = classes
    sets = [graph_cls.from_iterable(nb) for nb in neighborhoods]
    graph = dict(enumerate(sets)) if as_dict else SetGraph(sets, graph_cls)
    p, x = p_cls.from_iterable(P), x_cls.from_iterable(X)
    before = snapshot()
    result = count(p, x, graph)
    return result, list(p), list(x), before.delta(snapshot())


@settings(max_examples=60, deadline=None)
@given(inputs=bk_inputs())
@example(inputs=([[1], [0]], [], []))  # a leaf at the root
@example(inputs=([[1, 2], [0, 2], [0, 1]], [], [0, 2]))  # empty P
@example(inputs=([[1, 2], [0, 2], [0, 1], []], [0, 1, 2, 3], []))
@example(inputs=([[1, 2, 3], [0, 2], [0, 1, 3], [0, 2]], [0, 1, 3],
                 [1, 3]))  # P ∩ X = {1, 3}
@example(inputs=([[70, 130], [], [], [1]] + [[0]] * 140,
                 [0, 70, 130], [3, 64]))
def test_maximal_clique_count_equals_per_step_loop(inputs):
    neighborhoods, P, X = inputs
    expected = _set_tomita(set(P), set(X), [set(nb) for nb in neighborhoods])
    for classes, as_dict in BK_CLASSES:
        name = (tuple(cls.__name__ for cls in classes), as_dict)
        runs = [_run_bk(count, classes, neighborhoods, P, X, as_dict)
                for count in (
                    lambda p, x, graph: p.maximal_clique_count(x, graph),
                    lambda p, x, graph: SetBase.maximal_clique_count(
                        p, x, graph),
                    _bk_loop)]
        assert runs[0] == runs[1] == runs[2], name
        assert runs[0][0] == expected, name


@pytest.mark.parametrize("cls", EXACT_CLASSES, ids=lambda c: c.__name__)
def test_pivot_branch_ties_keep_the_first_listed(cls):
    # |P ∩ N(u)| is 1 for every u of P ∪ X = {1, 2} ∪ {0}; P's members
    # are listed first, so 1 is the pivot and 1 alone branches.
    graph = SetGraph([cls.from_iterable(n) for n in ([1], [2], [1])], cls)
    P, X = cls.from_iterable([1, 2]), cls.from_iterable([0])
    assert [v for v, _, _ in P.pivot_branch(X, graph)] == [1]
    assert (list(P), list(X)) == ([2], [0, 1])


# clique_count and clique_branch are the kClist recursion as two
# instructions, under the same contract: whatever path a class takes, it
# returns (or yields, child by child) the per-operation recursion's counts
# and has recorded that recursion's counter delta by every yield.
def _clique_loop(a, graph, levels):
    """The per-operation kClist recursion the instructions replace."""
    if levels == 1:
        return a.cardinality()
    members = a.to_array().tolist()
    if levels == 2:
        return sum(a.intersect_count(graph[v]) for v in members)
    total = 0
    for v in members:
        child = a.intersect(graph[v])
        if not child.is_empty():
            total += _clique_loop(child, graph, levels - 1)
    return total


def _branch_loop(a, graph, levels):
    for v in a.to_array().tolist():
        if levels == 1:
            yield a.intersect_count(graph[v])
            continue
        child = a.intersect(graph[v])
        yield 0 if child.is_empty() else _clique_loop(child, graph, levels)


def _set_cliques(a, neighborhoods, levels):
    """The same count over Python sets."""
    if levels == 1:
        return len(a)
    return sum(_set_cliques(a & set(neighborhoods[v]), neighborhoods,
                            levels - 1) for v in a)


# (receiver, graph) classes: each class over its own SetGraph (bitset's
# and hash's fast paths, everyone else's default), then mixes and a
# subclass, which take the default.
CLIQUE_PAIRS = [(cls, cls) for cls in CLASSES] + [
    (BitSet, SortedSet), (SortedSet, HashSet), (HashSet, BitSet),
    (_SubBitSet, BitSet), (_SubBitSet, _SubBitSet),
]


@st.composite
def clique_inputs(draw):
    """A graph over ``0..n-1`` (crossing word boundaries) and a receiver
    drawn from its vertices."""
    n = draw(st.integers(min_value=1, max_value=150))
    vertex = st.integers(min_value=0, max_value=n - 1)
    neighborhoods = draw(st.lists(st.lists(vertex, max_size=12),
                                  min_size=n, max_size=n))
    return neighborhoods, draw(st.lists(vertex, max_size=16))


def _clique_runs(receiver_cls, graph, receiver, levels):
    """Run each path of both instructions on a fresh receiver over
    *graph*; return each path's counts, with its counter delta after the
    call or after every yield."""
    counts, branches = [], []
    for step in (lambda a: a.clique_count(graph, levels),
                 lambda a: SetBase.clique_count(a, graph, levels),
                 lambda a: _clique_loop(a, graph, levels)):
        a = receiver_cls.from_iterable(receiver)
        before = snapshot()
        counts.append((step(a), before.delta(snapshot())))
    for step in (lambda a: a.clique_branch(graph, levels),
                 lambda a: SetBase.clique_branch(a, graph, levels),
                 lambda a: _branch_loop(a, graph, levels)):
        a = receiver_cls.from_iterable(receiver)
        before = snapshot()
        branches.append([(count, before.delta(snapshot()))
                         for count in step(a)])
    return counts, branches


@settings(max_examples=40, deadline=None)
@given(inputs=clique_inputs())
@example(inputs=([[1, 2], [0, 2], [0, 1]], []))  # empty receiver
@example(inputs=([[1, 2, 3], [2, 3], [3], []], [0, 1, 2, 3]))  # a K4 DAG
@example(inputs=([[63, 64, 130], [], [], [1]] + [[]] * 59
                 + [[64, 130]] + [[130]] * 66 + [[]] * 20,
                 [0, 63, 64, 130]))  # members across word boundaries
def test_clique_count_and_branch_equal_per_op_loop(inputs):
    neighborhoods, receiver = inputs
    for receiver_cls, graph_cls in CLIQUE_PAIRS:
        graph = SetGraph([graph_cls.from_iterable(nb)
                          for nb in neighborhoods], graph_cls)
        for levels in (1, 2, 3):
            name = (receiver_cls.__name__, graph_cls.__name__, levels)
            counts, branches = _clique_runs(receiver_cls, graph, receiver,
                                            levels)
            assert counts[0] == counts[1] == counts[2], name
            assert branches[0] == branches[1] == branches[2], name
            # The branch counts are the children's, so they sum to the
            # count one level up.
            up = receiver_cls.from_iterable(receiver).clique_count(
                graph, levels + 1)
            assert sum(c for c, _ in branches[0]) == up, name
            if not (receiver_cls.IS_EXACT and graph_cls.IS_EXACT):
                continue
            a = set(receiver)
            assert counts[0][0] == _set_cliques(a, neighborhoods,
                                                levels), name
            assert [c for c, _ in branches[0]] == [
                _set_cliques(a & set(neighborhoods[v]), neighborhoods,
                             levels) for v in sorted(a)], name


# The kClist and Tomita defaults read member lists through members(),
# never through the copy to_array makes on these array-backed classes.
@pytest.mark.parametrize("name", ["sorted", "bloom", "kmv"])
def test_bulk_defaults_read_members_without_to_array(name):
    cls = get_set_class(name)
    neighborhoods = [[1, 2, 3], [2, 3, 4], [3, 4], [4], []]
    graph = SetGraph([cls.from_iterable(nb) for nb in neighborhoods], cls)

    def run():
        a = cls.from_iterable(range(5))
        P, X = cls.from_iterable([0, 1, 2]), cls.from_iterable([3])
        return (a.clique_count(graph, 3), list(a.clique_branch(graph, 2)),
                [(v, list(p_v), list(x_v))
                 for v, p_v, x_v in P.pivot_branch(X, graph)])

    expected = run()
    with mock.patch.object(cls, "to_array",
                           side_effect=AssertionError("to_array copy")):
        assert run() == expected


# BitSet.from_csr builds every neighborhood of a CSR graph in bulk; it
# must build exactly the integers the per-vertex from_sorted_array loop
# builds, whatever the chunking, and fall back to that loop's
# validate-or-sort result when a neighborhood is not strictly increasing.
def _per_vertex_bits(offsets, targets):
    return [BitSet.from_sorted_array(targets[offsets[v]:offsets[v + 1]])._bits
            for v in range(len(offsets) - 1)]


def _csr(neighborhoods):
    offsets = np.zeros(len(neighborhoods) + 1, dtype=np.int64)
    np.cumsum([len(nb) for nb in neighborhoods], out=offsets[1:])
    targets = np.array([x for nb in neighborhoods for x in nb],
                       dtype=np.int64)
    return offsets, targets


@st.composite
def csr_neighborhoods(draw):
    """Neighborhoods over ``0..top``: mostly sorted-unique (the CSR
    contract), some left unsorted or duplicated."""
    top = draw(st.integers(min_value=0, max_value=700))
    vertex = st.integers(min_value=0, max_value=top)
    neighborhoods = draw(st.lists(st.lists(vertex, max_size=20),
                                  min_size=1, max_size=12))
    return [nb if draw(st.integers(0, 4)) == 0 else sorted(set(nb))
            for nb in neighborhoods]


@settings(max_examples=80, deadline=None)
@given(neighborhoods=csr_neighborhoods(),
       chunk=st.sampled_from([1, 64, 4 << 20]))
@example(neighborhoods=[[], [0, 9, 700], [], [700], []], chunk=1)
@example(neighborhoods=[[0], [5, 3], [2, 2, 7], [0, 700]], chunk=4 << 20)
@example(neighborhoods=[[], []], chunk=64)
def test_bitset_from_csr_equals_per_vertex(neighborhoods, chunk):
    offsets, targets = _csr(neighborhoods)
    with mock.patch.object(bit_set, "_CHUNK_BYTES", chunk):
        bulk = BitSet.from_csr(offsets, targets)
    assert all(type(s) is BitSet for s in bulk)
    assert [s._bits for s in bulk] == _per_vertex_bits(offsets, targets)
    assert [set(s) for s in bulk] == [set(nb) for nb in neighborhoods]


@settings(max_examples=60, deadline=None)
@given(neighborhoods=csr_neighborhoods(),
       chunk=st.sampled_from([1, 5, 1 << 16]))
@example(neighborhoods=[[], [0, 9, 700], [], [700], []], chunk=1)
@example(neighborhoods=[[], []], chunk=5)
def test_hash_from_csr_equals_per_vertex(neighborhoods, chunk):
    # HashSet.from_csr lists each chunk's arcs at once; whatever the
    # chunking, it builds the per-vertex from_sorted_array loop's sets.
    offsets, targets = _csr(neighborhoods)
    with mock.patch.object(hash_set, "_CHUNK_ARCS", chunk):
        bulk = HashSet.from_csr(offsets, targets)
    assert all(type(s) is HashSet for s in bulk)
    assert [s._data for s in bulk] == [
        HashSet.from_sorted_array(targets[offsets[v]:offsets[v + 1]])._data
        for v in range(len(neighborhoods))]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=60),
       edges=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)),
                      max_size=200),
       seed=st.integers(0, 3),
       chunk=st.sampled_from([1, 64, 4 << 20]))
def test_bitset_from_csr_on_oriented_arcs(n, edges, seed, chunk):
    graph = build_undirected(n, [(u % n, v % n) for u, v in edges])
    rank = np.random.default_rng(seed).permutation(n)
    offsets, targets = oriented_arcs(graph, rank)
    with mock.patch.object(bit_set, "_CHUNK_BYTES", chunk):
        bulk = BitSet.from_csr(offsets, targets)
        dag = build_oriented_set_graph(graph, rank, BitSet)
    expected = _per_vertex_bits(offsets, targets)
    assert [s._bits for s in bulk] == expected
    assert [s._bits for s in dag.neighborhoods] == expected


def test_bitset_from_csr_spans_several_chunks(monkeypatch):
    chunks = []
    build_chunk = BitSet._from_csr_chunk.__func__

    def counted(cls, *args):
        chunks.append(1)
        return build_chunk(cls, *args)

    monkeypatch.setattr(BitSet, "_from_csr_chunk", classmethod(counted))
    monkeypatch.setattr(bit_set, "_CHUNK_BYTES", 2048)
    graph = holme_kim(400, 4, 0.5, seed=3)
    bulk = BitSet.from_csr(graph.offsets, graph.adjacency)
    assert len(chunks) > 10
    assert [s._bits for s in bulk] == _per_vertex_bits(graph.offsets,
                                                       graph.adjacency)


def test_bitset_from_csr_peak_memory_is_final_size_plus_one_chunk(
        monkeypatch):
    # A single buffer for the whole graph would double the peak (the
    # bytes plus the integers built from them); chunks bound the extra.
    chunk = 256 << 10
    monkeypatch.setattr(bit_set, "_CHUNK_BYTES", chunk)
    graph = holme_kim(4000, 5, 0.5, seed=1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sets = BitSet.from_csr(graph.offsets, graph.adjacency)
        final, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sets) == graph.num_nodes
    assert final > 4 * chunk  # the bound below is a real constraint
    slack = (64 << 10) + 32 * graph.num_nodes
    assert peak <= final + chunk + slack, (peak, final)


# intersect_count_pairs is one instruction per kernel pass, under the same
# contract: whatever path the graph's class takes (the bitset row matrix,
# the sorted join, the default's intersect_count_many per run of equal
# u), it returns and records what the intersect_count loop does.  Pairs
# may repeat, have u == v, touch empty neighborhoods and not be arcs;
# the mixed cases call one class's instruction on another's graph, which
# takes the default.
PAIRS_CASES = [(cls, cls) for cls in CLASSES] + [(BitSet, SortedSet),
                                                 (SortedSet, BitSet),
                                                 (SortedSet, HashSet)]


def _pairs_and_loop(cls, graph_cls, neighborhoods, us, vs):
    runs = []
    for call in (lambda g: cls.intersect_count_pairs(g, us, vs),
                 lambda g: sum(g[u].intersect_count(g[v])
                               for u, v in zip(us.tolist(), vs.tolist()))):
        graph = SetGraph([graph_cls.from_iterable(n) for n in neighborhoods],
                         graph_cls)
        before = snapshot()
        result = call(graph)
        runs.append((result, before.delta(snapshot())))
    return runs


@settings(max_examples=40, deadline=None)
@given(neighborhoods=neighborhood_lists,
       pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                      max_size=16))
@example(neighborhoods=[[], [1, 2], [0, 2, 300], [1]],
         pairs=[(1, 2), (1, 2), (1, 1), (0, 2), (2, 0), (3, 3), (2, 1)])
@example(neighborhoods=[list(range(0, 300, 3)), [3]], pairs=[(0, 1), (1, 0)])
@example(neighborhoods=[[]], pairs=[(0, 0)])  # no member anywhere
def test_intersect_count_pairs_equals_per_op_loop(neighborhoods, pairs):
    us = np.array([u % len(neighborhoods) for u, _ in pairs], dtype=np.int64)
    vs = np.array([v % len(neighborhoods) for _, v in pairs], dtype=np.int64)
    for cls, graph_cls in PAIRS_CASES:
        (bulk, bulk_delta), (loop, loop_delta) = _pairs_and_loop(
            cls, graph_cls, neighborhoods, us, vs)
        name = (cls.__name__, graph_cls.__name__)
        assert bulk == loop, name
        assert bulk_delta == loop_delta, name
        if graph_cls.IS_EXACT:
            assert bulk == sum(
                len(set(neighborhoods[u]) & set(neighborhoods[v]))
                for u, v in zip(us.tolist(), vs.tolist())), name


def _tc_pairs(graph, dag):
    """Both tc passes' instructions, with their counter deltas."""
    out = []
    for sets in (graph, dag):
        us = np.repeat(np.arange(sets.num_nodes), sets.cardinalities)
        vs = np.concatenate([s.to_array() for s in sets.neighborhoods])
        before = snapshot()
        value = sets.intersect_count_pairs(us, vs)
        out.append((value, before.delta(snapshot())))
    return out


@pytest.mark.parametrize("cls", [BitSet, SortedSet],
                         ids=lambda c: c.__name__)
def test_intersect_count_pairs_chunks_change_nothing(cls):
    # Chunk constants of 1 (one pair, one probe, one gathered row per
    # chunk) give the unchunked values and counters.
    graph = holme_kim(300, 4, 0.5, seed=2)
    rank = np.argsort(graph.degrees(), kind="stable")
    sets = SetGraph(cls.from_csr(graph.offsets, graph.adjacency), cls)
    dag = build_oriented_set_graph(graph, rank, cls)
    expected = _tc_pairs(sets, dag)
    with mock.patch.object(sorted_set, "_PAIR_CHUNK", 1), \
            mock.patch.object(bit_set, "_CHUNK_BYTES", 1):
        assert _tc_pairs(sets, dag) == expected
    assert expected[0][0] > 0 and expected[1][0] > 0


# clique_count_arcs is one instruction per edge-parallel kClist pass,
# under the same contract: whatever path a class takes (bitset's row
# matrix at level 2, everyone else's clique_branch per vertex), it
# returns, per arc in CSR order, the count of the concatenated
# clique_branch yields and each yield's elements_read delta, and records
# their counter delta.  The mixed cases call one class's instruction on
# another's graph, and a graph without arcs, a subclass or another level
# takes the default.
ARCS_CASES = [(cls, cls) for cls in CLASSES] + [
    (BitSet, SortedSet), (SortedSet, BitSet), (HashSet, BitSet),
    (_SubBitSet, BitSet), (BitSet, _SubBitSet),
]


def _branch_arcs(graph, levels):
    """The per-vertex clique_branch loop the instruction replaces: each
    yield's count and elements_read delta, in arc order."""
    counts, reads = [], []
    for u in range(graph.num_nodes):
        before = snapshot()
        for count in graph[u].clique_branch(graph, levels):
            after = snapshot()
            counts.append(count)
            reads.append(before.delta(after).elements_read)
            before = after
    return counts, reads


def _arcs_runs(cls, graph, levels):
    """``(counts, reads, counter delta)`` of the instruction on *cls*,
    of the SetBase default and of the clique_branch loop."""
    runs = []
    for call in (lambda: cls.clique_count_arcs(graph, levels),
                 lambda: SetBase.clique_count_arcs(graph, levels),
                 lambda: _branch_arcs(graph, levels)):
        before = snapshot()
        counts, reads = call()
        runs.append((list(counts), list(reads), before.delta(snapshot())))
    return runs


def _arc_graph(graph_cls, neighborhoods, keep_arcs):
    offsets, targets = _csr(neighborhoods)
    return SetGraph([graph_cls.from_iterable(nb) for nb in neighborhoods],
                    graph_cls, directed=True,
                    arcs=(offsets, targets) if keep_arcs else None)


@st.composite
def arc_graphs(draw):
    """Sorted neighborhoods over ``0..n-1``: every vertex's arcs, sinks
    included, with members across a word boundary once n passes 64."""
    n = draw(st.integers(min_value=1, max_value=80))
    vertex = st.integers(min_value=0, max_value=n - 1)
    return [sorted(set(nb)) for nb in draw(
        st.lists(st.lists(vertex, max_size=8), min_size=n, max_size=n))]


@settings(max_examples=20, deadline=None)
@given(neighborhoods=arc_graphs())
@example(neighborhoods=[[]])  # one vertex, no arc
@example(neighborhoods=[[], [], []])  # vertices, but no arc
@example(neighborhoods=[[1, 2, 3], [2, 3], [3], []])  # a K4 DAG
@example(neighborhoods=[[63, 64, 130], [], [], [1]] + [[]] * 59
         + [[64, 130]] + [[130]] * 66 + [[]] * 20)  # word boundaries
@example(neighborhoods=[[1, 64], [64]] + [[]] * 63)  # max(c) = 64
def test_clique_count_arcs_equals_per_yield_loop(neighborhoods):
    # Only bitset reads the arcs; without them it takes the default.
    cases = [(cls, graph_cls, True) for cls, graph_cls in ARCS_CASES]
    for cls, graph_cls, keep_arcs in cases + [(BitSet, BitSet, False)]:
        graph = _arc_graph(graph_cls, neighborhoods, keep_arcs)
        for levels in (1, 2, 3):
            name = (cls.__name__, graph_cls.__name__, keep_arcs, levels)
            fast, default, loop = _arcs_runs(cls, graph, levels)
            assert fast == default == loop, name
            counts = fast[0]
            assert len(counts) == sum(map(len, neighborhoods)), name
            if graph_cls.IS_EXACT:
                assert counts == [
                    _set_cliques(set(nb) & set(neighborhoods[v]),
                                 neighborhoods, levels)
                    for nb in neighborhoods for v in nb], name


def test_clique_count_arcs_on_an_empty_graph():
    for cls in CLASSES:
        counts, reads = SetGraph([], cls, directed=True).clique_count_arcs(2)
        assert counts.dtype == reads.dtype == np.int64
        assert len(counts) == len(reads) == 0


def _bitset_arcs(dag):
    """``(counts, reads, counter delta)`` of bitset's level-2 fast path,
    which must not fall back to the per-vertex clique_branch."""
    before = snapshot()
    with mock.patch.object(BitSet, "clique_branch",
                           side_effect=AssertionError("default taken")):
        counts, reads = BitSet.clique_count_arcs(dag, 2)
    return list(counts), list(reads), before.delta(snapshot())


def test_clique_count_arcs_chunks_change_nothing():
    # A chunk budget of 1 (one source per chunk) gives the unchunked
    # arrays and counters, and both equal the per-yield loop's, on a
    # degree-ordered DAG with 12,508 wedges and 105 4-cliques.
    graph = holme_kim(300, 4, 0.5, seed=2)
    rank = np.argsort(graph.degrees(), kind="stable")
    dag = build_oriented_set_graph(graph, rank, BitSet)
    expected = _bitset_arcs(dag)
    with mock.patch.object(bit_set, "_CHUNK_BYTES", 1):
        assert _bitset_arcs(dag) == expected
    assert _arcs_runs(BitSet, dag, 2) == [expected] * 3
    assert sum(expected[0]) == 105
