"""Property-based checks of the criterion-2 invariants of the exact dot product
(symmetry, relabeling invariance, Cauchy-Schwarz, positive homogeneity) over
generated graphs of orders 0-6; of the graduated matcher's symmetry and
relabeling invariance, and of its swap search's bounds; and of the dense
encoding against a per-edge reference build."""
import math

import numpy as np
import pytest

from conftest import greedy_pairs, permuted_graph, rand_graph, rel_close
from sublin import (AttributedGraph, MatchMatrix, MatcherConfig, SublinearModel, evaluate,
                    kernel_value, sdp, to_representation)
from sublin import matching

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EXACT = MatcherConfig()
GRADUATED = MatcherConfig("graduated")
# derandomized, so every run draws the same examples
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
VALUES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw, attr_dim, max_order=6):
    n = draw(st.integers(0, max_order))
    vector = st.lists(VALUES, min_size=attr_dim, max_size=attr_dim)
    nodes = draw(st.lists(vector, min_size=n, max_size=n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.none() | vector.filter(any))  # an edge vector is never zero
            if v is not None:
                edges.append((i, j, v))
    return AttributedGraph(np.array(nodes).reshape(n, attr_dim), edges)


@st.composite
def graph_pairs(draw):
    d = draw(st.integers(1, 3))
    return draw(graphs(d)), draw(graphs(d))


def value(a, b):
    return sdp(a, b, EXACT).value


@PROPERTY
@given(graph_pairs())
def test_symmetry(pair):
    a, b = pair
    assert value(a, b) == value(b, a)


@PROPERTY
@given(graph_pairs(), st.data())
def test_relabeling_invariance(pair, data):
    a, b = pair
    moved = permuted_graph(a, data.draw(st.permutations(range(a.order))))
    assert value(moved, b) == value(a, b)


@PROPERTY
@given(graph_pairs())
def test_cauchy_schwarz(pair):
    a, b = pair
    bound = math.sqrt(value(a, a)) * math.sqrt(value(b, b))
    assert value(a, b) <= bound + 1e-12 * max(1.0, bound)


@PROPERTY
@given(graph_pairs(), st.floats(0.0, 3.0))
def test_positive_homogeneity(pair, scale):
    a, b = pair
    scaled = AttributedGraph(
        scale * a.node_attrs,
        [(i, j, scale * v) for (i, j), v in a.edge_items() if np.any(scale * v)],
    )
    assert rel_close(value(scaled, b), scale * value(a, b), 1e-12)


@st.composite
def general_pairs(draw):
    """Two graphs in general position: orders 0-6, d = 1-3 and the edge density
    drawn, attributes uniform in [-1, 1] from a drawn seed, so that objective
    values tie with probability zero. Where values tie exactly, as between the matches of
    graphs with many zero attributes, the graduated matcher breaks ties by node
    index, and two labelings or argument orders can end on different local
    optima of the swap search."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(rand_graph(rng, draw(st.integers(0, 6)), d, density=draw(st.floats(0.0, 1.0)))
                 for _ in range(2))


def relabel(graph, data):
    return permuted_graph(graph, data.draw(st.permutations(range(graph.order))))


# The graduated matcher is a heuristic, but a function of graphs in general
# position: its value does not depend on the order of its arguments or on how
# either graph's nodes are numbered, within rounding.

@PROPERTY
@given(general_pairs())
def test_graduated_symmetry(pair):
    a, b = pair
    assert rel_close(sdp(a, b, GRADUATED).value, sdp(b, a, GRADUATED).value, 1e-9)


@PROPERTY
@given(general_pairs(), st.data())
def test_graduated_relabeling_invariance(pair, data):
    a, b = pair
    want = sdp(a, b, GRADUATED).value
    assert rel_close(sdp(relabel(a, data), b, GRADUATED).value, want, 1e-9)
    assert rel_close(sdp(a, relabel(b, data), GRADUATED).value, want, 1e-9)


@PROPERTY
@given(general_pairs(), st.floats(-1.0, 1.0), st.data())
def test_graduated_evaluate_relabeling_invariance(pair, bias, data):
    w, x = pair
    model = SublinearModel(to_representation(w), bias, GRADUATED)
    assert rel_close(evaluate(model, relabel(x, data)), evaluate(model, x), 1e-9)


@PROPERTY
@given(graph_pairs())
def test_swap_search_lies_between_greedy_and_exact(pair):
    # on any graphs, ties included: the polished match is never worse than
    # GA's greedy one, and never better than the optimum
    a, b = pair
    polished = sdp(a, b, GRADUATED).value
    exact = value(a, b)
    assert polished <= exact + 1e-9 * max(1.0, abs(exact))
    rx, ry = to_representation(a), to_representation(b)
    if np.count_nonzero(rx.cells) and np.count_nonzero(ry.cells):  # else the diagonal, unsolved
        soft = matching._ga_soft(matching._affinities([(rx.cells, ry.cells)]))[0]
        greedy = kernel_value(rx, ry, MatchMatrix(a.order, b.order, greedy_pairs(soft)))
        assert greedy <= polished


def reference_cells(nodes, edges):
    """The dense encoding written one node and one edge orientation at a time."""
    n, d = nodes.shape
    cells = np.zeros((n, n, d))
    for a in range(n):
        cells[a, a] = nodes[a]
    for (i, j), vec in edges:
        cells[i, j] = vec
        cells[j, i] = vec
    return cells


@st.composite
def edge_inputs(draw):
    """(nodes, edges as given to the constructor, reference cells) for orders 0-7 and
    d = 1-3. Edges come as tuples with array or list vectors, in any order and either
    orientation, some repeated exactly, or as a mapping with either orientation."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 7))
    vector = st.lists(VALUES, min_size=d, max_size=d)
    nodes = np.array(draw(st.lists(vector, min_size=n, max_size=n))).reshape(n, d)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [((i, j), draw(vector.filter(any))) for i, j in chosen]  # never a zero vector
    oriented = [(j, i) if draw(st.booleans()) else (i, j) for (i, j), _ in edges]
    form = draw(st.sampled_from(["array", "list", "mapping"]))
    if form == "mapping":
        given_edges = {key: vec for key, (_, vec) in zip(oriented, edges)}
    else:
        make = np.array if form == "array" else list
        items = [(i, j, make(vec)) for (i, j), (_, vec) in zip(oriented, edges)]
        repeats = draw(st.lists(st.sampled_from(items), max_size=3)) if items else []
        items += [(j, i, make(vec)) if draw(st.booleans()) else (i, j, make(vec))
                  for i, j, vec in repeats]
        given_edges = draw(st.permutations(items))
    return nodes, given_edges, reference_cells(nodes, edges)


@PROPERTY
@given(edge_inputs())
def test_encoding_matches_reference_build(case):
    nodes, edges, want = case
    got = to_representation(AttributedGraph(nodes, edges)).cells
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
