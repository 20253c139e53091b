"""Property-based checks of the criterion-2 invariants of the exact dot product
(symmetry, relabeling invariance, Cauchy-Schwarz, positive homogeneity) over
generated graphs of orders 0-6, and of the dense encoding against a per-edge
reference build."""
import math

import numpy as np
import pytest

from conftest import permuted_graph, rel_close
from sublin import AttributedGraph, MatcherConfig, sdp, to_representation

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EXACT = MatcherConfig()
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
