"""Property-based checks of the criterion-2 invariants of the exact dot product
(symmetry, relabeling invariance, Cauchy-Schwarz, positive homogeneity) over
generated graphs of orders 0-6."""
import math

import numpy as np
import pytest

from conftest import permuted_graph, rel_close
from sublin import AttributedGraph, MatcherConfig, sdp

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
