import re

import numpy as np
import pytest

from conftest import permuted_graph, rand_graph, relabeled
from sublin import (AttributedGraph, Representation, ValidationError, attach_edge_flag,
                    from_representation, sdp, to_representation)


def running_graph():
    return AttributedGraph([[1.0], [2.0]], [(0, 1, [1.0])])


class TestAttributedGraph:
    def test_basic_fields(self):
        g = running_graph()
        assert g.order == 2
        assert g.attr_dim == 1
        assert g.n_edges == 1

    def test_edges_canonicalized(self):
        g = AttributedGraph([[0.0], [1.0]], [(1, 0, [2.0])])
        assert (0, 1) in g.edge_attrs

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            AttributedGraph([[1.0]], [(0, 0, [1.0])])

    def test_conflicting_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError):
            AttributedGraph([[0.0], [1.0]], [(0, 1, [1.0]), (1, 0, [2.0])])

    def test_edge_out_of_range(self):
        with pytest.raises(ValidationError):
            AttributedGraph([[0.0]], [(0, 1, [1.0])])

    @pytest.mark.parametrize("nodes, edge", [
        ([[np.nan], [1.0]], [1.0]), ([[0.0], [1.0]], [-np.inf]),
    ], ids=["node", "edge"])
    def test_non_finite_attributes_rejected(self, nodes, edge):
        with pytest.raises(ValidationError, match="finite"):
            AttributedGraph(nodes, [(0, 1, edge)])

    @pytest.mark.parametrize("nodes", [[[1.0], ["x"]], [[1.0], [{"a": 1}]], [[1.0], [1.0, 2.0]]],
                             ids=["string", "object", "ragged"])
    def test_node_attributes_not_numbers_rejected(self, nodes):
        with pytest.raises(ValidationError, match="^node attributes must be an "
                                                  r"\(order x attr_dim\) array of numbers$"):
            AttributedGraph(nodes)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            AttributedGraph([[0.0], [1.0]], [(0, 1, [1.0, 2.0])])

    def test_immutable(self):
        g = running_graph()
        with pytest.raises(AttributeError):
            g.node_attrs = np.zeros((2, 1))
        with pytest.raises(ValueError):
            g.node_attrs[0, 0] = 9.0

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1, [1.0]), (1, 2, [1.0, 2.0])],
         r"edge \(1, 2\) attribute has shape \(2,\), expected \(1,\)"),
        ([(0, 1, 5.0)], r"edge \(0, 1\) attribute has shape \(\), expected \(1,\)"),
        ([(2, 1, [1.0, 2.0]), (0, 1, [3.0, 4.0])],
         r"edge \(1, 2\) attribute has shape \(2,\), expected \(1,\)"),
        ([(0, 1, [1.0]), (2, 1, [np.inf])], "finite"),
        ([(0, 1, [1.0]), (0, 2, [1.0]), (2, 0, [-1.0])],
         r"conflicting attributes for undirected edge \(0, 2\)"),
        ([(0, 1, [1.0]), (2, 1, ["x"])], r"edge \(1, 2\) attribute is not a vector of numbers"),
        ([(0, 1, [1.0]), (1, 2, {"a": 1})],
         r"edge \(1, 2\) attribute is not a vector of numbers"),
    ], ids=["ragged", "scalar", "wrong-length", "non-finite", "conflicting-duplicate", "string",
            "object"])
    def test_edge_fault_named(self, edges, message):
        # a bare scalar is refused even at attr_dim 1, never read as a row of one
        with pytest.raises(ValidationError, match=message):
            AttributedGraph([[0.0], [1.0], [2.0]], edges)

    def test_caller_arrays_not_aliased(self):
        nodes, vec = np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([4.0, 5.0])
        g = AttributedGraph(nodes, [(1, 0, vec)])
        assert nodes.flags.writeable and vec.flags.writeable
        nodes[:] = 9.0
        vec[:] = 9.0
        assert g.node_attrs.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert g.edge_attrs[(0, 1)].tolist() == [4.0, 5.0]
        assert to_representation(g).cells[1, 0].tolist() == [4.0, 5.0]
        with pytest.raises(ValueError):
            g.edge_attrs[(0, 1)][0] = 0.0


class TestAttachEdgeFlag:
    def test_zero_edge_attr_becomes_flagged(self):
        g = AttributedGraph([[0.0], [0.0]], [(0, 1, [0.0])])
        flagged = attach_edge_flag(g)
        np.testing.assert_array_equal(flagged.edge_attrs[(0, 1)], [0.0, 1.0])

    def test_node_attr_gains_zero(self):
        flagged = attach_edge_flag(AttributedGraph([[2.5]]))
        np.testing.assert_array_equal(flagged.node_attrs, [[2.5, 0.0]])

    def test_edgeless_graph(self):
        flagged = attach_edge_flag(AttributedGraph([[1.0], [2.0]]))
        assert flagged.attr_dim == 2
        assert flagged.n_edges == 0


class TestRepresentation:
    def test_single_node(self):
        rep = to_representation(AttributedGraph([[3.0]]))
        np.testing.assert_array_equal(rep.cells, [[[3.0]]])

    def test_running_graph_cells(self):
        rep = to_representation(running_graph())
        np.testing.assert_array_equal(rep.cells[..., 0], [[1.0, 1.0], [1.0, 2.0]])

    def test_round_trip(self):
        g = running_graph()
        assert from_representation(to_representation(g)) == g

    def test_zero_edge_attr_rejected(self):
        g = AttributedGraph([[1.0], [1.0]], [(0, 1, [0.0])])
        with pytest.raises(ValidationError):
            to_representation(g)
        # after attaching the flag the graph is representable
        to_representation(attach_edge_flag(g))

    @pytest.mark.parametrize("edges, first", [
        ([(0, 1, [1.0]), (2, 1, [0.0]), (0, 2, [-0.0])], "(1,2)"),
        ({(0, 1): [1.0], (0, 2): [-0.0], (1, 2): [0.0]}, "(0,2)"),
    ], ids=["tuples", "mapping"])
    def test_first_zero_edge_named(self, edges, first):
        # in insertion order; -0.0 makes a zero vector too
        g = AttributedGraph([[1.0], [1.0], [1.0]], edges)
        with pytest.raises(ValidationError, match=re.escape(f"edge {first} has a zero attribute")):
            to_representation(g)

    def test_encoding_computed_once_per_graph(self):
        g = running_graph()
        assert to_representation(g) is to_representation(g)

    def test_failed_encoding_raises_on_every_call(self):
        zero_edge = AttributedGraph([[1.0], [1.0]], [(0, 1, [0.0])])
        for _ in range(2):
            with pytest.raises(ValidationError, match="zero attribute"):
                to_representation(zero_edge)
            # a non-finite graph is refused before it can be encoded
            with pytest.raises(ValidationError, match="finite"):
                AttributedGraph([[np.inf], [1.0]], [(0, 1, [1.0])])

    def test_asymmetric_cells_rejected(self):
        cells = np.zeros((2, 2, 1))
        cells[0, 1, 0] = 1.0
        with pytest.raises(ValidationError):
            Representation(cells)

    def test_zero_cells_project_to_isolated_nodes(self):
        g = from_representation(Representation.zeros(2, 1))
        assert g.order == 2
        assert g.n_edges == 0

    def test_permuted_rep_projects_to_isomorphic_graph(self):
        g = rand_graph(np.random.default_rng(5), 4, 2)
        g2 = permuted_graph(g, [2, 0, 3, 1])
        assert sdp(g2, g2).value == pytest.approx(sdp(g, g).value, rel=1e-12)


class TestInvariants:
    def test_norm_invariant_under_permutation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = rand_graph(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
            rep = to_representation(g)
            moved = relabeled(rep, rng.permutation(g.order))
            assert abs(moved.norm() - rep.norm()) <= 1e-12 * max(1.0, rep.norm())

    def test_padding_preserves_self_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rand_graph(rng, int(rng.integers(1, 5)), 2)
            nodes = np.concatenate([g.node_attrs, np.zeros((2, g.attr_dim))])
            padded = AttributedGraph(nodes, g.edge_attrs)
            assert sdp(padded, padded).value == pytest.approx(sdp(g, g).value, rel=1e-12)
