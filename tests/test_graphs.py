import numpy as np
import pytest

from conftest import permuted_graph, rand_graph, rand_permutation
from sublin import (AttributedGraph, Permutation, Representation, SizeError,
                    ValidationError, apply_permutation, attach_edge_flag,
                    from_representation, pad_to_order, sdp, to_representation)


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

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            AttributedGraph([[0.0], [1.0]], [(0, 1, [1.0, 2.0])])

    def test_immutable(self):
        g = running_graph()
        with pytest.raises(AttributeError):
            g.label = "x"
        with pytest.raises(ValueError):
            g.node_attrs[0, 0] = 9.0


class TestPadToOrder:
    def test_identity_case(self):
        g = running_graph()
        assert pad_to_order(g, 2) == g

    def test_empty_graph(self):
        g = pad_to_order(AttributedGraph.empty(attr_dim=2), 3)
        assert g.order == 3
        assert g.n_edges == 0
        assert not g.node_attrs.any()

    def test_pads_with_isolated_zero_nodes(self):
        g = pad_to_order(running_graph(), 4)
        assert g.order == 4
        assert list(g.edge_attrs) == [(0, 1)]
        assert not g.node_attrs[2:].any()
        np.testing.assert_array_equal(g.node_attrs[:2], [[1.0], [2.0]])

    def test_too_small_target(self):
        with pytest.raises(SizeError):
            pad_to_order(running_graph(), 1)


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

    def test_encoding_computed_once_per_graph(self):
        g = running_graph()
        assert to_representation(g) is to_representation(g)

    def test_failed_encoding_raises_on_every_call(self):
        zero_edge = AttributedGraph([[1.0], [1.0]], [(0, 1, [0.0])])
        not_finite = AttributedGraph([[np.inf], [1.0]], [(0, 1, [1.0])])
        for g, message in ((zero_edge, "zero attribute"), (not_finite, "finite")):
            for _ in range(2):
                with pytest.raises(ValidationError, match=message):
                    to_representation(g)

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


class TestPermutationAction:
    def test_identity(self):
        rep = to_representation(running_graph())
        assert apply_permutation(rep, Permutation.identity(2)) == rep

    def test_swap_scalar_cells(self):
        rep = Representation(np.array([[[1.0], [3.0]], [[3.0], [2.0]]]))
        swapped = apply_permutation(rep, Permutation([1, 0]))
        np.testing.assert_array_equal(swapped.cells[..., 0], [[2.0, 3.0], [3.0, 1.0]])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        rep = to_representation(rand_graph(rng, 5, 2))
        p = rand_permutation(rng, 5)
        assert apply_permutation(apply_permutation(rep, p), p.inverse()) == rep

    def test_length_mismatch(self):
        with pytest.raises(SizeError):
            apply_permutation(to_representation(running_graph()), Permutation([0, 2, 1]))

    def test_non_bijection_rejected(self):
        with pytest.raises(ValidationError):
            Permutation([0, 0, 1])


class TestInvariants:
    def test_norm_invariant_under_permutation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = rand_graph(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
            rep = to_representation(g)
            p = rand_permutation(rng, g.order)
            moved = apply_permutation(rep, p)
            assert abs(moved.norm() - rep.norm()) <= 1e-12 * max(1.0, rep.norm())

    def test_group_action_composition(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = rand_graph(rng, 5, 2)
            rep = to_representation(g)
            p, q = rand_permutation(rng, 5), rand_permutation(rng, 5)
            assert apply_permutation(apply_permutation(rep, p), q) == apply_permutation(
                rep, q.compose(p)
            )

    def test_padding_preserves_self_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rand_graph(rng, int(rng.integers(1, 5)), 2)
            padded = pad_to_order(g, g.order + 2)
            assert sdp(padded, padded).value == pytest.approx(sdp(g, g).value, rel=1e-12)
