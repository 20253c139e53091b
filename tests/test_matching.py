import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from conftest import permuted_graph, rand_graph, rand_sym_cells, rel_close
from sublin import (AttributedGraph, CapacityError, GaParams, MatcherConfig, MatchMatrix,
                    Representation, ValidationError, exact_sdp, ga_sdp, induced_distance,
                    kernel_value, optimal_align, sdp, to_representation)
from sublin.matching import _best_permutation, _ga_soft, _pad_cells

EXACT = MatcherConfig()
GRADUATED = MatcherConfig(method="graduated")

GX = AttributedGraph([[1.0], [2.0]], [(0, 1, [1.0])])
GY = AttributedGraph([[2.0], [1.0]], [(0, 1, [1.0])])


class TestMatchMatrix:
    def test_requires_min_count(self):
        with pytest.raises(ValidationError):
            MatchMatrix(2, 3, [(0, 0)])

    def test_one_to_one_enforced(self):
        with pytest.raises(ValidationError):
            MatchMatrix(2, 2, [(0, 0), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            MatchMatrix(2, 2, [(0, 0), (1, 2)])

    def test_as_array(self):
        m = MatchMatrix(2, 3, [(0, 2), (1, 0)])
        np.testing.assert_array_equal(m.as_array(), [[0, 0, 1], [1, 0, 0]])


class TestKernelValue:
    def test_single_node(self):
        rx = to_representation(AttributedGraph([[3.0]]))
        ry = to_representation(AttributedGraph([[2.0]]))
        assert kernel_value(rx, ry, MatchMatrix.identity(1)) == 6.0

    def test_zero_graph(self):
        rx = to_representation(GX)
        rz = to_representation(AttributedGraph.empty(1, 2))
        assert kernel_value(rx, rz, MatchMatrix.identity(2)) == 0.0

    def test_both_matches_of_running_pair(self):
        # direct expansion of the double sum over both permutations
        rx, ry = to_representation(GX), to_representation(GY)
        ident = MatchMatrix.identity(2)
        swap = MatchMatrix(2, 2, [(0, 1), (1, 0)])
        assert kernel_value(rx, ry, ident) == 6.0  # 1*2 + 2*1 + 1*1 + 1*1
        assert kernel_value(rx, ry, swap) == 7.0  # 1*1 + 2*2 + 1*1 + 1*1
        assert kernel_value(rx, rx, ident) == 7.0  # 1 + 4 + 1 + 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            kernel_value(to_representation(GX), to_representation(GY), MatchMatrix.identity(3))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_matches_reference_loop(self, scale):
        # every order pair 0..8 both ways (m<n, m>n, m=n), d cycling over 1..5
        rng = np.random.default_rng(17)
        for m in range(9):
            for n in range(9):
                d = 1 + (m * 9 + n) % 5
                rx = to_representation(rand_graph(rng, m, d, 0.6, scale))
                ry = to_representation(rand_graph(rng, n, d, 0.6, scale))
                k = min(m, n)
                match = MatchMatrix(m, n, zip(rng.permutation(m)[:k], rng.permutation(n)[:k]))
                assert kernel_value(rx, ry, match) == _reference_kernel_value(rx, ry, match)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("x, y", [
        ([[1e200], [-1e200], [1.0]], [[1e200], [1e200], [2.0]]),  # inf - inf in fsum
        ([[1.3e154], [1.3e154]], [[1.3e154], [1.3e154]]),  # finite terms, sum overflows
        ([[1e200]], [[1e200]]),  # one infinite term
    ], ids=["inf-minus-inf", "sum-overflow", "inf-term"])
    def test_overflowing_value_rejected(self, x, y):
        with pytest.raises(ValidationError, match="finite"):
            sdp(AttributedGraph(x), AttributedGraph(y))


def _reference_kernel_value(rx, ry, match):
    """kernel_value as first written: one np.dot per pair of assigned pairs; the
    oracle the vectorized sum must equal bit for bit."""
    cx, cy = rx.cells, ry.cells
    terms = [float(np.dot(cx[i, j], cy[r, s])) for i, r in match.pairs for j, s in match.pairs]
    return math.fsum(terms)


class TestExactSdp:
    def test_self_product_is_squared_norm(self):
        res = exact_sdp(GX, AttributedGraph(GX.node_attrs, GX.edge_attrs))
        assert res.value == 7.0
        assert res.match == MatchMatrix.identity(2)
        assert res.exact

    def test_swap_is_optimal_for_running_pair(self):
        res = exact_sdp(GX, GY)
        assert res.value == 7.0
        assert res.match.pairs == ((0, 1), (1, 0))

    def test_zero_graph(self):
        res = exact_sdp(GX, AttributedGraph.empty(1, 2))
        assert res.value == 0.0
        assert len(res.match.pairs) == 2
        assert exact_sdp(GX, AttributedGraph.empty(1, 0)).match.pairs == ()

    def test_unequal_orders_assign_min_pairs(self):
        rng = np.random.default_rng(0)
        small = rand_graph(rng, 2, 2)
        big = rand_graph(rng, 5, 2)
        assert len(exact_sdp(small, big).match.pairs) == 2
        assert len(exact_sdp(big, small).match.pairs) == 2

    def test_capacity_error(self):
        g = rand_graph(np.random.default_rng(1), 9, 1)
        with pytest.raises(CapacityError):
            exact_sdp(g, g, max_order=8)

    def test_lexicographic_tie_break(self):
        # all-equal attributes: every permutation ties, identity must win
        g = AttributedGraph([[1.0], [1.0], [1.0]])
        res = exact_sdp(g, AttributedGraph([[1.0], [1.0], [1.0]]))
        assert res.match == MatchMatrix.identity(3)


class TestGaSdp:
    def test_single_node_pair_matches_exact(self):
        a, b = AttributedGraph([[1.5]]), AttributedGraph([[-0.5]])
        assert ga_sdp(a, b).value == exact_sdp(a, b).value
        assert not ga_sdp(a, b).exact

    def test_identical_graphs_reach_self_product(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = rand_graph(rng, int(rng.integers(2, 7)), 2, distinct_nodes=True)
            twin = AttributedGraph(g.node_attrs, g.edge_attrs)
            assert abs(ga_sdp(g, twin).value - exact_sdp(g, twin).value) <= 1e-9

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = rand_graph(rng, 5, 1)
            b = rand_graph(rng, 5, 1)
            assert ga_sdp(a, b).value <= exact_sdp(a, b).value + 1e-9

    @pytest.mark.parametrize("solve", [
        ga_sdp, exact_sdp, lambda bad, g: optimal_align(to_representation(g), bad),
    ], ids=["ga_sdp", "exact_sdp", "optimal_align"])
    def test_non_finite_rejected(self, solve):
        bad = AttributedGraph([[np.nan], [1.0]], [(0, 1, [1.0])])
        with pytest.raises(ValidationError, match="finite"):
            solve(bad, GX)


@lru_cache(maxsize=None)
def _reference_permutations(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def _reference_best_permutation(cx, cy):
    """The exact scorer as first written: a 4-D fancy-index gather over the
    (i, j, r, s) compatibility array, 5,040 permutations at a time; the oracle
    the flat-index scorer must match exactly."""
    n = cx.shape[0]
    compat = np.tensordot(cx, cy, axes=([2], [2]))
    perms = _reference_permutations(n)
    ii = np.arange(n).reshape(1, n, 1)
    jj = np.arange(n).reshape(1, 1, n)
    best_score = -np.inf
    best_perm = perms[0]
    for start in range(0, perms.shape[0], 5040):
        block = perms[start : start + 5040]
        scores = compat[ii, jj, block[:, :, None], block[:, None, :]].sum(axis=(1, 2))
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score = float(scores[k])
            best_perm = block[k]
    return best_perm


def _reference_pairs(cx, cy):
    m, n = cx.shape[0], cy.shape[0]
    perm = _reference_best_permutation(_pad_cells(cx, max(m, n)), _pad_cells(cy, max(m, n)))
    return [(i, int(perm[i])) for i in range(m) if perm[i] < n]


class TestExactBitIdentity:
    @staticmethod
    def _cell_pairs(rng, scale):
        """(cx, cy) of one order: random, padded, all-zero, all-equal, integer-valued
        and relabeling-invariant."""
        def cells(n, d):
            return rand_sym_cells(rng, n, d, scale)

        for n in range(1, 8):
            for _ in range(3):
                d = int(rng.integers(1, 5))
                yield cells(n, d), cells(n, d)
        yield cells(8, 2), cells(8, 2)
        for m, n in ((2, 5), (3, 6), (4, 7), (6, 7)):  # padded x, then padded y
            yield _pad_cells(cells(m, 2), n), cells(n, 2)
            yield cells(n, 3), _pad_cells(cells(m, 3), n)
        for n in (4, 7):  # every permutation ties, across chunks at order 7
            yield np.zeros((n, n, 2)), cells(n, 2)
            yield np.full((n, n, 2), scale), np.full((n, n, 2), scale)
        for n in (5, 6, 7):  # integer-valued cells: many exact or near ties
            yield (np.round(rand_sym_cells(rng, n, 2) * 2) * scale,
                   np.round(rand_sym_cells(rng, n, 2) * 2) * scale)
        for n in (4, 5, 6, 7) * 2:
            # x invariant under a node relabeling t (summed over t's powers): p and
            # p o t score the same terms in other positions, so they tie up to rounding
            t = rng.permutation(n)
            c = cells(n, 2)
            x, u = c.copy(), t
            while not np.array_equal(u, np.arange(n)):
                x += c[u][:, u]
                u = u[t]
            yield x, cells(n, 2)

    @pytest.mark.parametrize("scale, seed", [(1e-6, 1), (1.0, 2), (1e6, 3)])
    def test_matches_reference_scorer(self, scale, seed):
        rng = np.random.default_rng(seed)
        for cx, cy in self._cell_pairs(rng, scale):
            assert np.array_equal(_best_permutation(cx, cy), _reference_best_permutation(cx, cy))

    @pytest.mark.parametrize("scale, seed", [(1e-6, 4), (1.0, 5), (1e6, 6)])
    def test_exact_results_unchanged(self, scale, seed):
        # orders 1-7 both ways; value, match and aligned cells follow the oracle's pairs
        rng = np.random.default_rng(seed)
        for m, n in ((1, 3), (3, 1), (4, 4), (2, 6), (6, 2), (5, 7), (7, 5), (7, 7)):
            d = int(rng.integers(1, 4))
            x, y = rand_graph(rng, m, d, scale=scale), rand_graph(rng, n, d, scale=scale)
            rx, ry = to_representation(x), to_representation(y)
            pairs = _reference_pairs(rx.cells, ry.cells)
            want = MatchMatrix(m, n, pairs)
            got = exact_sdp(x, y)
            assert got.match == want
            assert got.value == kernel_value(rx, ry, want)
            aligned = np.zeros_like(rx.cells)
            rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
            aligned[rows[:, None], rows] = ry.cells[cols[:, None], cols]
            assert optimal_align(rx, y).cells.tobytes() == aligned.tobytes()


def _reference_ga(cx, cy, params):
    """Graduated assignment as first written: a fresh buffer per round, both
    Sinkhorn errors every sweep, every round run. Returns the soft matrix and
    the greedy pairs; the oracle the production loop must match bit for bit."""
    m, n = cx.shape[0], cy.shape[0]
    compat = np.tensordot(cx, cy, axes=([2], [2]))
    node_comp = np.einsum("iirr->ir", compat)
    soft = np.full((m + 1, n + 1), 1.0 / (max(m, n) + 1.0))
    beta = params.beta_start
    while beta <= params.beta_max * (1 + 1e-12):
        for _ in range(params.assignment_rounds_max):
            q = np.einsum("ijrs,js->ir", compat, soft[:m, :n]) + node_comp
            shift = max(float(q.max()), 0.0)
            work = np.empty((m + 1, n + 1))
            work[:m, :n] = np.exp(beta * (q - shift))
            slack = math.exp(-beta * shift) if beta * shift < 700 else 0.0
            work[m, :] = slack
            work[:, n] = slack
            np.maximum(work, 1e-300, out=work)
            for _ in range(params.sinkhorn_max_iters):
                work[:m] /= work[:m].sum(axis=1, keepdims=True)
                work[:, :n] /= work[:, :n].sum(axis=0, keepdims=True)
                row_err = np.abs(work[:m].sum(axis=1) - 1.0).max(initial=0.0)
                col_err = np.abs(work[:, :n].sum(axis=0) - 1.0).max(initial=0.0)
                if max(row_err, col_err) <= params.sinkhorn_tol:
                    break
            soft = work
        beta *= params.beta_rate
    pick = soft[:m, :n].copy()
    pairs = []
    for _ in range(min(m, n)):
        i, r = np.unravel_index(int(np.argmax(pick)), pick.shape)
        pairs.append((int(i), int(r)))
        pick[i, :] = -np.inf
        pick[:, r] = -np.inf
    return soft[:m, :n], tuple(sorted(pairs))


def _signed(graph, sign):
    """The graph with every attribute replaced by `sign` times its magnitude."""
    return AttributedGraph(sign * np.abs(graph.node_attrs),
                           [(i, j, sign * np.abs(v)) for (i, j), v in graph.edge_items()])


class TestGaBitIdentity:
    # (m, n) covering orders 1-10 with m < n, m > n and m == n
    ORDERS = ((1, 3), (3, 1), (2, 9), (9, 2), (4, 7), (7, 4), (10, 6), (5, 5))

    @pytest.mark.parametrize("scale, seed", [(1e-6, 1), (1.0, 2), (1e6, 3)])
    @pytest.mark.parametrize("params", [GaParams(), GaParams(sinkhorn_max_iters=3),
                                        GaParams(sinkhorn_tol=1e-16)],
                             ids=["default", "sweep-cap", "tol-1e-16"])
    def test_matches_reference_loop(self, params, scale, seed):
        rng = np.random.default_rng(seed)
        pairs = []
        for m, n in self.ORDERS:
            d = int(rng.integers(1, 4))
            pairs.append((rand_graph(rng, m, d, scale=scale), rand_graph(rng, n, d, scale=scale)))
        # all compatibilities negative: the shift stays 0 while Q still moves
        x, y = rand_graph(rng, 6, 2, scale=scale), rand_graph(rng, 4, 2, scale=scale)
        pairs.append((_signed(x, 1.0), _signed(y, -1.0)))
        for x, y in pairs:
            m, n = x.order, y.order
            rx, ry = to_representation(x), to_representation(y)
            want_soft, want_pairs = _reference_ga(rx.cells, ry.cells, params)
            assert _ga_soft(rx.cells, ry.cells, params).tobytes() == want_soft.tobytes()
            want = MatchMatrix(m, n, want_pairs)
            got = ga_sdp(x, y, params)
            assert got.match == want
            assert got.value == kernel_value(rx, ry, want)


class TestMatcherConfig:
    def test_json_round_trip(self):
        cfg = MatcherConfig(method="graduated", exact_max_order=6,
                            ga_params=GaParams(beta_start=0.25, sinkhorn_max_iters=7,
                                               sinkhorn_tol=1e-4, assignment_rounds_max=2))
        doc = cfg.to_json()
        assert list(doc["ga_params"]) == ["beta_start", "beta_rate", "beta_max",
                                          "sinkhorn_max_iters", "sinkhorn_tol",
                                          "assignment_rounds_max"]
        assert MatcherConfig.from_json(doc) == cfg

    @pytest.mark.parametrize("doc, match", [
        ({"method": "graduated", "ga_params": {"bogus": 1}}, "bogus"),
        ("graduated", "JSON object"),
        ({"ga_params": {"beta_start": "x"}}, "'ga_params'"),
        ({"ga_params": [["beta_start", 1]]}, "'ga_params'"),
        ({"exact_max_order": "x"}, "'exact_max_order'"),
        ({"method": "graduated", "ga_params": {"sinkhorn_max_iters": 3.5}},
         "'sinkhorn_max_iters' must be an integer"),
        ({"ga_params": {"assignment_rounds_max": True}}, "'assignment_rounds_max' must be an integer"),
    ], ids=["bogus", "not-an-object", "ga_params-type", "ga_params-list", "exact_max_order-type",
            "sinkhorn_max_iters-float", "assignment_rounds_max-bool"])
    def test_unknown_ga_params_key_rejected(self, doc, match):
        with pytest.raises(ValidationError, match=match):
            MatcherConfig.from_json(doc)


class TestDispatch:
    def test_exact_mode_small_pair(self):
        assert sdp(GX, GY, EXACT).exact

    def test_graduated_mode_flag(self):
        assert not sdp(GX, GY, GRADUATED).exact

    def test_exact_mode_capacity_error(self):
        g = rand_graph(np.random.default_rng(2), 20, 1)
        with pytest.raises(CapacityError):
            sdp(g, g.with_label(None), MatcherConfig(exact_max_order=8))

    def test_attr_dim_mismatch(self):
        with pytest.raises(ValidationError):
            sdp(GX, AttributedGraph([[1.0, 2.0]]))


class TestOptimalAlign:
    def test_zero_weights_give_canonical_representation(self):
        rng = np.random.default_rng(3)
        g = rand_graph(rng, 4, 2)
        aligned = optimal_align(Representation.zeros(4, 2), g, EXACT)
        assert aligned == to_representation(g)

    def test_self_alignment_gives_squared_norm(self):
        rep = to_representation(GX)
        aligned = optimal_align(rep, AttributedGraph(GX.node_attrs, GX.edge_attrs), EXACT)
        assert float(np.vdot(rep.cells, aligned.cells)) == pytest.approx(7.0, rel=1e-12)

    def test_running_pair_alignment_is_swapped_y(self):
        rx = to_representation(GX)
        aligned = optimal_align(rx, GY, EXACT)
        np.testing.assert_array_equal(aligned.cells, rx.cells)

    def test_padding_and_truncation_orders(self):
        rng = np.random.default_rng(4)
        w = to_representation(rand_graph(rng, 3, 2))
        small = rand_graph(rng, 2, 2)
        big = rand_graph(rng, 5, 2)
        assert optimal_align(w, small, EXACT).order == 3
        assert optimal_align(w, big, EXACT).order == 3
        # dot with weights reproduces the dispatched product value
        for g in (small, big):
            aligned = optimal_align(w, g, EXACT)
            got = float(np.vdot(w.cells, aligned.cells))
            from sublin import from_representation
            expected = exact_sdp(from_representation(w), g).value
            assert got == pytest.approx(expected, rel=1e-12)

    def test_graduated_alignment_consistent_with_ga_value(self):
        rng = np.random.default_rng(5)
        w = to_representation(rand_graph(rng, 4, 2))
        g = rand_graph(rng, 6, 2)
        aligned = optimal_align(w, g, GRADUATED)
        from sublin import from_representation
        assert float(np.vdot(w.cells, aligned.cells)) == pytest.approx(
            ga_sdp(from_representation(w), g).value, rel=1e-9
        )


class TestInducedDistance:
    def test_self_distance_zero(self):
        assert induced_distance(GX, GX, EXACT) == 0.0

    def test_orbit_invariance(self):
        rng = np.random.default_rng(6)
        g = rand_graph(rng, 5, 2)
        assert induced_distance(g, permuted_graph(g, rng.permutation(5)), EXACT) == 0.0

    def test_running_pair_is_isomorphic(self):
        assert induced_distance(GX, GY, EXACT) == 0.0


class TestAlgebraicInvariants:
    N = 200

    def _pair(self, rng):
        d = int(rng.integers(1, 4))
        a = rand_graph(rng, int(rng.integers(1, 5)), d)
        b = rand_graph(rng, int(rng.integers(1, 5)), d)
        return a, b

    def test_symmetry_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(self.N):
            a, b = self._pair(rng)
            assert sdp(a, b, EXACT).value == sdp(b, a, EXACT).value

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N):
            a, b = self._pair(rng)
            if a.order < 2:
                continue
            moved = permuted_graph(a, rng.permutation(a.order))
            assert sdp(moved, b, EXACT).value == sdp(a, b, EXACT).value

    def test_self_product_is_squared_norm(self):
        rng = np.random.default_rng(12)
        for _ in range(self.N):
            a, _ = self._pair(rng)
            rep = to_representation(a)
            expected = math.fsum(float(v) * float(v) for v in rep.vector)
            assert rel_close(sdp(a, a, EXACT).value, expected, 1e-12)
            twin = AttributedGraph(a.node_attrs, a.edge_attrs)
            assert rel_close(sdp(a, twin, EXACT).value, expected, 1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(13)
        for _ in range(self.N):
            a, b = self._pair(rng)
            bound = math.sqrt(sdp(a, a, EXACT).value) * math.sqrt(sdp(b, b, EXACT).value)
            assert sdp(a, b, EXACT).value <= bound + 1e-9

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(14)
        for _ in range(self.N):
            a, b = self._pair(rng)
            scale = float(rng.uniform(0, 3))
            scaled = AttributedGraph(
                scale * a.node_attrs,
                [(i, j, scale * v) for (i, j), v in a.edge_items() if np.any(scale * v)],
            )
            assert rel_close(sdp(scaled, b, EXACT).value, scale * sdp(a, b, EXACT).value, 1e-12)

    def test_lift_is_convex(self):
        # the lift x -> max over matches of the kernel with a fixed graph is a
        # pointwise max of linear maps
        rng = np.random.default_rng(15)
        for _ in range(100):
            d = int(rng.integers(1, 3))
            y = rand_graph(rng, int(rng.integers(1, 5)), d)
            n = int(rng.integers(1, 5))
            u = rand_sym_cells(rng, n, d)
            v = rand_sym_cells(rng, n, d)
            t = float(rng.uniform(0, 1))

            def lift(cells):
                aligned = optimal_align(Representation(cells), y, EXACT)
                return float(np.vdot(cells, aligned.cells))

            assert lift(t * u + (1 - t) * v) <= t * lift(u) + (1 - t) * lift(v) + 1e-9

    def test_graduated_lower_bound(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            a, b = self._pair(rng)
            assert ga_sdp(a, b).value <= exact_sdp(a, b).value + 1e-9

    def test_triangle_inequality(self):
        # pairwise padding yields one metric per common order; the inequality is
        # guaranteed only when the intermediate graph is not strictly larger
        # than both endpoints, so the middle order is sampled accordingly
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = int(rng.integers(1, 3))
            a = rand_graph(rng, int(rng.integers(1, 6)), d)
            c = rand_graph(rng, int(rng.integers(1, 6)), d)
            b = rand_graph(rng, int(rng.integers(1, max(a.order, c.order) + 1)), d)
            dac = induced_distance(a, c, EXACT)
            dab = induced_distance(a, b, EXACT)
            dbc = induced_distance(b, c, EXACT)
            assert dac <= dab + dbc + 1e-9
