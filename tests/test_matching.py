import itertools
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from conftest import FIRST_GA_SCHEDULE, permuted_graph, rand_graph, rand_sym_cells, rel_close
from sublin import (AttributedGraph, CapacityError, MatcherConfig, MatchMatrix,
                    Representation, ValidationError, exact_sdp, ga_sdp, induced_distance,
                    SublinearModel, kernel_value, load_model, matcher_call_count, optimal_align,
                    save_model, sdp, to_representation)
from sublin import matching
from sublin.matching import _best_pairs, _ga_soft, _injection_table

EXACT = MatcherConfig()
GRADUATED = MatcherConfig(method="graduated")

GX = AttributedGraph([[1.0], [2.0]], [(0, 1, [1.0])])
GY = AttributedGraph([[2.0], [1.0]], [(0, 1, [1.0])])


class TestMatchMatrix:
    def test_requires_min_count(self):
        with pytest.raises(ValidationError, match="must assign 2 pairs, got 1"):
            MatchMatrix(2, 3, [(0, 0)])

    def test_one_to_one_enforced(self):
        with pytest.raises(ValidationError, match="violates the one-to-one constraints"):
            MatchMatrix(2, 2, [(0, 0), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match=r"pair \(1,2\) out of range for a 2x2 match"):
            MatchMatrix(2, 2, [(0, 0), (1, 2)])

    def test_negative_dimensions(self):
        with pytest.raises(ValidationError, match="must be non-negative"):
            MatchMatrix(-1, 2, [])
        with pytest.raises(ValidationError, match="must be non-negative"):
            MatchMatrix.identity(-1)

    def test_equal_and_hashed_by_rows_cols_and_pairs(self):
        a = MatchMatrix(2, 3, [(1, 0), (0, 2)])
        b = MatchMatrix(np.int64(2), 3, ((np.int64(0), 2), (1, 0)))
        assert a.pairs == ((0, 2), (1, 0)) and type(b.rows) is int
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a == MatchMatrix._own(2, 3, ((0, 2), (1, 0)))
        assert a != MatchMatrix(2, 3, [(0, 0), (1, 2)])
        assert MatchMatrix(2, 2, [(0, 0), (1, 1)]) != MatchMatrix(2, 3, [(0, 0), (1, 1)])
        assert a != (2, 3, ((0, 2), (1, 0)))

    def test_immutable(self):
        match = MatchMatrix(2, 2, [(0, 1), (1, 0)])
        for name in ("rows", "cols", "pairs"):
            with pytest.raises(AttributeError):
                setattr(match, name, 1)
        assert match == MatchMatrix(2, 2, [(0, 1), (1, 0)])

    def test_identity_is_shared_per_order(self):
        assert MatchMatrix.identity(3) is MatchMatrix.identity(3)
        assert MatchMatrix.identity(3).pairs == ((0, 0), (1, 1), (2, 2))
        assert MatchMatrix.identity(0) == MatchMatrix(0, 0, [])
        g = rand_graph(np.random.default_rng(0), 4, 2)
        assert sdp(g, g).match is MatchMatrix.identity(4)


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
        with pytest.raises(ValidationError, match="match is 3x3 but representations have orders 2 and 2"):
            kernel_value(to_representation(GX), to_representation(GY), MatchMatrix.identity(3))

    def test_attribute_dimension_mismatch(self):
        rx, ry = Representation(np.ones((2, 2, 2))), Representation(np.ones((2, 2, 3)))
        with pytest.raises(ValidationError, match="attribute dimensions differ: 2 vs 3"):
            kernel_value(rx, ry, MatchMatrix.identity(2))

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_edge_near_the_float_limit(self):
        # x's edge cell overflows only against z's node cells, which no injection
        # pairs with it; a cell that overflowed where injections read it would
        # meet z's zero edge cells, make every score NaN and let the identity win
        x = AttributedGraph([[1.0], [1.0], [5.0]], [(0, 1, [1.5e308])])
        z = AttributedGraph([[3.0], [2.0], [0.5]])
        res = exact_sdp(x, z)
        assert (res.value, res.match.pairs) == (17.5, ((0, 1), (1, 2), (2, 0)))
        res = exact_sdp(z, x)
        assert (res.value, res.match.pairs) == (17.5, ((0, 2), (1, 0), (2, 1)))

    def test_match_unchanged_by_scaling_to_the_float_limit(self):
        # x at scale 1.5 times 2**1023 against y at 2**-8: every product and sum
        # stays finite and normal, so every score scales exactly and no winner moves
        rng = np.random.default_rng(404)
        for _ in range(300):
            d = int(rng.integers(1, 4))
            x = rand_graph(rng, int(rng.integers(1, 5)), d, scale=1.5)
            y = rand_graph(rng, int(rng.integers(1, 5)), d, scale=2.0**-8)
            big = AttributedGraph(x.node_attrs * 2.0**1023,
                                  [(i, j, v * 2.0**1023) for (i, j), v in x.edge_items()])
            assert exact_sdp(big, y).match == exact_sdp(x, y).match
            assert exact_sdp(y, big).match == exact_sdp(y, x).match


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
        with pytest.raises(ValidationError, match="finite"):
            solve(AttributedGraph([[np.nan], [1.0]], [(0, 1, [1.0])]), GX)


@lru_cache(maxsize=None)
def _reference_permutations(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def _reference_k2_permutation(cx, cy):
    """The exact scorer as first written: all k x k terms of each permutation by a
    4-D fancy-index gather over the (i, j, r, s) compatibility array, 5,040
    permutations at a time; the value oracle for the scorer's winners."""
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


def _reference_best_permutation(cx, cy, by_cols=False):
    """The exact scorer's sum written out per permutation, 5,040 at a time: the
    compatibilities dot(x_ij, y_rs) with the node rows (i, i) halved, then,
    for the pairs indexed by node a of the rows (by_cols: of the columns), the n
    diagonal terms (a, a) and the terms a < b in row-major order, added one at a
    time, so each score is half the permutation's objective. The oracle the table
    scorer must match exactly: the padded zero nodes of `_reference_pairs` only add
    exact zeros between the same real terms in the same order."""
    n = cx.shape[0]
    compat = np.tensordot(cx, cy, axes=([2], [2]))
    compat[np.arange(n), np.arange(n)] *= 0.5
    perms = _reference_permutations(n)
    a, b = np.array([(a, a) for a in range(n)] + list(itertools.combinations(range(n), 2)),
                    dtype=np.intp).reshape(-1, 2).T
    best_score = -np.inf
    best_perm = perms[0]
    for start in range(0, perms.shape[0], 5040):
        block = perms[start : start + 5040]
        if by_cols:  # rows[t, a]: the row that permutation t assigns column a
            rows, cols = np.argsort(block, axis=1), np.arange(n)[None]
        else:
            rows, cols = np.arange(n)[None], block
        terms = compat[rows[:, a], rows[:, b], cols[:, a], cols[:, b]]
        scores = terms[:, 0].copy()
        for p in range(1, terms.shape[1]):
            scores += terms[:, p]
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score = float(scores[k])
            best_perm = block[k]
    return best_perm


def _pad_cells(cells, n):
    """The cells with isolated zero nodes appended up to order n: how the
    reference puts two graphs of different orders on one order."""
    m, _, d = cells.shape
    if m == n:
        return cells
    out = np.zeros((n, n, d))
    out[:m, :m] = cells
    return out


def _padded_pairs(reference, cx, cy, **kwargs):
    """Pairs of the permutation `reference` picks for both graphs padded to the
    larger order, padded nodes dropped."""
    m, n = cx.shape[0], cy.shape[0]
    perm = reference(_pad_cells(cx, max(m, n)), _pad_cells(cy, max(m, n)), **kwargs)
    return tuple((i, int(perm[i])) for i in range(m) if perm[i] < n)


def _reference_pairs(cx, cy):
    """Pairs of the lexicographically smallest maximizing permutation of both
    graphs padded to the larger order, scored with the terms placed by the
    smaller graph's nodes."""
    return _padded_pairs(_reference_best_permutation, cx, cy, by_cols=cx.shape[0] > cy.shape[0])


def _assert_reference_winner(cx, cy):
    """The scorer picks the oracle's injection, and its value is the k x k
    reference winner's within 4 ulps (the two sums round differently)."""
    got = _best_pairs([(cx, cy)])[0]
    assert got == _reference_pairs(cx, cy)
    rx, ry = Representation(cx), Representation(cy)
    m, n = cx.shape[0], cy.shape[0]
    value = kernel_value(rx, ry, MatchMatrix(m, n, got))
    want = kernel_value(rx, ry, MatchMatrix(m, n, _padded_pairs(_reference_k2_permutation, cx, cy)))
    assert abs(value - want) <= 4 * math.ulp(want), (value, want)


# every pair of orders 1-8 both ways, and order 9 against a small and a large side
ORDER_PAIRS = [(m, n) for m in range(1, 9) for n in range(1, 9)] + [(9, 3), (3, 9), (9, 8)]


def _invariant(t, c):
    """`c` summed over the powers of the node relabeling t: invariant under t, so a
    permutation p and p o t score the same terms in other positions."""
    n = c.shape[0]
    x, u = c.copy(), t
    while not np.array_equal(u, np.arange(n)):
        x += c[u][:, u]
        u = u[t]
    return x


class TestExactBitIdentity:
    @staticmethod
    def _cell_pairs(rng, scale):
        """(cx, cy) of one order: random, padded, all-zero, all-equal, integer-valued
        and relabeling-invariant. The reference adds the same terms in the same
        order as the scorer, so ties within rounding break the same way too."""
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
            t = rng.permutation(n)
            yield _invariant(t, cells(n, 2)), cells(n, 2)

    @staticmethod
    def _order_pairs(rng, scale, m, n):
        """(cx, cy) of orders m and n: random, all-zero, all-equal, integer-valued,
        relabeling-invariant, and with zero last rows and columns. The reference
        also adds the padded zeros between the real terms, which changes no partial
        sum; the tie-rich cells hold multiples of a power of two near `scale`,
        which makes every tie exact. Zero last nodes add exact zeros, which tie
        exactly at any scale."""
        unit = 2.0 ** round(math.log2(scale))
        d = 1 + (m + n) % 3

        def integers(k):
            return np.round(rand_sym_cells(rng, k, d) * 2) * unit

        def zero_tail(k):
            c = rand_sym_cells(rng, k, d, scale)
            z = int(rng.integers(1, k + 1))
            c[k - z:] = 0.0
            c[:, k - z:] = 0.0
            return c

        yield rand_sym_cells(rng, m, d, scale), rand_sym_cells(rng, n, d, scale)
        yield np.zeros((m, m, d)), rand_sym_cells(rng, n, d, scale)
        yield np.full((m, m, d), unit), np.full((n, n, d), unit)
        yield integers(m), integers(n)
        yield _invariant(rng.permutation(m), integers(m)), integers(n)
        yield zero_tail(m), zero_tail(n)

    @pytest.mark.parametrize("scale, seed", [(1e-6, 1), (1.0, 2), (1e6, 3)])
    def test_matches_reference_scorer(self, scale, seed):
        rng = np.random.default_rng(seed)
        for cx, cy in self._cell_pairs(rng, scale):
            _assert_reference_winner(cx, cy)
        for m, n in ORDER_PAIRS:
            pairs = list(self._order_pairs(rng, scale, m, n))
            if max(m, n) > 7:  # the reference scores 8! or 9! permutations per pair
                pairs = [pairs[0], pairs[1 + (seed + m + n) % 5]]
            for cx, cy in pairs:
                _assert_reference_winner(cx, cy)

    def test_table_keeps_each_undirected_pair_once(self):
        # k(k+1)/2 positions per injection, the k diagonal (a, a) ones first:
        # every pair of orders up to 8 takes 10.6 MB where k x k took 18.5 MB
        nbytes = 0
        for m in range(1, 9):
            for n in range(1, 9):
                table = _injection_table(m, n)
                k = min(m, n)
                assert table.shape == (k * (k + 1) // 2, math.perm(max(m, n), k)), (m, n)
                assert table.dtype == np.uint16 and not table.flags.writeable
                assert (table[:k] // (n * n) % (m + 1) == 0).all()  # i_a*m + i_a
                nbytes += table.nbytes
        assert round(nbytes / 1e6, 1) == 10.6

    @pytest.mark.parametrize("m, n", [(9, 4), (4, 9)])
    def test_unequal_orders_build_only_their_table(self, m, n):
        rng = np.random.default_rng(9)
        _injection_table.cache_clear()
        exact_sdp(rand_graph(rng, m, 2), rand_graph(rng, n, 2), max_order=9)
        info = _injection_table.cache_info()
        assert info.currsize == 1
        _injection_table(m, n)  # the one table held is (m, n): no (9, 9) table was built
        assert _injection_table.cache_info().hits == info.hits + 1

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


class TestBatchedScorer:
    @staticmethod
    def _cells(rng, m, n, count):
        """`count` (cx, cy) pairs of orders m and n, random, all-zero, all-equal and
        integer-valued cells in turn on each side, so exact ties are common."""
        kinds = (lambda k: rand_sym_cells(rng, k, 2),
                 lambda k: np.zeros((k, k, 2)),
                 lambda k: np.full((k, k, 2), 0.5),
                 lambda k: np.round(rand_sym_cells(rng, k, 2) * 2))
        return [(kinds[i % 4](m), kinds[(i + i // 4) % 4](n)) for i in range(count)]

    @pytest.mark.parametrize("m, n", [(7, 7), (8, 8), (7, 8), (8, 7)])
    @pytest.mark.parametrize("count", [1, 2, 7, 40])
    def test_batch_equals_each_pair_alone(self, m, n, count):
        # every table here takes several windows, the (7, 7) one with 7 pairs a
        # partial last one: 5,040 = 12 x 411 + 108
        assert matching._GATHER // 7 == 411 and 5040 % 411 == 108
        rng = np.random.default_rng(100 * m + 10 * n + count)
        cells = self._cells(rng, m, n, count)
        assert _best_pairs(cells) == [_best_pairs([pair])[0] for pair in cells]

    def test_pairs_share_one_query(self):
        # the k-NN batch: one cx against many cy
        rng = np.random.default_rng(21)
        cx = rand_sym_cells(rng, 7, 3)
        cells = [(cx, rand_sym_cells(rng, 7, 3)) for _ in range(30)]
        assert _best_pairs(cells) == [_best_pairs([pair])[0] for pair in cells]


def _full_term_pairs(cells):
    """The exact scorer before it left out terms, over the whole table at once:
    each pair's compatibilities by `np.tensordot`, node rows (i, i) weighted 0.5,
    every term of every injection summed in the table's order, and each pair's
    winner the first maximum of its non-NaN scores (injection 0 when it has
    none). The oracle the kept-term scorer must match pair for pair."""
    m, n = cells[0][0].shape[0], cells[0][1].shape[0]
    k, batch = min(m, n), len(cells)
    table = _injection_table(m, n)
    weight = np.where(np.eye(m, dtype=bool), 0.5, 1.0).reshape(m * m, 1)
    compat = np.array([np.tensordot(cx, cy, axes=([2], [2])).reshape(m * m, n * n) * weight
                       for cx, cy in cells])
    scores = compat.reshape(batch, -1).T[table].sum(axis=0)
    rows = table[:k, np.fmax(scores, -np.inf).argmax(axis=0)].T
    step = (m + 1) * n * n
    return [tuple(sorted((p // step, p % step // (n + 1)) for p in row.tolist())) for row in rows]


class TestKeptTermScorer:
    # every (m, n) up to 7 both ways; the keep test runs once a table spans
    # several windows, from 90 injections at 32 pairs to 720 for a lone pair
    SHAPES = [(m, n) for m in range(1, 8) for n in range(1, 8)]

    @staticmethod
    def _side(rng, kind, k, d):
        """Cells of order k: dense, a sparse graph's (zero cells where edges are
        absent), with 0.0 and -0.0 cells, all zero, at 1e200 (products overflow),
        or near the float limit (products overflow too; a NaN comes only from
        +-inf products of opposite signs, in one dot or in one score's sum)."""
        if kind == "dense":
            return rand_sym_cells(rng, k, d)
        if kind == "zero":
            return np.zeros((k, k, d))
        cells = to_representation(rand_graph(rng, k, d, density=0.3)).cells.copy()
        if kind == "signed":  # a -0.0 cell, then a node of 0.0 or -0.0 cells
            i, j = rng.integers(0, k, size=2)
            cells[i, j] = cells[j, i] = -0.0
            z = rng.integers(0, k)
            cells[z] = cells[:, z] = -0.0 if rng.random() < 0.5 else 0.0
        return cells * {"sparse": 1.0, "signed": 1.0, "huge": 1e200, "limit": 1e308}[kind]

    KINDS = ("dense", "sparse", "signed", "zero", "huge", "limit")

    def _batch(self, rng, m, n, size, kind, mode):
        """`size` (cx, cy) pairs of orders m, n. The indexed side (x when m <= n,
        else y) is one array of `kind` shared by every pair ("shared", as in k-NN),
        `kind`'s zero cells on dense ones ("pattern"), or any kind pair by pair
        ("mixed": sparse and dense sides in one batch); the other side's kinds are
        drawn pair by pair."""
        d = int(rng.integers(1, 4))
        indexed, other = (m, n) if m <= n else (n, m)
        shared = self._side(rng, kind, indexed, d)
        mask = (shared != 0).any(axis=2, keepdims=True)
        pairs = []
        for _ in range(size):
            if mode == "shared":
                side = shared
            elif mode == "pattern":
                side = self._side(rng, "dense", indexed, d) * mask
            else:
                side = self._side(rng, self.KINDS[int(rng.integers(len(self.KINDS)))], indexed, d)
            rest = self._side(rng, self.KINDS[int(rng.integers(len(self.KINDS)))], other, d)
            pairs.append((side, rest) if m <= n else (rest, side))
        return pairs

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_equals_the_full_term_scorer(self, m, n):
        rng = np.random.default_rng(1000 + 10 * m + n)
        batches = [(kind, mode) for kind in self.KINDS for mode in ("shared", "pattern")]
        batches += [("dense", "mixed")] * 2
        with np.errstate(all="ignore"):
            for i, (kind, mode) in enumerate(batches):
                size = (1, 33)[i] if i < 2 else int(rng.integers(1, 34))
                cells = self._batch(rng, m, n, size, kind, mode)
                assert _best_pairs(cells) == _full_term_pairs(cells), (size, kind, mode)

    @pytest.mark.parametrize("m, n", [(4, 6), (5, 7), (6, 4), (7, 7), (6, 6)])
    def test_batch_equals_each_pair_alone_when_scores_overflow(self, m, n):
        # cells at 1e200 and near the float limit give inf and NaN scores; windows
        # shrink with the batch, so a NaN that hid its window's best injection
        # would make a pair's winner depend on its batch
        rng = np.random.default_rng(2000 + 10 * m + n)
        with np.errstate(all="ignore"):
            for kind in ("huge", "limit"):
                for mode in ("shared", "pattern"):
                    cells = self._batch(rng, m, n, 20, kind, mode)
                    alone = [matching._solve([pair], EXACT)[0] for pair in cells]
                    assert matching._solve(cells, EXACT) == alone, (kind, mode)


def _reference_ga(cx, cy, params, counts=None, nan_stop=True):
    """Graduated assignment as a plain warm-started loop: fresh arrays every
    pass, both Sinkhorn errors every sweep, and the sweeps end once neither
    exceeds the tolerance (a NaN error ends them). Q is one matrix-vector
    product of the (m*n, m*n) compatibilities in (i, r, j, s) layout and the
    flattened real soft matrix. A call's first pass balances exp(E), E = beta * (Q -
    shift) with -beta * shift in the slack row and column and 0 in their
    corner; every later pass starts from the last balanced matrix times
    exp(min(E - E_last, 700)). A beta step's rounds end once a pass moves no
    real entry by more than `assignment_tol`, and with `nan_stop` the
    schedule ends after the first pass whose row sums hold a NaN. Returns the
    soft matrix and the greedy pairs; the oracle the production loop must
    match bit for bit. A `counts` dict, if given, receives the number of
    Sinkhorn sweeps and passes run, the passes that ran every sweep without
    balancing (`capped`), the rounds each beta step ran (`rounds`), and the
    1-based pass at which a NaN row sum first appeared, if one did."""
    m, n = cx.shape[0], cy.shape[0]
    compat = np.tensordot(cx, cy, axes=([2], [2]))
    node_comp = np.einsum("iirr->ir", compat)
    compat = compat.transpose(0, 2, 1, 3).reshape(m * n, m * n)
    soft = np.full((m + 1, n + 1), 1.0 / (max(m, n) + 1.0))
    counts = {} if counts is None else counts
    last = None
    beta = params["beta_start"]
    while beta <= params["beta_max"] * (1 + 1e-12):
        counts.setdefault("rounds", []).append(0)
        for _ in range(params["assignment_rounds_max"]):
            counts["rounds"][-1] += 1
            q = np.dot(compat, soft[:m, :n].ravel()).reshape(m, n) + node_comp
            shift = max(float(q.max()), 0.0)
            expo = np.full((m + 1, n + 1), -beta * shift)
            expo[:m, :n] = beta * (q - shift)
            expo[m, n] = 0.0
            if last is None:
                work = np.exp(expo)
            else:
                work = soft * np.exp(np.minimum(expo - last, 700.0))
            work = np.maximum(work, 1e-300)
            counts["passes"] = counts.get("passes", 0) + 1
            for _ in range(params["sinkhorn_max_iters"]):
                counts["sweeps"] = counts.get("sweeps", 0) + 1
                work[:m] /= work[:m].sum(axis=1, keepdims=True)
                work[:, :n] /= work[:, :n].sum(axis=0, keepdims=True)
                row_err = np.abs(work[:m].sum(axis=1) - 1.0).max(initial=0.0)
                col_err = np.abs(work[:, :n].sum(axis=0) - 1.0).max(initial=0.0)
                if not max(row_err, col_err) > params["sinkhorn_tol"]:  # a NaN ends them too
                    break
            else:
                counts["capped"] = counts.get("capped", 0) + 1
            moved = np.abs(work[:m, :n] - soft[:m, :n]).max()
            soft, last = work, expo
            if np.isnan(soft[:m].sum(axis=1)).any():
                counts.setdefault("nan_pass", counts["passes"])
                if nan_stop:
                    return soft[:m, :n], _greedy_pairs(soft[:m, :n])
            if moved <= params["assignment_tol"]:
                break
        beta *= params["beta_rate"]
    return soft[:m, :n], _greedy_pairs(soft[:m, :n])


def _greedy_pairs(soft):
    """Greedy maximum selection on a soft matrix, down to min(m, n) pairs."""
    pick = soft.copy()
    pairs = []
    for _ in range(min(pick.shape)):
        i, r = np.unravel_index(int(np.argmax(pick)), pick.shape)
        pairs.append((int(i), int(r)))
        pick[i, :] = -np.inf
        pick[:, r] = -np.inf
    return tuple(sorted(pairs))


def _signed(graph, sign):
    """The graph with every attribute replaced by `sign` times its magnitude."""
    return AttributedGraph(sign * np.abs(graph.node_attrs),
                           [(i, j, sign * np.abs(v)) for (i, j), v in graph.edge_items()])


class _DivideCountingNumpy:
    """numpy, with its `divide` calls counted."""

    def __init__(self):
        self.divides = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def divide(self, *args, **kwargs):
        self.divides += 1
        return np.divide(*args, **kwargs)


class TestGaBitIdentity:
    # (m, n) covering orders 1-10 with m < n, m > n and m == n
    ORDERS = ((1, 3), (3, 1), (2, 9), (9, 2), (4, 7), (7, 4), (10, 6), (5, 5))

    @pytest.mark.parametrize("scale, seed", [(1e-6, 1), (1.0, 2), (1e6, 3)])
    @pytest.mark.parametrize("params", [FIRST_GA_SCHEDULE], ids=["default"])
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
            soft = _ga_soft([(rx.cells, ry.cells)])[0]
            assert soft.tobytes() == want_soft.tobytes()
            assert np.isfinite(soft).all()
            want = MatchMatrix(m, n, want_pairs)
            got = ga_sdp(x, y)
            assert got.match == want
            assert got.value == kernel_value(rx, ry, want)

    @staticmethod
    def _letter(rng, order, scale=1.0):
        """A letter-shaped graph at `scale`: plane coordinates in the unit square
        and a zero third component on the nodes, strokes flagged (0, 0, 1)."""
        nodes = np.zeros((order, 3))
        nodes[:, :2] = rng.uniform(0.0, 1.0, size=(order, 2))
        edges = [(i, j, [0.0, 0.0, scale]) for i in range(order) for j in range(i + 1, order)
                 if rng.random() < 0.4]
        return AttributedGraph(scale * nodes, edges)

    @staticmethod
    def _assert_soft_matches(monkeypatch, x, y):
        """`_ga_soft` gives the reference's bytes after as many Sinkhorn sweeps:
        a sweep makes two `np.divide` calls, counted through a stand-in for the
        module's numpy. The count is what a row test that swept on past a NaN,
        or a round or NaN stop at another pass, would change. Returns the soft
        matrix and the reference's counts."""
        cx, cy = to_representation(x).cells, to_representation(y).cells
        counts = {}
        want_soft, _ = _reference_ga(cx, cy, FIRST_GA_SCHEDULE, counts)
        numpy = _DivideCountingNumpy()
        with monkeypatch.context() as patch:
            patch.setattr(matching, "np", numpy)
            got = _ga_soft([(cx, cy)])[0]
        assert got.tobytes() == want_soft.tobytes()
        assert numpy.divides == 2 * counts["sweeps"]
        return got, counts

    def test_matches_reference_at_letter_scale(self, monkeypatch):
        # the letter workload's shapes: an order-9 weight graph at eta = 0.1
        # against drawings of every order it meets; the round stop ends some
        # beta steps before their 4th round (42 steps of 4 rounds: 168 passes)
        rng = np.random.default_rng(12)
        for n in range(2, 10):
            soft, counts = self._assert_soft_matches(monkeypatch, self._letter(rng, 9, scale=0.1),
                                                     self._letter(rng, n))
            assert np.isfinite(soft).all()
            assert counts["passes"] < 168

    def test_matches_reference_on_zero_weights(self, monkeypatch):
        # the first training step: every compatibility is zero
        rng = np.random.default_rng(13)
        soft, _ = self._assert_soft_matches(monkeypatch, AttributedGraph(np.zeros((9, 3))),
                                            self._letter(rng, 5))
        assert np.isfinite(soft).all()

    @pytest.mark.parametrize("m, n", [(9, 5), (5, 9), (9, 9), (1, 1)])
    def test_zero_compatibilities_give_the_reference_pairs(self, m, n):
        # either side all zero: the diagonal without annealing, still one solver call
        rng = np.random.default_rng(15)
        for x, y in ((AttributedGraph.empty(3, m), self._letter(rng, n)),
                     (self._letter(rng, m), AttributedGraph.empty(3, n))):
            rx, ry = to_representation(x), to_representation(y)
            calls = matcher_call_count()
            got = ga_sdp(x, y)
            assert matcher_call_count() == calls + 1
            assert got.match.pairs == _reference_ga(rx.cells, ry.cells, FIRST_GA_SCHEDULE)[1]

    def test_matches_reference_when_compatibilities_overflow(self, monkeypatch):
        # finite attributes near 1e200 give inf and NaN compatibilities; a NaN
        # row sum must end the sweeps, as it ends the reference loop's, and the
        # schedule stops at the pass where one first appears, leaving the soft
        # matrix as the whole schedule would
        rng = np.random.default_rng(14)
        reached_nan = 0
        with np.errstate(all="ignore"):
            for m, n in ((1, 1), (2, 3), (3, 2), (4, 4), (5, 7), (7, 5), (9, 6), (6, 9), (9, 9)):
                d = int(rng.integers(1, 4))
                x, y = rand_graph(rng, m, d, scale=1e200), rand_graph(rng, n, d, scale=1e200)
                soft, counts = self._assert_soft_matches(monkeypatch, x, y)
                reached_nan += bool(np.isnan(soft).any())
                whole = {}
                whole_soft, _ = _reference_ga(to_representation(x).cells, to_representation(y).cells,
                                              FIRST_GA_SCHEDULE, whole, nan_stop=False)
                assert soft.tobytes() == whole_soft.tobytes()
                if "nan_pass" in whole:
                    assert counts["passes"] == whole["nan_pass"] < whole["passes"]
                else:
                    assert counts == whole
        assert reached_nan >= 5


_letter = TestGaBitIdentity._letter


@lru_cache(maxsize=None)
def _stack_pool(m, n):
    """60 (m, n) pairs of attribute dimension 3, five kinds in turn: an order-m
    letter-scale weight at eta = 0.1 against a letter-shaped graph; a random
    pair with attributes of both signs, whose passes hit the 30-sweep cap; a
    pair at attribute scale 1e200, which reaches the NaN stop; an all-zero
    weight against a letter-shaped graph; and a random pair at scale 10, whose
    soft matrices hold entries below the 1e-300 floor. Returns the graphs,
    their cells and each pair's reference soft matrix, greedy pairs and
    counts."""
    rng = np.random.default_rng(16)
    graphs = []
    for k in range(60):
        graphs.append([
            lambda: (_letter(rng, m, scale=0.1), _letter(rng, n)),
            lambda: (rand_graph(rng, m, 3), rand_graph(rng, n, 3)),
            lambda: (rand_graph(rng, m, 3, scale=1e200), rand_graph(rng, n, 3, scale=1e200)),
            lambda: (AttributedGraph.empty(3, m), _letter(rng, n)),
            lambda: (rand_graph(rng, m, 3, scale=10.0), rand_graph(rng, n, 3, scale=10.0)),
        ][k % 5]())
    cells = [(to_representation(x).cells, to_representation(y).cells) for x, y in graphs]
    references = []
    with np.errstate(all="ignore"):
        for cx, cy in cells:
            counts = {}
            references.append(_reference_ga(cx, cy, FIRST_GA_SCHEDULE, counts) + (counts,))
    return graphs, cells, references


class TestGaStack:
    """Batched equals unbatched: a stack of same-shape pairs annealed in lockstep
    gives each pair the soft matrix and the pairs it gets alone."""

    @pytest.mark.parametrize("batch, shape", [(1, (9, 6)), (2, (9, 6)), (15, (6, 9)),
                                              (60, (9, 6))])
    def test_batched_equals_unbatched(self, batch, shape):
        graphs, cells, references = _stack_pool(*shape)
        # lone and paired stacks cover the five kinds over the first pairs;
        # larger stacks hold them all at once
        spans = [range(lo, lo + batch) for lo in range(0, max(batch, 5), batch)]
        for span in spans:
            stack = [cells[b] for b in span]
            with np.errstate(all="ignore"):
                soft = _ga_soft(stack)
                before = matcher_call_count()
                found = matching._solve(stack, GRADUATED)
            assert matcher_call_count() - before == len(stack)
            assert soft.shape == (len(stack),) + shape
            for b, got_soft, got_pairs in zip(span, soft, found, strict=True):
                want_soft, want_pairs, counts = references[b]
                assert got_soft.tobytes() == want_soft.tobytes(), b
                assert got_pairs == want_pairs, b
                if "nan_pass" not in counts:
                    assert got_pairs == ga_sdp(*graphs[b]).match.pairs, b
        # the mix each stack was built to hold
        counts = [references[b][2] for span in spans for b in span]
        assert any(c.get("capped") and "nan_pass" not in c for c in counts)
        assert any("nan_pass" in c for c in counts)
        assert not cells[3][0].any()
        assert (references[4][0] < 1e-300).any()
        assert len({tuple(c["rounds"]) for c in counts if "nan_pass" not in c}) > 1

    def test_reports_per_pair_cost(self):
        # a report, not a gate: kernel time per pair on letter-scale (9, 6) and
        # (9, 3) pairs, the small stacks of the letter workload, and on (9, 6)
        # pairs at attribute scale 1e200, whose passes overflow to NaN
        rng = np.random.default_rng(17)
        reports = [(f"(9, {n})", (1, 3, 15, 60),
                    [(_letter(rng, 9, scale=0.1), _letter(rng, n)) for _ in range(60)])
                   for n in (6, 3)]
        reports.append(("(9, 6) at scale 1e200", (1, 15),
                        [(rand_graph(rng, 9, 3, scale=1e200), rand_graph(rng, 6, 3, scale=1e200))
                         for _ in range(15)]))
        for label, batches, graphs in reports:
            pairs = [(to_representation(x).cells, to_representation(y).cells) for x, y in graphs]
            costs = []
            with np.errstate(all="ignore"):
                lone = _ga_soft(pairs[:1])[0].tobytes()
                for batch in batches:
                    times = []
                    for _ in range(3):
                        start = time.perf_counter()
                        soft = _ga_soft(pairs[:batch])
                        times.append(time.perf_counter() - start)
                    assert soft[0].tobytes() == lone
                    costs.append(f"B={batch} {1e3 * sorted(times)[1] / batch:.3f}")
            print(f"\nGA-BATCH {label} kernel ms per pair: " + ", ".join(costs))


class TestMatcherConfig:
    def test_json_round_trip(self):
        cfg = MatcherConfig(method="graduated", exact_max_order=6)
        doc = cfg.to_json()
        assert doc == {"method": "graduated", "exact_max_order": 6}
        assert MatcherConfig.from_json(doc) == cfg

    @pytest.mark.parametrize("doc, match", [
        ({"method": "graduated", "ga_params": {"bogus": 1}}, "bogus"),
        ("graduated", "JSON object"),
        ({"ga_params": {"beta_start": "x"}}, "'ga_params'"),
        ({"ga_params": [["beta_start", 1]]}, "'ga_params'"),
        ({"exact_max_order": "x"}, "'exact_max_order'"),
        ({"exact_max_order": 7.9}, "'exact_max_order'"),
        ({"exact_max_order": True}, "'exact_max_order'"),
        ({"method": "graduated", "ga_params": {**FIRST_GA_SCHEDULE, "sinkhorn_max_iters": 3}},
         "'ga_params'"),
        ({"method": "graduated", "ga_params": {**FIRST_GA_SCHEDULE, "assignment_tol": 1e-4}},
         "'ga_params'"),
    ], ids=["bogus", "not-an-object", "ga_params-type", "ga_params-list", "exact_max_order-type",
            "exact_max_order-float", "exact_max_order-bool", "ga_params-custom",
            "ga_params-assignment_tol"])
    def test_unknown_ga_params_key_rejected(self, doc, match):
        with pytest.raises(ValidationError, match=match):
            MatcherConfig.from_json(doc)

    def test_unknown_method_refused(self):
        with pytest.raises(ValidationError) as refused:
            MatcherConfig(method="x")
        assert str(refused.value) == "unknown matcher method 'x'"

    @pytest.mark.parametrize("value, match", [(7.9, r"an integer in 1\.\.9, got 7\.9"),
                                              (True, r"an integer in 1\.\.9, got True"),
                                              (0, r"an integer in 1\.\.9, got 0"),
                                              (10, r"an integer in 1\.\.9, got 10")],
                             ids=["float", "bool", "zero", "above-hard-cap"])
    def test_exact_max_order_must_be_an_int(self, value, match):
        # refused when built, not kept and later run under the hard cap 9
        with pytest.raises(ValidationError, match=f"'exact_max_order': expected {match}"):
            MatcherConfig(exact_max_order=value)

    def test_numpy_exact_max_order_is_stored_as_int(self, tmp_path):
        cfg = MatcherConfig(exact_max_order=np.int64(7))
        assert type(cfg.exact_max_order) is int and cfg == MatcherConfig(exact_max_order=7)
        model = SublinearModel(to_representation(GX), matcher=cfg)
        save_model(model, tmp_path / "model.json")
        assert load_model(tmp_path / "model.json").matcher == cfg

    @pytest.mark.parametrize("ga_params", [
        FIRST_GA_SCHEDULE, {"sinkhorn_tol": 0.005}, {},
        {k: v for k, v in FIRST_GA_SCHEDULE.items() if k != "assignment_tol"},
        {"assignment_tol": 1e-3},
    ], ids=["full", "subset", "empty", "first-six-keys", "assignment_tol"])
    def test_fixed_schedule_is_accepted(self, ga_params):
        doc = {"method": "graduated", "exact_max_order": 6, "ga_params": ga_params}
        assert MatcherConfig.from_json(doc) == MatcherConfig("graduated", 6)


class TestDispatch:
    def test_exact_mode_small_pair(self):
        assert sdp(GX, GY, EXACT).exact

    def test_graduated_mode_flag(self):
        assert not sdp(GX, GY, GRADUATED).exact

    def test_exact_mode_capacity_error(self):
        g = rand_graph(np.random.default_rng(2), 20, 1)
        with pytest.raises(CapacityError):
            sdp(g, AttributedGraph(g.node_attrs, g.edge_attrs), MatcherConfig(exact_max_order=8))

    def test_attr_dim_mismatch(self):
        with pytest.raises(ValidationError):
            sdp(GX, AttributedGraph([[1.0, 2.0]]))

    @pytest.mark.parametrize("cfg", [EXACT, MatcherConfig(exact_max_order=6), GRADUATED],
                             ids=["exact", "exact-cap-6", "graduated"])
    def test_equals_the_matcher_entry(self, cfg):
        # the same MatchResult and solver calls as exact_sdp(x, y, cfg.exact_max_order)
        # or ga_sdp(x, y), on empty, unequal and equal orders
        entry = ga_sdp if cfg.method == "graduated" else (
            lambda x, y: exact_sdp(x, y, cfg.exact_max_order))
        rng = np.random.default_rng(11)
        for m, n in [(0, 3), (1, 1), (3, 5), (5, 3), (6, 6)]:
            x, y = rand_graph(rng, m, 2), rand_graph(rng, n, 2)
            results, calls = [], []
            for solve in (lambda: sdp(x, y, cfg), lambda: entry(x, y)):
                before = matcher_call_count()
                results.append(solve())
                calls.append(matcher_call_count() - before)
            got, want = results
            # MatchResult equality: value, match (rows, cols, pairs) and exact
            assert got == want and got.exact == (cfg.method == "exact")
            assert calls == [1, 1]

    def test_graduated_results_batch_mixes_shapes(self):
        # one graduated batch with two shapes, a shape met twice and an empty side:
        # each pair gets lone ga_sdp's MatchResult, value bits included, and one call
        rng = np.random.default_rng(13)
        x = rand_graph(rng, 3, 2)
        ys = [rand_graph(rng, n, 2) for n in (5, 2, 3, 5, 0)]
        before = matcher_call_count()
        got = matching._results(x, ys, GRADUATED)
        assert matcher_call_count() - before == len(ys)
        for result, y in zip(got, ys, strict=True):
            want = ga_sdp(x, y)
            assert result == want and result.value.hex() == want.value.hex()

    def test_graduated_solve_groups_pairs_by_shape(self, monkeypatch):
        # the first sides differ too: orders (3, 5) five times, (5, 3), (4, 4) and
        # (0, 2); one (3, 5) pair has an all-zero side and takes the diagonal
        # unannealed, so the other four (3, 5) pairs reach the kernel as one stack
        rng = np.random.default_rng(14)
        graphs = [(rand_graph(rng, m, 2), rand_graph(rng, n, 2))
                  for m, n in [(3, 5), (5, 3), (4, 4), (3, 5), (0, 2), (3, 5), (3, 5), (3, 5)]]
        graphs[5] = (AttributedGraph.empty(2, 3), graphs[5][1])
        reps = [(to_representation(x), to_representation(y)) for x, y in graphs]
        stacks = []

        def kernel(cells):
            stacks.append(len(cells))
            return _ga_soft(cells)

        monkeypatch.setattr(matching, "_ga_soft", kernel)

        def solve():
            before = matcher_call_count()
            found = matching._solve([(rx.cells, ry.cells) for rx, ry in reps], GRADUATED)
            assert matcher_call_count() - before == len(graphs)
            return found

        found = solve()
        assert stacks == [4, 1, 1]
        for (x, y), (rx, ry), pairs in zip(graphs, reps, found, strict=True):
            want = ga_sdp(x, y)
            assert MatchMatrix(rx.order, ry.order, pairs) == want.match
            assert kernel_value(rx, ry, want.match).hex() == want.value.hex()

    @pytest.mark.parametrize("cfg, solver", [(EXACT, "_best_pairs"), (GRADUATED, "_ga_soft_pairs")],
                             ids=["exact", "graduated"])
    def test_solve_caps_each_solver_batch(self, monkeypatch, cfg, solver):
        # a (3, 4) group of _PAIRS + 8 pairs, with an all-zero side in its third
        # pair and a (4, 3) pair between two of its pairs, goes to the solver in
        # consecutive batches of at most _PAIRS, and each pair gets the pairs it
        # gets alone
        rng = np.random.default_rng(18)
        group = [(rand_sym_cells(rng, 3, 2), rand_sym_cells(rng, 4, 2))
                 for _ in range(matching._PAIRS + 8)]
        group[2] = (np.zeros((3, 3, 2)), group[2][1])
        other = (rand_sym_cells(rng, 4, 2), rand_sym_cells(rng, 3, 2))
        pairs = group[:5] + [other] + group[5:]
        alone = [matching._solve([pair], cfg)[0] for pair in pairs]
        batches = []

        def record(cells, solve=getattr(matching, solver)):
            batches.append(cells)
            return solve(cells)

        monkeypatch.setattr(matching, solver, record)
        before = matcher_call_count()
        assert matching._solve(pairs, cfg) == alone
        assert matcher_call_count() - before == len(pairs)
        assert [len(cells) for cells in batches] == [matching._PAIRS, 8, 1]
        solved = [pair for cells in batches for pair in cells]
        assert all(got is want for got, want in zip(solved, group + [other], strict=True))

    def test_solve_caps_each_graduated_stack_by_cells(self, monkeypatch):
        # a (10, 10) pair holds 10**4 compatibility cells, so _CELLS, the cells
        # of 32 (9, 9) pairs, lets 20 reach the kernel at once: 25 pairs go as
        # stacks of 20 and 5, and each pair gets the pairs it gets alone
        rng = np.random.default_rng(19)
        pairs = [(rand_sym_cells(rng, 10, 2), rand_sym_cells(rng, 10, 2)) for _ in range(25)]
        alone = [matching._solve([pair], GRADUATED)[0] for pair in pairs]
        stacks = []

        def kernel(cells, solve=matching._ga_soft):
            stacks.append(len(cells))
            return solve(cells)

        monkeypatch.setattr(matching, "_ga_soft", kernel)
        assert matching._solve(pairs, GRADUATED) == alone
        assert stacks == [20, 5]

    def test_capacity_error_equals_exact_sdp(self):
        rng = np.random.default_rng(12)
        x, y = rand_graph(rng, 4, 1), rand_graph(rng, 7, 1)
        before = matcher_call_count()
        with pytest.raises(CapacityError) as got:
            sdp(x, y, MatcherConfig(exact_max_order=6))
        with pytest.raises(CapacityError) as want:
            exact_sdp(x, y, 6)
        assert str(got.value) == str(want.value) == (
            "orders (4, 7) exceed the exact cap 6; use the graduated matcher")
        assert matcher_call_count() == before
        assert sdp(x, y, MatcherConfig("graduated", 6)) == ga_sdp(x, y)  # GA has no cap


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

    @pytest.mark.parametrize("cfg", [EXACT, GRADUATED], ids=["exact", "graduated"])
    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_result_is_read_only_and_passes_the_checks(self, cfg, order):
        rng = np.random.default_rng(order)
        w = to_representation(rand_graph(rng, 4, 2))
        aligned = optimal_align(w, rand_graph(rng, order, 2), cfg)
        assert not aligned.cells.flags.writeable
        assert Representation(aligned.cells) == aligned


class TestInducedDistance:
    def test_self_distance_zero(self):
        assert induced_distance(GX, GX, EXACT) == 0.0

    def test_orbit_invariance(self):
        rng = np.random.default_rng(6)
        g = rand_graph(rng, 5, 2)
        assert induced_distance(g, permuted_graph(g, rng.permutation(5)), EXACT) == 0.0

    def test_running_pair_is_isomorphic(self):
        assert induced_distance(GX, GY, EXACT) == 0.0

    def test_self_products_kept_on_graphs(self):
        rng = np.random.default_rng(10)
        x, y = rand_graph(rng, 5, 2), rand_graph(rng, 7, 2)
        calls = matcher_call_count()
        first = induced_distance(x, y, EXACT)
        for g in (x, y):
            rep = to_representation(g)
            assert g._self_product == kernel_value(rep, rep, MatchMatrix.identity(g.order))
        assert induced_distance(x, y, EXACT) == first
        assert matcher_call_count() == calls + 2  # the cross products only


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
