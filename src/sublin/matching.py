"""Correspondence-maximized dot product between attributed graphs.

The similarity of two graphs is the maximum, over one-to-one node
correspondences, of the summed dot products between corresponding node and
induced edge attributes. `sdp`, `exact_sdp`, `ga_sdp` and `optimal_align` all
reach one core, `_solve`, which takes a list of pairs of dense cell arrays and
returns the assigned node pairs of each from one of two solvers: exhaustive
enumeration of the injections of the smaller node set into the larger (exact,
small orders) or graduated assignment (heuristic, any order). The exact pairs
of one shape are scored in one batch, each getting the winner it gets alone.
`sdp`, `induced_distance` and k-NN solve one graph against one or many through
`_results`, and training and prediction over a split solve many weights against
many graphs through the same core (see `model._discriminants`). Values returned
to callers are always recomputed from the hard correspondence, never taken from
solver internals.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
import numpy as np

from .exceptions import CapacityError, ValidationError, check_count, config_fields, config_value
from .graphs import AttributedGraph, Representation, to_representation

DEFAULT_EXACT_MAX_ORDER = 8
_METHODS = ("exact", "graduated")  # what `MatcherConfig.method` and `sublin --matcher` accept
# Orders above this are never enumerated. `_injection_table` caches one table per
# pair of orders seen, unbounded: evicting one would only rebuild it.
_HARD_ENUM_LIMIT = 9
# (injection, pair) cells per term of one `_best_pairs` gather; windows are sized for
# at least 4 pairs, or a lone pair's buffers would fault in again on every call.
_GATHER = 2880
_GATHER_PAIRS = 32  # pairs per `_best_pairs` batch, which bounds its compatibility array

# Count of hard matching problems actually solved (enumeration or annealing).
# Identity self-products are closed-form and do not count. Not thread-safe;
# intended for sequential accounting in experiments.
_SOLVER_CALLS = 0


def matcher_call_count() -> int:
    return _SOLVER_CALLS


def reset_matcher_call_count() -> None:
    global _SOLVER_CALLS
    _SOLVER_CALLS = 0


def _note_solver_calls(count: int = 1) -> None:
    global _SOLVER_CALLS
    _SOLVER_CALLS += count


@dataclass(frozen=True, slots=True)
class MatchMatrix:
    """One-to-one node correspondence between an m-node and an n-node graph.

    `pairs` lists the assigned (row, col) couples, sorted; every row and column
    appears at most once and exactly min(m, n) pairs are assigned. Matches are
    immutable, hashable and equal when (rows, cols, pairs) are.
    """

    rows: int
    cols: int
    pairs: tuple

    def __post_init__(self):
        rows, cols = int(self.rows), int(self.cols)
        if rows < 0 or cols < 0:
            raise ValidationError("match dimensions must be non-negative")
        pairs = tuple(sorted((int(i), int(r)) for i, r in self.pairs))
        if len(pairs) != min(rows, cols):
            raise ValidationError(
                f"a match between {rows} and {cols} nodes must assign {min(rows, cols)} pairs, "
                f"got {len(pairs)}"
            )
        seen_i = set()
        seen_r = set()
        for i, r in pairs:
            if not (0 <= i < rows and 0 <= r < cols):
                raise ValidationError(f"pair ({i},{r}) out of range for a {rows}x{cols} match")
            if i in seen_i or r in seen_r:
                raise ValidationError(f"pair ({i},{r}) violates the one-to-one constraints")
            seen_i.add(i)
            seen_r.add(r)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def _own(cls, rows: int, cols: int, pairs: tuple) -> "MatchMatrix":
        """Keep a solver's pairs without the checks: for tuples of (int, int) pairs
        that are already sorted, in range and one-to-one, min(rows, cols) of them."""
        match = object.__new__(cls)
        object.__setattr__(match, "rows", rows)
        object.__setattr__(match, "cols", cols)
        object.__setattr__(match, "pairs", pairs)
        return match

    @classmethod
    @lru_cache(maxsize=None)
    def identity(cls, n: int) -> "MatchMatrix":
        """The identity match of order n, built once per order and shared."""
        return cls(n, n, [(i, i) for i in range(n)])


# Graduated assignment's one annealing and Sinkhorn schedule. Model files that
# predate it carry it as `ga_params`; `MatcherConfig.from_json` still reads that
# key but refuses any other value, so a custom schedule is never silently dropped.
_GA_SCHEDULE = {"beta_start": 0.5, "beta_rate": 1.075, "beta_max": 10.0,
                "sinkhorn_max_iters": 30, "sinkhorn_tol": 0.005, "assignment_rounds_max": 4}


def _fixed_schedule(doc) -> None:
    if {**_GA_SCHEDULE, **doc} != _GA_SCHEDULE:
        raise ValueError(f"graduated assignment runs one fixed schedule {_GA_SCHEDULE}, "
                         f"got {doc!r}")


@dataclass(frozen=True)
class MatcherConfig:
    """Solver selection: exact enumeration under a node-count cap, or graduated assignment."""

    method: str = "exact"
    exact_max_order: int = DEFAULT_EXACT_MAX_ORDER

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(f"unknown matcher method {self.method!r}")
        order = check_count("exact_max_order", self.exact_max_order, 1, _HARD_ENUM_LIMIT)
        object.__setattr__(self, "exact_max_order", order)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "MatcherConfig":
        config_value(doc, "ga_params", _fixed_schedule, None)
        return cls(**config_fields(doc, cls))


@dataclass(frozen=True)
class MatchResult:
    """A feasible correspondence plus its recomputed objective value."""

    value: float
    match: MatchMatrix
    exact: bool


def kernel_value(rx: Representation, ry: Representation, match: MatchMatrix) -> float:
    """Objective of one fixed correspondence: sum over assigned pairs (i->r, j->s)
    of dot(x_ij, y_rs), including diagonal node terms and both orientations of
    each undirected edge pair.

    Summed with `math.fsum`, so the value does not depend on pair enumeration
    order. Each term is a (1 x d)(d x 1) matrix product, which rounds exactly as
    `np.dot` of the two vectors does. Raises ValidationError when finite
    attributes give a value outside the float range.
    """
    if match.rows != rx.order or match.cols != ry.order:
        raise ValidationError(
            f"match is {match.rows}x{match.cols} but representations have orders "
            f"{rx.order} and {ry.order}"
        )
    rows, cols = np.array(match.pairs, dtype=np.intp).reshape(-1, 2).T
    ax = rx.cells[rows[:, None], rows][..., None, :]
    ay = ry.cells[cols[:, None], cols][..., :, None]
    try:
        value = math.fsum(np.matmul(ax, ay).ravel().tolist())
    except (OverflowError, ValueError):  # a partial sum overflowed, or inf - inf
        value = math.inf
    return _finite(value)


def _finite(value: float) -> float:
    """`value`, or ValidationError when a dot product of finite attributes overflowed."""
    if not math.isfinite(value):
        raise ValidationError("the dot product is not finite: attribute products overflow")
    return value


@lru_cache(maxsize=None)
def _injection_table(m: int, n: int) -> np.ndarray:
    """Flat positions into the (i, j, r, s) compatibility array of an m-node and an
    n-node graph (entry (i*m + j)*n*n + r*n + s holds dot(x_ij, y_rs), the layout
    of the one matrix product in `_best_pairs`), one column per injection of the
    smaller node set into the larger.

    Injection t assigns k = min(m, n) pairs (i_a, r_a), indexed by the smaller
    graph's node a. Both representations are symmetric, so the term of (a, b)
    equals the term of (b, a), and only the k(k+1)/2 terms with a <= b are kept:
    first the k diagonal terms (a, a) in order of a, then the terms a < b in
    row-major order, each at (i_a*m + i_b)*n*n + r_a*n + r_b. Injections follow
    the lexicographic order of the row permutation each completes to once both
    graphs are padded with isolated zero nodes to order max(m, n), the free rows
    taking the padded columns in ascending order. The read-only uint16 array (the
    largest position, 6,560, is at (9, 9)) is shaped (k(k+1)/2, injections):
    terms-major, for the scorer's walk.
    """
    k = min(m, n)
    count = math.perm(max(m, n), k)
    if m <= n:  # itertools order is already the order of the completions
        rows = np.arange(m, dtype=np.uint16)
        cols = np.fromiter(itertools.permutations(range(n), m), dtype=np.dtype((np.uint16, m)),
                           count=count)
    else:  # columns into rows, sorted once by the completed row permutation
        cols = np.arange(n, dtype=np.uint16)
        rows = np.fromiter(itertools.permutations(range(m), n), dtype=np.dtype((np.uint16, n)),
                           count=count)
        # free rows may all read n: two completions that agree up to a free row
        # give it the same padded column, so padded values never decide the order
        completed = np.full((count, m), n, dtype=np.uint16)
        completed[np.arange(count)[:, None], rows] = cols
        rows = rows[np.lexsort(completed.T[::-1])]
    # the a part (i_a*m*n*n + r_a*n) and the b part (i_b*n*n + r_b) of each
    # injection, read node-major as (k, injections) views; every term is
    # written straight into its row of the final layout
    a_part = (rows * (m * n * n) + cols * n).T
    b_part = (rows * (n * n) + cols).T
    table = np.empty((k * (k + 1) // 2, count), dtype=np.uint16)
    term_nodes = itertools.chain(((a, a) for a in range(k)), itertools.combinations(range(k), 2))
    for p, (a, b) in enumerate(term_nodes):
        np.add(a_part[a], b_part[b], out=table[p])
    table.flags.writeable = False
    return table


def _best_pairs(cells):
    """For each (cx, cy) of `cells`, all of one shape (m, n) with m, n >= 1, the
    assigned (row, col) pairs of the injection maximizing the summed dot(x_ij, y_rs)
    over its pairs (i, r), (j, s); ties go to the lexicographically smallest
    completed permutation (see `_injection_table`). Each pair gets the winner it
    gets alone (windows and kept terms: the README's exact-matcher note): its
    compatibilities are its own `np.dot`, with cx's off-diagonal cells doubled
    first (exact) so a term a < b stands for its mirror too; every injection sums
    the terms that are not +-0.0 for every pair (a NaN is kept) in the table's
    order, placed by the smaller graph's nodes, so injections that differ only in
    the zero nodes they match tie exactly; a later window wins only on a strictly
    larger score, and a NaN score never wins.
    """
    if len(cells) > _GATHER_PAIRS:
        return [pairs for start in range(0, len(cells), _GATHER_PAIRS)
                for pairs in _best_pairs(cells[start : start + _GATHER_PAIRS])]
    cx, cy = cells[0]
    m, n, d = cx.shape[0], cy.shape[0], cx.shape[2]
    k, batch = min(m, n), len(cells)
    table = _injection_table(m, n)
    count = table.shape[1]
    compat = np.empty((batch, m * m, n * n))
    window = min(count, _GATHER // max(batch, 4))
    for b, (cx, cy) in enumerate(cells):
        flat = cx.reshape(m * m, d)
        doubled = flat * 2.0
        doubled[:: m + 1] = flat[:: m + 1]  # the diagonal cells (i, i) stay single
        np.dot(doubled, cy.transpose(2, 0, 1).reshape(d, n * n), out=compat[b])
    kept = table
    if count * batch > _GATHER:  # smaller gathers cost less than the keep test
        # the indexed side's cell that each term's row reads in every injection:
        # x's i_a*m + i_b when m <= n, else y's r_a*n + r_b
        if m <= n:
            live = np.logical_or.reduce(compat, (0, 2))[table[:, 0] // (n * n)]
        else:
            live = np.logical_or.reduce(compat, (0, 1))[table[:, 0] % (n * n)]
        keep = np.flatnonzero(live)
        if len(keep) < len(live):
            kept = table.take(keep, 0)
    size = kept.shape[0]
    # one row per position; a lone pair's (positions, 1) view is contiguous already
    compat = np.ascontiguousarray(compat.reshape(batch, -1).T)
    # one buffer per call: a fresh array per window costs page faults once the
    # allocator returns it to the system; "clip" lets take fill it directly, and
    # every position is in range by construction
    terms, scores = np.empty((size, window, batch)), np.empty((window, batch))
    best, cols = [-np.inf] * batch, [0] * batch
    for lo in range(0, count, window):
        part = kept[:, lo : lo + window]
        if part.shape[1] < window:  # the last window: contiguous views of the buffers' start
            window = part.shape[1]
            terms = terms.ravel()[: size * window * batch].reshape(size, window, batch)
            scores = scores.ravel()[: window * batch].reshape(window, batch)
        np.take(compat, part, axis=0, out=terms, mode="clip").sum(axis=0, out=scores)
        for b, t in enumerate(scores.argmax(axis=0).tolist()):
            score = scores.item(t, b)  # a float: no numpy scalar per pair
            if score > best[b]:
                best[b], cols[b] = score, lo + t
    # the first k terms of the full table are the diagonal ones, at
    # i_a*(m + 1)*n*n + r_a*(n + 1); k Python divisions cost less than numpy's
    # on a row this short
    step = (m + 1) * n * n
    return [tuple(sorted((p // step, p % step // (n + 1)) for p in table[:k, c].tolist()))
            for c in cols]


def _ga_soft(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Graduated assignment on raw cell arrays of orders m, n >= 1; returns the
    final (m, n) soft matrix over the real rows and columns.

    Softassign with one slack row and one slack column: compatibilities
    Q_ir = sum_js M_js dot(x_ij, y_rs) + dot(x_ii, y_rr) are exponentiated at
    inverse temperature beta, Sinkhorn-balanced over the real rows and columns,
    and beta grows geometrically (`_GA_SCHEDULE`; the README's GA note has the
    stopping rules). A round is a deterministic function of Q at a fixed beta, so
    once a round's Q equals the previous one bit for bit, the rest of that beta's
    rounds are skipped: the soft matrix in the buffer is what they would give.
    Each sweep's row sums test it and divide the next sweep's rows; columns need
    no test, as each sums to one within a few ulps after the column division.
    """
    m, n = cx.shape[0], cy.shape[0]
    compat = np.tensordot(cx, cy, axes=([2], [2]))  # (m, m, n, n)
    node_comp = np.einsum("iirr->ir", compat)
    compat = np.ascontiguousarray(compat.transpose(0, 2, 1, 3))  # (i, r, j, s)
    soft = np.full((m + 1, n + 1), 1.0 / (max(m, n) + 1.0))
    real, rows, cols = soft[:m, :n], soft[:m], soft[:, :n]
    q, q_prev = np.empty((m, n)), np.empty((m, n))
    row_sums, col_sums = np.empty(m), np.empty(n)
    divisors = row_sums[:, None]
    tol = _GA_SCHEDULE["sinkhorn_tol"]
    beta = _GA_SCHEDULE["beta_start"]
    while beta <= _GA_SCHEDULE["beta_max"] * (1 + 1e-12):
        last_shift = None
        for _ in range(_GA_SCHEDULE["assignment_rounds_max"]):
            q, q_prev = q_prev, q
            # bit-identical to the (i, j, r, s) contraction only while `real` is a
            # view: a contiguous copy lets einsum merge the j and s axes
            np.einsum("irjs,js->ir", compat, real, out=q)
            q += node_comp
            shift = max(float(np.maximum.reduce(q, None)), 0.0)
            if shift == last_shift and (q == q_prev).all():
                break
            last_shift = shift
            np.subtract(q, shift, out=real)
            real *= beta
            np.exp(real, out=real)
            slack = math.exp(-beta * shift) if beta * shift < 700 else 0.0
            soft[m, :] = slack
            soft[:, n] = slack
            np.maximum(soft, 1e-300, out=soft)
            np.add.reduce(rows, 1, None, row_sums)
            for _ in range(_GA_SCHEDULE["sinkhorn_max_iters"]):
                np.divide(rows, divisors, rows)
                np.divide(cols, np.add.reduce(cols, 0, None, col_sums), cols)
                np.add.reduce(rows, 1, None, row_sums)
                if all(abs(v - 1.0) <= tol for v in row_sums.tolist()):
                    break
        beta *= _GA_SCHEDULE["beta_rate"]
    return real


def _ga_soft_pairs(cx: np.ndarray, cy: np.ndarray):
    """Graduated assignment core on raw cell arrays of orders m, n >= 1; returns
    assigned (row, col) pairs.

    The soft matrix of `_ga_soft` is discretized by greedy maximum selection
    down to min(m, n) pairs. When either array is all zero (the first step of
    every fit, from zero weights), every compatibility is zero and every real
    entry of the annealed soft matrix is equal, so greedy selection takes the
    diagonal: the pairs (i, i) are returned without annealing.
    """
    m, n = cx.shape[0], cy.shape[0]
    if not (cx.any() and cy.any()):
        return tuple((i, i) for i in range(min(m, n)))
    pick = _ga_soft(cx, cy).copy()
    pairs = []
    for _ in range(min(m, n)):
        i, r = np.unravel_index(int(np.argmax(pick)), pick.shape)
        pairs.append((int(i), int(r)))
        pick[i, :] = -np.inf
        pick[:, r] = -np.inf
    return tuple(sorted(pairs))


def _solve(problems) -> list:
    """Assigned (row, col) pairs of a best correspondence for each (cx, cy, cfg) of
    `problems`: two cell arrays and the matcher that solves them.

    Callers check every pair first (attribute dimensions, encodings, then the
    exact cap: see `_encodings`), so nothing is solved for a batch with a bad
    pair. Both solvers take the arrays as they are. Exact pairs with no empty
    side are grouped by shape (m, n), and each group is scored by one
    `_best_pairs` call, whose winners are those of scoring each pair alone;
    graduated assignment runs pair by pair. Each pair counts as one solver call.
    """
    _note_solver_calls(len(problems))
    found, groups = [()] * len(problems), {}
    for index, (cx, cy, cfg) in enumerate(problems):
        m, n = cx.shape[0], cy.shape[0]
        if not (m and n):
            continue
        if cfg.method == "graduated":
            found[index] = _ga_soft_pairs(cx, cy)
        else:
            groups.setdefault((m, n), []).append(index)
    for group in groups.values():
        for index, pairs in zip(group, _best_pairs([problems[i][:2] for i in group])):
            found[index] = pairs
    return found


def _encodings(side: Representation, graphs, cfg: MatcherConfig) -> list:
    """The encoding of each graph of `graphs` as the second side of a pair with
    the encoded `side`, each checked in order before any pair is solved:
    attribute dimensions, the graph's encoding, then the exact cap. The first
    bad graph raises the error it raises alone. Every matcher entry checks its
    pairs here, after encoding its first side."""
    reps = []
    for g in graphs:
        if side.attr_dim != g.attr_dim:
            raise ValidationError(f"attribute dimensions differ: {side.attr_dim} vs {g.attr_dim}")
        reps.append(to_representation(g))
        if cfg.method == "exact" and max(side.order, g.order) > cfg.exact_max_order:
            raise CapacityError(f"orders ({side.order}, {g.order}) exceed the exact cap "
                                f"{cfg.exact_max_order}; use the graduated matcher")
    return reps


def _aligned(order: int, ry: Representation, pairs) -> Representation:
    """`ry` in the index space of an order-`order` side matched to it by `pairs`:
    the cells of each matched node pair moved to its partners' place, zero
    elsewhere.

    All of ry's cells are placed by one scatter: a matched node goes to its
    partner's index, an unmatched one (ry larger than `order`) past the first
    `order` indices, which are the ones kept."""
    partners = list(range(order, order + ry.order))
    for i, r in pairs:
        partners[r] = i
    rows = np.array(partners, dtype=np.intp)
    placed = np.zeros((order + ry.order, order + ry.order, ry.attr_dim))
    placed[rows[:, None], rows] = ry.cells
    return Representation._own(placed[:order, :order].copy())  # placed from checked cells


def exact_sdp(x: AttributedGraph, y: AttributedGraph, max_order: int = DEFAULT_EXACT_MAX_ORDER) -> MatchResult:
    """Exact dot product by enumerating all node correspondences.

    Every injection of the smaller graph's nodes into the larger graph's is
    scored. Ties go to the injection whose completion to a permutation (both
    graphs padded with isolated zero nodes to the larger order, free rows taking
    the padded columns in ascending order) is lexicographically smallest.
    """
    return _results(x, [y], MatcherConfig(exact_max_order=max_order))[0]


def ga_sdp(x: AttributedGraph, y: AttributedGraph) -> MatchResult:
    """Heuristic dot product via graduated assignment.

    Always returns a feasible correspondence, so the value is a lower bound on
    the exact optimum; it is recomputed from the hard match.
    """
    return _results(x, [y], MatcherConfig("graduated"))[0]


def sdp(x: AttributedGraph, y: AttributedGraph, cfg: MatcherConfig | None = None) -> MatchResult:
    """Dot product under `cfg`'s matcher: the result of `exact_sdp(x, y,
    cfg.exact_max_order)` or `ga_sdp(x, y)`, solved by one `_results` call.

    The self-product of a graph with itself (same object) is closed-form: the
    identity correspondence is optimal, so no matching problem is solved. Its
    value is computed once per graph and kept on it.
    """
    cfg = cfg or MatcherConfig()
    if x is y:
        match = MatchMatrix.identity(x.order)
        if x._self_product is None:
            rep = to_representation(x)
            object.__setattr__(x, "_self_product", kernel_value(rep, rep, match))
        return MatchResult(x._self_product, match, True)
    return _results(x, [y], cfg)[0]


def optimal_align(rw: Representation, x: AttributedGraph, cfg: MatcherConfig | None = None) -> Representation:
    """Representation of `x` in the index space of `rw`, optimally aligned with it.

    The result has the order of `rw`: if `x` is smaller it is padded with zero
    nodes, if larger only the best-matching nodes are kept. The flattened dot
    product of `rw` with the result equals the (dispatched) dot product value.
    """
    cfg = cfg or MatcherConfig()
    rx, = _encodings(rw, [x], cfg)
    return _aligned(rw.order, rx, _solve([(rw.cells, rx.cells, cfg)])[0])


def induced_distance(x: AttributedGraph, y: AttributedGraph, cfg: MatcherConfig | None = None) -> float:
    """Distance sqrt(x.x - 2 x.y + y.y) induced by the dot product.

    With exact matching this is the minimal Euclidean distance between
    representations of the two graphs after padding the smaller to the larger
    order: a metric on isomorphism classes of each fixed order. Because padding
    is pairwise, chains through an intermediate graph strictly larger than both
    endpoints can violate the triangle inequality when attribute dot products
    go negative. With the graduated matcher the cross term is a lower bound, so
    the radicand may be biased upward; it is clamped at zero either way.
    """
    return _distances(x, [y], cfg or MatcherConfig())[0]


def _distances(x: AttributedGraph, ys, cfg: MatcherConfig) -> list:
    """`induced_distance(x, y, cfg)` for each y of `ys`: x's self-product, the cross
    product with every y but x through `_results`, then each y's self-product."""
    sxx = sdp(x, x, cfg).value
    cross = iter(_results(x, [y for y in ys if y is not x], cfg))
    return [math.sqrt(max(0.0, sxx - 2.0 * (sxx if y is x else next(cross).value)
                          + sdp(y, y, cfg).value)) for y in ys]


def _results(x: AttributedGraph, ys, cfg: MatcherConfig) -> list:
    """`sdp(x, y, cfg)` for each y of `ys`, solved together, each as a cross
    product (a y that is x is solved, not taken in closed form).

    x is encoded first, then every y is checked (`_encodings`), in order and
    before any is solved, so the first bad y raises the error it raises alone.
    The pairs are solved in one `_solve` batch, whose winners are those of
    solving each pair alone; each counts as one solver call, and every value is
    recomputed from its correspondence by `kernel_value`.
    """
    rx = to_representation(x)
    reps = _encodings(rx, ys, cfg)
    results = []
    for ry, pairs in zip(reps, _solve([(rx.cells, ry.cells, cfg) for ry in reps])):
        match = MatchMatrix._own(rx.order, ry.order, pairs)
        results.append(MatchResult(kernel_value(rx, ry, match), match, cfg.method == "exact"))
    return results
