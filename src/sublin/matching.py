"""Correspondence-maximized dot product between attributed graphs.

The similarity of two graphs is the maximum, over one-to-one node
correspondences, of the summed dot products between corresponding node and
induced edge attributes. `sdp`, `exact_sdp`, `ga_sdp` and `optimal_align` all
reach one core, `_match`, which takes the dense cells of two graphs and returns
the assigned node pairs from one of two solvers: exhaustive enumeration of the
injections of the smaller node set into the larger (exact, small orders) or
graduated assignment (heuristic, any order). Values returned to callers are
always recomputed from the hard correspondence, never taken from solver
internals.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
import numpy as np

from .exceptions import CapacityError, SizeError, ValidationError, config_value, integer
from .graphs import AttributedGraph, Representation, to_representation

DEFAULT_EXACT_MAX_ORDER = 8
# Orders above this are never enumerated. The enumerator keeps, for the life of
# the process, one uint16 table of P(max, min) x min(min + 1)/2 flat positions
# per pair of orders (m, n) it has seen (`_injection_table`): 10.6 MB for every
# (m, n) up to 8 together, 32.7 MB at (9, 9), 26.1 MB each at (9, 8) and (8, 9),
# and 111 MB for every pair with an order-9 side together (122 MB for all 81).
# The cache is not bounded below its 81 possible keys: evicting a table would
# only rebuild it on the next call with those orders.
_HARD_ENUM_LIMIT = 9
# Injections scored per gather, at most: each table is split into chunks of the
# largest injection count that divides its total and does not exceed this,
# which bounds the per-call buffers (0.16 MB of terms at order 7). 720 = 6!
# divides n! from order 6 up, so equal orders always walk full chunks of 720.
_ENUM_CHUNK = 720

# Count of hard matching problems actually solved (enumeration or annealing).
# Identity self-products are closed-form and do not count. Not thread-safe;
# intended for sequential accounting in experiments.
_SOLVER_CALLS = 0


def matcher_call_count() -> int:
    return _SOLVER_CALLS


def reset_matcher_call_count() -> None:
    global _SOLVER_CALLS
    _SOLVER_CALLS = 0


def _note_solver_call() -> None:
    global _SOLVER_CALLS
    _SOLVER_CALLS += 1


class MatchMatrix:
    """One-to-one node correspondence between an m-node and an n-node graph.

    `pairs` lists the assigned (row, col) couples; every row and column appears
    at most once and exactly min(m, n) pairs are assigned.
    """

    __slots__ = ("rows", "cols", "pairs")

    def __init__(self, rows: int, cols: int, pairs):
        rows, cols = int(rows), int(cols)
        if rows < 0 or cols < 0:
            raise ValidationError("match dimensions must be non-negative")
        pairs = tuple(sorted((int(i), int(r)) for i, r in pairs))
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

    def __setattr__(self, name, value):
        raise AttributeError("MatchMatrix is immutable")

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
    def identity(cls, n: int) -> "MatchMatrix":
        return cls(n, n, [(i, i) for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, MatchMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.pairs) == (other.rows, other.cols, other.pairs)

    def __repr__(self):
        return f"MatchMatrix({self.rows}x{self.cols}, pairs={list(self.pairs)})"


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
        if self.method not in ("exact", "graduated"):
            raise ValidationError(f"unknown matcher method {self.method!r}")
        if type(self.exact_max_order) is bool or not isinstance(self.exact_max_order, int):
            raise ValidationError(f"exact_max_order must be an integer, got {self.exact_max_order!r}")
        if self.exact_max_order < 1:
            raise ValidationError("exact_max_order must be at least 1")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "MatcherConfig":
        config_value(doc, "ga_params", _fixed_schedule, None)
        return cls(
            method=config_value(doc, "method", str, "exact"),
            exact_max_order=config_value(doc, "exact_max_order", integer, DEFAULT_EXACT_MAX_ORDER),
        )


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
        raise SizeError(
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
    largest position, 6,560, is at (9, 9)) is shaped (chunks, k(k+1)/2,
    injections per chunk): terms-major, for the scorer's walk.
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
    chunk = next(c for c in range(min(count, _ENUM_CHUNK), 0, -1) if count % c == 0)
    # the a part (i_a*m*n*n + r_a*n) and the b part (i_b*n*n + r_b) of each
    # injection, read node-major as (k, chunks, chunk) views; every term is
    # written straight into its slot of the final layout
    a_part = (rows * (m * n * n) + cols * n).T.reshape(k, -1, chunk)
    b_part = (rows * (n * n) + cols).T.reshape(k, -1, chunk)
    table = np.empty((count // chunk, k * (k + 1) // 2, chunk), dtype=np.uint16)
    term_nodes = itertools.chain(((a, a) for a in range(k)), itertools.combinations(range(k), 2))
    for p, (a, b) in enumerate(term_nodes):
        np.add(a_part[a], b_part[b], out=table[:, p])
    table.flags.writeable = False
    return table


def _best_pairs(cx: np.ndarray, cy: np.ndarray):
    """Assigned (row, col) pairs of the injection maximizing the summed dot(x_ij, y_rs)
    over its pairs (i, r), (j, s); ties go to the lexicographically smallest
    completed permutation (see `_injection_table`).

    Both cell arrays must have order at least 1. The compatibilities are one
    (m*m, d) x (d, n*n) matrix product, read in place as the (i, j, r, s) array
    the table indexes, with the off-diagonal cells of cx doubled first (x2 is
    exact), so each term a < b stands for itself and its mirror (b, a). The
    k(k+1)/2 terms of one chunk of injections at a time are gathered through the
    cached table into one buffer and summed along the terms axis, which adds them
    in the table's order, the same for every injection; the first maximizer of a
    chunk wins, and a later chunk only on a strictly larger score. Terms are
    placed by the smaller graph's nodes, so injections that differ only in which
    zero nodes they match sum the same terms in the same places and tie exactly,
    as the padded permutations did.
    """
    m, n = cx.shape[0], cy.shape[0]
    d = cx.shape[2]
    flat = cx.reshape(m * m, d)
    doubled = flat * 2.0
    doubled[:: m + 1] = flat[:: m + 1]  # the diagonal cells (i, i) stay single
    compat = np.dot(doubled, cy.transpose(2, 0, 1).reshape(d, n * n)).ravel()
    blocks = _injection_table(m, n)
    # one buffer per call: a fresh array per chunk costs page faults once the
    # allocator returns it to the system; "clip" lets take fill it directly, and
    # every position is in range by construction
    terms = np.empty(blocks.shape[1:])
    scores = np.empty(blocks.shape[2])
    best_score = -np.inf
    best_row = blocks[0, :, 0]
    for block in blocks:
        np.take(compat, block, out=terms, mode="clip").sum(axis=0, out=scores)
        t = int(np.argmax(scores))
        if scores[t] > best_score:
            best_score = float(scores[t])
            best_row = block[:, t]
    # the first k terms are the diagonal ones, at i_a*(m + 1)*n*n + r_a*(n + 1)
    i_a, r_a = np.divmod(best_row[: min(m, n)], (m + 1) * n * n)
    return tuple(sorted(zip(i_a.tolist(), (r_a // (n + 1)).tolist())))


def _ga_soft(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Graduated assignment on raw cell arrays of orders m, n >= 1; returns the
    final (m, n) soft matrix over the real rows and columns.

    Softassign with one slack row and one slack column: compatibilities
    Q_ir = sum_js M_js dot(x_ij, y_rs) + dot(x_ii, y_rr) are exponentiated at
    inverse temperature beta, row/column-balanced by Sinkhorn iterations over the
    real rows and columns, and beta grows geometrically (`_GA_SCHEDULE`).

    A Sinkhorn pass stops after the first sweep whose row sums and column sums
    all lie within `sinkhorn_tol` of one (a NaN row error never passes; a NaN
    column error does not hold the pass open), or after `sinkhorn_max_iters`
    sweeps. The row sums that test a sweep are the divisors of the next sweep's
    row step, and column sums are taken for the test only once the rows pass.
    A round is a deterministic function of Q at a fixed beta, so once a round's
    Q equals the previous round's bit for bit, the soft matrix already in the
    buffer is what every remaining round at that beta would produce, and they
    are skipped.

    The loop keeps the bits of the first-written schedule with less numpy
    dispatch. The compatibilities are stored once per call in (i, r, j, s)
    layout, which einsum contracts faster than (i, j, r, s); it sums in the same
    order only while `real` stays the strided view `soft[:m, :n]` (a contiguous
    copy lets einsum merge the j and s axes and changes the rounding). A sweep
    is four ufunc calls into buffers allocated once per call: the row sums
    (whose (m, 1) view is the row divisor), the row division, the column sums
    and the column division. The row test reads the row sums as Python floats,
    the same IEEE comparison per element, under which a NaN still fails. The
    column test runs once per pass and stays in numpy: `max` carries a NaN
    column error on to `not ... > tol`, which lets the pass end, where the row
    test's form `all(... <= tol)` would hold it open.
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
            # bit-identical to the (i, j, r, s) contraction only while `real` is a view
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
                np.divide(rows, divisors, out=rows)
                np.divide(cols, np.add.reduce(cols, 0, None, col_sums), out=cols)
                np.add.reduce(rows, 1, None, row_sums)
                if (all(abs(v - 1.0) <= tol for v in row_sums.tolist())
                        and not np.abs(cols.sum(axis=0) - 1.0).max() > tol):
                    break
        beta *= _GA_SCHEDULE["beta_rate"]
    return real


def _ga_soft_pairs(cx: np.ndarray, cy: np.ndarray):
    """Graduated assignment core on raw cell arrays of orders m, n >= 1; returns
    assigned (row, col) pairs.

    The soft matrix of `_ga_soft` is discretized by greedy maximum selection
    down to min(m, n) pairs.
    """
    m, n = cx.shape[0], cy.shape[0]
    pick = _ga_soft(cx, cy).copy()
    pairs = []
    for _ in range(min(m, n)):
        i, r = np.unravel_index(int(np.argmax(pick)), pick.shape)
        pairs.append((int(i), int(r)))
        pick[i, :] = -np.inf
        pick[:, r] = -np.inf
    return tuple(sorted(pairs))


def _match(cx: np.ndarray, cy: np.ndarray, cfg: MatcherConfig):
    """Assigned (row, col) pairs of a best correspondence between two cell arrays.

    Exact enumeration raises CapacityError when the larger order exceeds
    `cfg.exact_max_order` (or the enumerator's own limit); graduated assignment
    works on any orders. Both solvers take the arrays as they are. Counts as one
    solver call.
    """
    m, n = cx.shape[0], cy.shape[0]
    cap = min(cfg.exact_max_order, _HARD_ENUM_LIMIT)
    if cfg.method == "exact" and max(m, n) > cap:
        raise CapacityError(
            f"orders ({m}, {n}) exceed the exact cap {cap}; use the graduated matcher"
        )
    _note_solver_call()
    if min(m, n) == 0:
        return ()
    if cfg.method == "graduated":
        return _ga_soft_pairs(cx, cy)
    return _best_pairs(cx, cy)


def _check_dims(a, b) -> None:
    if a.attr_dim != b.attr_dim:
        raise ValidationError(f"attribute dimensions differ: {a.attr_dim} vs {b.attr_dim}")


def _sdp(x: AttributedGraph, y: AttributedGraph, cfg: MatcherConfig) -> MatchResult:
    _check_dims(x, y)
    rx, ry = to_representation(x), to_representation(y)
    match = MatchMatrix._own(x.order, y.order, _match(rx.cells, ry.cells, cfg))
    return MatchResult(kernel_value(rx, ry, match), match, cfg.method == "exact")


def exact_sdp(x: AttributedGraph, y: AttributedGraph, max_order: int = DEFAULT_EXACT_MAX_ORDER) -> MatchResult:
    """Exact dot product by enumerating all node correspondences.

    Every injection of the smaller graph's nodes into the larger graph's is
    scored. Ties go to the injection whose completion to a permutation (both
    graphs padded with isolated zero nodes to the larger order, free rows taking
    the padded columns in ascending order) is lexicographically smallest.
    """
    return _sdp(x, y, MatcherConfig(exact_max_order=max_order))


def ga_sdp(x: AttributedGraph, y: AttributedGraph) -> MatchResult:
    """Heuristic dot product via graduated assignment.

    Always returns a feasible correspondence, so the value is a lower bound on
    the exact optimum; it is recomputed from the hard match.
    """
    return _sdp(x, y, MatcherConfig("graduated"))


def sdp(x: AttributedGraph, y: AttributedGraph, cfg: MatcherConfig | None = None) -> MatchResult:
    """Dot product dispatch: exact under the order cap, graduated otherwise.

    The self-product of a graph with itself (same object) is closed-form: the
    identity correspondence is optimal, so no matching problem is solved. Its
    value is computed once per graph and kept on it.
    """
    cfg = cfg or MatcherConfig()
    if x is y:
        match = _identity(x.order)
        if x._self_product is None:
            rep = to_representation(x)
            object.__setattr__(x, "_self_product", kernel_value(rep, rep, match))
        return MatchResult(x._self_product, match, True)
    if cfg.method == "exact":
        return exact_sdp(x, y, cfg.exact_max_order)
    return ga_sdp(x, y)


@lru_cache(maxsize=None)
def _identity(order: int) -> MatchMatrix:
    """The identity match of one order, built once: every self-product reuses it."""
    return MatchMatrix.identity(order)


def optimal_align(rw: Representation, x: AttributedGraph, cfg: MatcherConfig | None = None) -> Representation:
    """Representation of `x` in the index space of `rw`, optimally aligned with it.

    The result has the order of `rw`: if `x` is smaller it is padded with zero
    nodes, if larger only the best-matching nodes are kept. The flattened dot
    product of `rw` with the result equals the (dispatched) dot product value.
    """
    _check_dims(rw, x)
    rx = to_representation(x)
    aligned = np.zeros((rw.order, rw.order, rw.attr_dim))
    pairs = _match(rw.cells, rx.cells, cfg or MatcherConfig())
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    aligned[rows[:, None], rows] = rx.cells[cols[:, None], cols]
    return Representation._own(aligned)  # gathered from checked cells


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
    cfg = cfg or MatcherConfig()
    sxx = sdp(x, x, cfg).value
    syy = sdp(y, y, cfg).value
    sxy = sdp(x, y, cfg).value
    return math.sqrt(max(0.0, sxx - 2.0 * sxy + syy))
