"""Correspondence-maximized dot product between attributed graphs.

The similarity of two graphs is the maximum, over one-to-one node
correspondences, of the summed dot products between corresponding node and
induced edge attributes. `sdp`, `exact_sdp`, `ga_sdp` and `optimal_align` all
reach one core, `_match`, which takes the dense cells of two graphs and returns
the assigned node pairs from one of two solvers: exhaustive permutation
enumeration (exact, small orders) or graduated assignment (heuristic, any
order). Values returned to callers are always recomputed from the hard
correspondence, never taken from solver internals.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
import numpy as np

from .exceptions import CapacityError, SizeError, ValidationError, config_value
from .graphs import AttributedGraph, Representation, to_representation

DEFAULT_EXACT_MAX_ORDER = 8
# Orders above this are never enumerated. The enumerator keeps, for the life of
# the process, one uint16 table of n! x n x n flat positions per order it has
# seen (`_pair_index`, 2 n! n^2 bytes): 52 kB at order 6, 0.49 MB at 7, 5.2 MB
# at 8 and 59 MB at 9, plus about 20 MB of temporaries while the order-9 table
# is built.
_HARD_ENUM_LIMIT = 9
# Permutations scored per gather; bounds the per-call buffers (0.3 MB of terms
# at order 7). 720 = 6! divides n! from order 6 up, so every chunk is full.
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
    def identity(cls, n: int) -> "MatchMatrix":
        return cls(n, n, [(i, i) for i in range(n)])

    def as_array(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.int8)
        for i, r in self.pairs:
            out[i, r] = 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MatchMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.pairs) == (other.rows, other.cols, other.pairs)

    def __repr__(self):
        return f"MatchMatrix({self.rows}x{self.cols}, pairs={list(self.pairs)})"


@dataclass(frozen=True)
class GaParams:
    """Annealing schedule and normalization knobs for graduated assignment."""

    beta_start: float = 0.5
    beta_rate: float = 1.075
    beta_max: float = 10.0
    sinkhorn_max_iters: int = 30
    sinkhorn_tol: float = 0.005
    assignment_rounds_max: int = 4

    def __post_init__(self):
        if self.beta_start <= 0:
            raise ValidationError("beta_start must be positive")
        if self.beta_rate <= 1:
            raise ValidationError("beta_rate must exceed 1")
        if self.beta_max <= self.beta_start:
            raise ValidationError("beta_max must exceed beta_start")
        for name in ("sinkhorn_max_iters", "assignment_rounds_max"):
            count = getattr(self, name)
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ValidationError(f"{name!r} must be an integer of at least 1, got {count!r}")
        if self.sinkhorn_tol <= 0:
            raise ValidationError("sinkhorn_tol must be positive")


@dataclass(frozen=True)
class MatcherConfig:
    """Solver selection: exact enumeration under a node-count cap, or graduated assignment."""

    method: str = "exact"
    exact_max_order: int = DEFAULT_EXACT_MAX_ORDER
    ga_params: GaParams = field(default_factory=GaParams)

    def __post_init__(self):
        if self.method not in ("exact", "graduated"):
            raise ValidationError(f"unknown matcher method {self.method!r}")
        if self.exact_max_order < 1:
            raise ValidationError("exact_max_order must be at least 1")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "MatcherConfig":
        return cls(
            method=config_value(doc, "method", str, "exact"),
            exact_max_order=config_value(doc, "exact_max_order", int, DEFAULT_EXACT_MAX_ORDER),
            ga_params=config_value(doc, "ga_params", _ga_params_from_json, GaParams()),
        )


def _ga_params_from_json(doc: dict) -> GaParams:
    unknown = sorted(set(doc) - {f.name for f in fields(GaParams)})
    if unknown:
        raise ValidationError(f"unknown ga_params key(s) {unknown}")
    return GaParams(**doc)


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
    if not math.isfinite(value):
        raise ValidationError("the dot product is not finite: attribute products overflow")
    return value


@lru_cache(maxsize=16)
def _pair_index(n: int) -> np.ndarray:
    """Flat positions into an order-n compatibility array laid out as (i, r, j, s):
    row k holds table[k, i, j] = ((i*n + p(i))*n + j)*n + p(j) for the k-th
    permutation p of 0..n-1 in lexicographic order. Read-only, n! x n x n uint16
    (the largest position, n**4 - 1, is 6,560 at order 9)."""
    perms = np.fromiter(itertools.permutations(range(n)), dtype=np.dtype((np.uint16, n)),
                        count=math.factorial(n))
    row = np.arange(n, dtype=np.uint16) * n + perms  # i*n + p(i)
    table = (row * (n * n))[:, :, None] + row[:, None, :]
    table.flags.writeable = False
    return table


def _pad_cells(cells: np.ndarray, n: int) -> np.ndarray:
    m, _, d = cells.shape
    if m == n:
        return cells
    out = np.zeros((n, n, d))
    out[:m, :m] = cells
    return out


def _best_permutation(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Lexicographically smallest permutation maximizing sum_ij dot(x_ij, y_p(i)p(j)).

    Both cell arrays must share the same order n, at least 1. The n x n terms of
    `_ENUM_CHUNK` permutations at a time are gathered through the cached
    `_pair_index(n)` table into one buffer and summed in that (i, j) layout; the
    first maximizer of a chunk wins, and a later chunk only on a strictly larger
    score. The winning permutation is decoded from its table row.
    """
    n = cx.shape[0]
    # compat[((i*n + r)*n + j)*n + s] = dot(x_ij, y_rs)
    compat = np.tensordot(cx, cy, axes=([2], [2])).transpose(0, 2, 1, 3).ravel()
    table = _pair_index(n)
    rows = min(_ENUM_CHUNK, table.shape[0])
    # one buffer per call: a fresh array per chunk costs page faults once the
    # allocator returns it to the system; "clip" lets take fill it directly, and
    # every position is in range by construction
    terms = np.empty((rows, n, n))
    best_score = -np.inf
    best_row = table[0]
    for block in table.reshape(-1, rows, n, n):
        scores = np.take(compat, block, out=terms, mode="clip").sum(axis=(1, 2))
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score = float(scores[k])
            best_row = block[k]
    return best_row[:, 0] // (n * n) - np.arange(n) * n


def _ga_soft(cx: np.ndarray, cy: np.ndarray, params: GaParams) -> np.ndarray:
    """Graduated assignment on raw cell arrays of orders m, n >= 1; returns the
    final (m, n) soft matrix over the real rows and columns.

    Softassign with one slack row and one slack column: compatibilities
    Q_ir = sum_js M_js dot(x_ij, y_rs) + dot(x_ii, y_rr) are exponentiated at
    inverse temperature beta, row/column-balanced by Sinkhorn iterations over the
    real rows and columns, and beta grows geometrically.

    A Sinkhorn pass stops after the first sweep whose row sums and column sums
    all lie within `sinkhorn_tol` of one (a NaN row error never passes; a NaN
    column error does not hold the pass open), or after `sinkhorn_max_iters`
    sweeps. The row sums that test a sweep are the divisors of the next sweep's
    row step, and column sums are taken for the test only once the rows pass.
    A round is a deterministic function of Q at a fixed beta, so once a round's
    Q equals the previous round's bit for bit, the soft matrix already in the
    buffer is what every remaining round at that beta would produce, and they
    are skipped.
    """
    m, n = cx.shape[0], cy.shape[0]
    compat = np.tensordot(cx, cy, axes=([2], [2]))  # (m, m, n, n)
    node_comp = np.einsum("iirr->ir", compat)
    soft = np.full((m + 1, n + 1), 1.0 / (max(m, n) + 1.0))
    real, rows, cols = soft[:m, :n], soft[:m], soft[:, :n]
    q, q_prev = np.empty((m, n)), np.empty((m, n))
    tol = params.sinkhorn_tol
    beta = params.beta_start
    while beta <= params.beta_max * (1 + 1e-12):
        last_shift = None
        for _ in range(params.assignment_rounds_max):
            q, q_prev = q_prev, q
            np.einsum("ijrs,js->ir", compat, real, out=q)
            q += node_comp
            shift = max(float(q.max()), 0.0)
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
            row_sums = rows.sum(axis=1, keepdims=True)
            for _ in range(params.sinkhorn_max_iters):
                rows /= row_sums
                cols /= cols.sum(axis=0)
                row_sums = rows.sum(axis=1, keepdims=True)
                if (np.abs(row_sums - 1.0).max() <= tol
                        and not np.abs(cols.sum(axis=0) - 1.0).max() > tol):
                    break
        beta *= params.beta_rate
    return real


def _ga_soft_pairs(cx: np.ndarray, cy: np.ndarray, params: GaParams):
    """Graduated assignment core on raw cell arrays of orders m, n >= 1; returns
    assigned (row, col) pairs.

    The soft matrix of `_ga_soft` is discretized by greedy maximum selection
    down to min(m, n) pairs.
    """
    m, n = cx.shape[0], cy.shape[0]
    pick = _ga_soft(cx, cy, params).copy()
    pairs = []
    for _ in range(min(m, n)):
        i, r = np.unravel_index(int(np.argmax(pick)), pick.shape)
        pairs.append((int(i), int(r)))
        pick[i, :] = -np.inf
        pick[:, r] = -np.inf
    return tuple(sorted(pairs))


def _match(cx: np.ndarray, cy: np.ndarray, cfg: MatcherConfig):
    """Assigned (row, col) pairs of a best correspondence between two cell arrays.

    Exact enumeration pads both arrays with isolated zero nodes to the larger
    order, so it raises CapacityError above `cfg.exact_max_order` (and above
    the enumerator's own limit); graduated assignment works on the arrays as
    they are. Counts as one solver call.
    """
    m, n = cx.shape[0], cy.shape[0]
    k = max(m, n)
    cap = min(cfg.exact_max_order, _HARD_ENUM_LIMIT)
    if cfg.method == "exact" and k > cap:
        raise CapacityError(
            f"orders ({m}, {n}) exceed the exact cap {cap}; use the graduated matcher"
        )
    _note_solver_call()
    if min(m, n) == 0:
        return ()
    if cfg.method == "graduated":
        return _ga_soft_pairs(cx, cy, cfg.ga_params)
    perm = _best_permutation(_pad_cells(cx, k), _pad_cells(cy, k))
    return tuple((i, int(perm[i])) for i in range(m) if perm[i] < n)  # drop padded nodes


def _check_dims(a, b) -> None:
    if a.attr_dim != b.attr_dim:
        raise ValidationError(f"attribute dimensions differ: {a.attr_dim} vs {b.attr_dim}")


def _sdp(x: AttributedGraph, y: AttributedGraph, cfg: MatcherConfig) -> MatchResult:
    _check_dims(x, y)
    rx, ry = to_representation(x), to_representation(y)
    match = MatchMatrix(x.order, y.order, _match(rx.cells, ry.cells, cfg))
    return MatchResult(kernel_value(rx, ry, match), match, cfg.method == "exact")


def exact_sdp(x: AttributedGraph, y: AttributedGraph, max_order: int = DEFAULT_EXACT_MAX_ORDER) -> MatchResult:
    """Exact dot product by enumerating all node correspondences.

    The smaller graph is padded with isolated zero nodes to the larger order,
    every permutation of that order is scored, and the lexicographically
    smallest maximizer wins ties.
    """
    return _sdp(x, y, MatcherConfig(exact_max_order=max_order))


def ga_sdp(x: AttributedGraph, y: AttributedGraph, params: GaParams | None = None) -> MatchResult:
    """Heuristic dot product via graduated assignment.

    Always returns a feasible correspondence, so the value is a lower bound on
    the exact optimum; it is recomputed from the hard match.
    """
    return _sdp(x, y, MatcherConfig("graduated", ga_params=params or GaParams()))


def sdp(x: AttributedGraph, y: AttributedGraph, cfg: MatcherConfig | None = None) -> MatchResult:
    """Dot product dispatch: exact under the order cap, graduated otherwise.

    The self-product of a graph with itself (same object) is closed-form: the
    identity correspondence is optimal, so no matching problem is solved.
    """
    cfg = cfg or MatcherConfig()
    if x is y:
        rep, match = to_representation(x), MatchMatrix.identity(x.order)
        return MatchResult(kernel_value(rep, rep, match), match, True)
    if cfg.method == "exact":
        return exact_sdp(x, y, cfg.exact_max_order)
    return ga_sdp(x, y, cfg.ga_params)


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
    return Representation(aligned)


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
