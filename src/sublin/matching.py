"""Correspondence-maximized dot product between attributed graphs.

The similarity of two graphs is the maximum, over one-to-one node
correspondences, of the summed dot products between corresponding node and
induced edge attributes. `sdp`, `exact_sdp`, `ga_sdp` and `optimal_align` all
reach one core, `_solve`, which takes a list of pairs of dense cell arrays and
returns the assigned node pairs of each from one of two solvers: exhaustive
enumeration of the injections of the smaller node set into the larger (exact,
small orders) or graduated assignment (heuristic, any order). A batch has one
matcher, and its pairs are grouped by shape for either solver: the exact pairs
of one shape are scored together, each getting the winner it gets alone, and
the graduated ones are annealed together as a lockstep stack, each getting the
soft matrix it gets alone.
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

from .exceptions import (CapacityError, ValidationError, check_count, config_fields, config_value,
                         sized)
from .graphs import AttributedGraph, Representation, to_representation

DEFAULT_EXACT_MAX_ORDER = 8
_METHODS = ("exact", "graduated")  # what `MatcherConfig.method` and `sublin --matcher` accept
# Orders above this are never enumerated. `_injection_table` caches one table per
# pair of orders seen, unbounded: evicting one would only rebuild it.
_HARD_ENUM_LIMIT = 9
# (injection, pair) cells per term of one `_best_pairs` gather; windows are sized for
# at least 4 pairs, or a lone pair's buffers would fault in again on every call.
_GATHER = 2880
# pairs and compatibility cells per solver batch of `_solve`: the cells of a
# full batch at (9, 9) bound either solver's compatibility array at any order
_PAIRS = 32
_CELLS = _PAIRS * 9**4

# Count of hard matching problems actually solved (enumeration or annealing).
# Identity self-products are closed-form and do not count. `_solve` is its one
# writer; it only grows, so callers read it by delta. Not thread-safe;
# intended for sequential accounting in experiments.
_SOLVER_CALLS = 0


def matcher_call_count() -> int:
    return _SOLVER_CALLS


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
                "sinkhorn_max_iters": 30, "sinkhorn_tol": 0.005, "assignment_rounds_max": 4,
                "assignment_tol": 1e-3}


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
    `np.dot` of the two vectors does. Raises ValidationError when the attribute
    dimensions differ, and when finite attributes give a value outside the
    float range.
    """
    if rx.attr_dim != ry.attr_dim:
        raise ValidationError(f"attribute dimensions differ: {rx.attr_dim} vs {ry.attr_dim}")
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


def _compat(cells) -> np.ndarray:
    """The (B, m*m, n*n) compatibilities of the (cx, cy) of `cells`, raw cell
    arrays all of one shape (m, n): entry (b, i*m + j, r*n + s) holds
    dot(x_ij, y_rs) of pair b, each pair's one `np.dot` over d (as `tensordot`
    computes it). The one place either matcher forms these products."""
    cx, cy = cells[0]
    m, n, d = cx.shape[0], cy.shape[0], cx.shape[2]
    compat = np.empty((len(cells), m * m, n * n))
    for out, (cx, cy) in zip(compat, cells):
        np.dot(cx.reshape(m * m, d), cy.transpose(2, 0, 1).reshape(d, n * n), out=out)
    return compat


@lru_cache(maxsize=None)
def _injection_table(m: int, n: int) -> np.ndarray:
    """Flat positions into one pair's `_compat` array of an m-node and an n-node
    graph (entry (i*m + j)*n*n + r*n + s holds dot(x_ij, y_rs)), one column per
    injection of the smaller node set into the larger.

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
    compatibilities are its own `_compat` products with the node rows (i, i)
    halved in place, so a term a < b stands for its mirror too and every score
    is exactly half the injection's objective unless a product or partial sum
    is subnormal or overflows; every injection sums, in the table's order, the
    terms whose cell of the indexed side (x when m <= n, else y, whose nodes
    place the terms) is non-zero for some pair, so injections that differ only
    in the zero nodes they match tie exactly. The winner is the first maximum
    of the pair's non-NaN scores, whatever the windows: a later window wins
    only on a strictly larger score, and a window holding a NaN score offers
    its first largest non-NaN one.
    """
    m, n = cells[0][0].shape[0], cells[0][1].shape[0]
    k, batch = min(m, n), len(cells)
    table = _injection_table(m, n)
    count = table.shape[1]
    window = min(count, _GATHER // max(batch, 4))
    compat = _compat(cells)
    compat[:, :: m + 1] *= 0.5
    kept = table
    if count * batch > _GATHER:  # smaller gathers cost less than the keep test
        # a term is +-0.0 wherever the indexed side's cell that its row reads in
        # every injection is zero: x's i_a*m + i_b when m <= n, else y's r_a*n + r_b
        live = np.any([pair[m > n] for pair in cells], (0, 3)).ravel()
        keep = np.flatnonzero(live[table[:, 0] // (n * n) if m <= n else table[:, 0] % (n * n)])
        if len(keep) < len(table):
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
            if score != score:  # the first NaN: the window's first largest non-NaN score instead
                t = int(np.fmax(scores[:, b], -np.inf).argmax())
                score = scores.item(t, b)
            if score > best[b]:
                best[b], cols[b] = score, lo + t
    # the first k terms of the full table are the diagonal ones, at
    # i_a*(m + 1)*n*n + r_a*(n + 1); k Python divisions cost less than numpy's
    # on a row this short
    step = (m + 1) * n * n
    return [tuple(sorted((p // step, p % step // (n + 1)) for p in table[:k, c].tolist()))
            for c in cols]


def _ga_soft(cells) -> np.ndarray:
    """Graduated assignment on each (cx, cy) of `cells`, raw cell arrays all of
    one shape (m, n) with m, n >= 1, annealed together in lockstep; returns the
    (B, m, n) final soft matrices over the real rows and columns, each with the
    bytes its pair gets alone.

    Softassign with one slack row and one slack column: compatibilities
    Q_ir = sum_js M_js dot(x_ij, y_rs) + dot(x_ii, y_rr), one matrix-vector
    product of the `_compat` products, viewed as (m*n, m*n) in (i, r, j, s)
    layout, and the flattened real soft matrix, give the kernel exponents
    E = beta * (Q - shift), shift = max(max Q, 0), with -beta * shift in the
    slack row and column (0 in their corner); the kernel exp(E) is
    Sinkhorn-balanced over the real rows and columns, and beta grows
    geometrically (`_GA_SCHEDULE`; the README's GA note has the stopping
    rules). A beta step's assignment rounds end once a round's pass moves no
    real entry by more than `assignment_tol` (Gold & Rangarajan's loop B).
    Every pass is warm-started: it starts from the last pass's balanced
    matrix times exp(min(E - E_last, 700)), which is the new kernel under the
    last pass's row and column scalings; a call's first pass starts from ones
    under zero exponents, which is exp(E) bit for bit, as E <= 0. After a pass
    no entry exceeds 1, so the cap keeps every sum finite. Each sweep's row
    sums test it and divide the next sweep's rows; columns need no test, as
    each sums to one within a few ulps after the column division.

    A stack shares the beta schedule, and each numpy call serves all its
    pairs: one `np.matmul` forms every Q, and four calls divide and sum a
    sweep. A pair that has stopped (its beta step's rounds, its pass's sweeps
    or, after a NaN, its schedule) is held by the `where=` masks of the calls
    that write the soft matrix, and its last exponents by one `copyto` per
    pass, so it resumes, or ends, exactly as alone. The stop tests read each
    pair's row sums and largest move as Python floats, and a NaN ends every
    test it meets: a pass's sweeps end at its first NaN row sum, and its
    pair's schedule ends with that pass, whose move is NaN, since no later
    pass can clear it. A lone pair is a stack of one.
    """
    batch = len(cells)
    m, n = cells[0][0].shape[0], cells[0][1].shape[0]
    compat = _compat(cells).reshape(batch, m, m, n, n)
    node_comp = np.einsum("biirr->bir", compat)
    # rows (i, r), columns (j, s)
    compat = compat.swapaxes(2, 3).reshape(batch, m * n, m * n)
    # the kernel starts at ones under zero exponents, so a call's first pass
    # balances exp(E) as every later pass balances its warm start
    soft = np.ones((batch, m + 1, n + 1))
    real, rows, cols = soft[:, :m, :n], soft[:, :m, :], soft[..., :n]
    # this pass's kernel exponents and the last pass's, swapped every pass, and
    # the factor between them; the slack corner, which no sweep reads, keeps
    # exponent 0 and entry 1
    expo, last, factor = np.zeros((3,) + soft.shape)
    expo_real, last_real = expo[:, :m, :n], last[:, :m, :n]
    # the real soft matrix a round starts from (uniform at first), as a column
    # for the product, and Q, then the round's move
    start, q = np.full((2,) + real.shape, 1.0 / (max(m, n) + 1.0))
    start_col, q_col = start.reshape(batch, m * n, 1), q.reshape(batch, m * n, 1)
    shift = np.empty((batch, 1, 1))
    # per-pair views of Q (and the moves) and the shifts, for reductions over each pair
    q_pairs, peaks = q.reshape(batch, -1), shift.reshape(batch)
    row_sums, col_sums = np.empty((batch, m)), np.empty((batch, 1, n))
    divisors = row_sums[..., None]
    tol = _GA_SCHEDULE["sinkhorn_tol"]
    round_tol = _GA_SCHEDULE["assignment_tol"]
    beta = _GA_SCHEDULE["beta_start"]
    # the pairs whose schedule goes on, and those running this beta step's
    # rounds, as `_kept` masks
    live = True
    while beta <= _GA_SCHEDULE["beta_max"] * (1 + 1e-12):
        act = live
        for _ in range(_GA_SCHEDULE["assignment_rounds_max"]):
            np.matmul(compat, start_col, out=q_col)
            q += node_comp
            np.maximum(np.maximum.reduce(q_pairs, 1, None, peaks), 0.0, out=peaks)
            q -= shift
            expo, last, expo_real, last_real = last, expo, last_real, expo_real
            np.multiply(q, beta, out=expo_real)
            expo[:, m:, :n] = expo[:, :m, n:] = -beta * shift
            if act is not True:  # held pairs keep their last exponents through the swap
                np.copyto(expo, last, where=~act)
            np.subtract(expo, last, out=factor)
            np.minimum(factor, 700.0, out=factor)
            np.multiply(soft, np.exp(factor, out=factor), out=soft, where=act)
            np.maximum(soft, 1e-300, out=soft, where=act)
            np.add.reduce(rows, -1, None, row_sums)
            run = act  # the pairs still sweeping
            for _ in range(_GA_SCHEDULE["sinkhorn_max_iters"]):
                np.divide(rows, divisors, rows, where=run)
                np.divide(cols, np.add.reduce(cols, -2, None, col_sums, True), cols, where=run)
                np.add.reduce(rows, -1, None, row_sums)
                run = _kept(run, [any(abs(v - 1.0) > tol for v in sums)
                                  for sums in row_sums.tolist()])
                if run is None:
                    break
            np.abs(np.subtract(real, start, out=q), out=q)
            np.copyto(start, real)
            moved = np.maximum.reduce(q_pairs, 1).tolist()
            act = _kept(act, [v > round_tol for v in moved])
            if act is None:
                break
        # a NaN pass ends its pair's rounds and, as no later pass can clear it,
        # its schedule: its move stays NaN through the beta step's last round
        live = _kept(live, [v == v for v in moved])
        if live is None:
            return real
        beta *= _GA_SCHEDULE["beta_rate"]
    return real


def _kept(mask, going):
    """The pairs of a stack's (B, 1, 1) `mask` (True: all B) that the list of B
    bools `going` marks, as such a mask: True when that is every pair, None when
    it is none."""
    if mask is not True:
        going = [g and k for g, k in zip(going, mask.ravel().tolist())]
    if all(going):
        return True
    return np.array(going)[:, None, None] if any(going) else None


def _ga_soft_pairs(cells) -> list:
    """Graduated assignment core: the assigned (row, col) pairs of each (cx, cy)
    of `cells`, raw cell arrays all of one shape (m, n) with m, n >= 1.

    When either array of a pair is all zero (the first step of every fit, from
    zero weights), every compatibility is zero and every real entry of the
    annealed soft matrix is equal, so greedy selection takes the diagonal: the
    pairs (i, i) are returned without annealing. The other pairs are annealed
    by one `_ga_soft` stack, and each soft matrix is discretized by greedy
    maximum selection down to min(m, n) pairs.
    """
    m, n = cells[0][0].shape[0], cells[0][1].shape[0]
    found = [tuple((i, i) for i in range(min(m, n)))] * len(cells)
    hard = [b for b, (cx, cy) in enumerate(cells) if cx.any() and cy.any()]
    soft = _ga_soft([cells[b] for b in hard]) if hard else []
    for b, pick in zip(hard, soft):
        pick, pairs = pick.copy(), []
        for _ in range(min(m, n)):
            i, r = np.unravel_index(int(np.argmax(pick)), pick.shape)
            pairs.append((int(i), int(r)))
            pick[i, :] = -np.inf
            pick[:, r] = -np.inf
        found[b] = tuple(sorted(pairs))
    return found


def _solve(pairs, cfg: MatcherConfig) -> list:
    """Assigned (row, col) pairs of a best correspondence for each (cx, cy) of
    `pairs`, two cell arrays, all solved by the one matcher `cfg`.

    Callers check every pair first (attribute dimensions, encodings, then the
    exact cap: see `_encodings`), so nothing is solved for a batch with a bad
    pair. Both solvers take the arrays as they are. Pairs with no empty side
    are grouped by shape (m, n), and each group goes to its solver in
    consecutive batches of at most `_PAIRS` pairs and `_CELLS` compatibility
    cells (m*m*n*n a pair), but at least one pair, the one cap on either
    solver's batch: an exact batch is scored by one `_best_pairs` call, a
    graduated one annealed in lockstep by one `_ga_soft_pairs` call, and each
    pair gets the pairs it gets alone. A pair whose arrays numpy will not
    allocate raises ValidationError naming its orders. Each pair counts as one
    solver call.
    """
    global _SOLVER_CALLS
    _SOLVER_CALLS += len(pairs)
    found, groups = [()] * len(pairs), {}
    for index, (cx, cy) in enumerate(pairs):
        if cx.shape[0] and cy.shape[0]:
            groups.setdefault((cx.shape[0], cy.shape[0]), []).append(index)
    solver = _best_pairs if cfg.method == "exact" else _ga_soft_pairs
    for (m, n), group in groups.items():
        size = min(_PAIRS, max(1, _CELLS // (m * m * n * n)))
        for lo in range(0, len(group), size):
            batch = group[lo : lo + size]
            solved = sized("orders", (m, n), solver, [pairs[i] for i in batch])
            for index, assigned in zip(batch, solved):
                found[index] = assigned
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
    return _aligned(rw.order, rx, _solve([(rw.cells, rx.cells)], cfg)[0])


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
    for ry, pairs in zip(reps, _solve([(rx.cells, ry.cells) for ry in reps], cfg)):
        match = MatchMatrix._own(rx.order, ry.order, pairs)
        results.append(MatchResult(kernel_value(rx, ry, match), match, cfg.method == "exact"))
    return results
