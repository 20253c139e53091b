"""Stochastic subgradient training of graph classifiers.

Training minimizes the lifted hinge risk over (weight representation, bias):
each step aligns one example against the current weights and, on a margin
violation, moves the weights toward (label * aligned representation). With a
zero margin this is the classic perceptron; with a positive margin, the margin
perceptron.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import ValidationError, check_count, integer
from .files import atomic_write
from .graphs import AttributedGraph, Representation
from .matching import MatcherConfig, _distances
from .model import OvaModel, SublinearModel, _score


@dataclass(frozen=True)
class LabeledExample:
    """A graph with its class: +1/-1 for binary tasks, a class id otherwise."""

    graph: AttributedGraph
    y: object


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    margin: float = 0.0
    max_epochs: int = 200
    weight_order: Optional[int] = None  # None: order of the largest training graph
    seed: int = 0
    matcher: MatcherConfig = field(default_factory=MatcherConfig)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError("learning rate must be positive")
        if self.margin < 0:
            raise ValidationError("margin must be non-negative")
        object.__setattr__(self, "max_epochs", check_count("max_epochs", self.max_epochs))
        if self.weight_order is not None:
            object.__setattr__(self, "weight_order", check_count("weight_order", self.weight_order))
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    updates: int
    errors: int
    risk: float


@dataclass(frozen=True)
class TrainTrace:
    epochs: Tuple[EpochStats, ...]
    total_updates: int
    converged: bool
    final_epoch: int


def _signed(examples: Sequence[LabeledExample], positive) -> List[LabeledExample]:
    """The examples relabeled +1 where the class is `positive` and -1 elsewhere."""
    return [LabeledExample(ex.graph, 1 if ex.y == positive else -1) for ex in examples]


def derive_seed(base: int, *parts: int) -> int:
    """Deterministic, platform-independent child seed from a base seed and indices."""
    payload = ",".join(str(integer(p)) for p in (base, *parts))
    digest = hashlib.blake2b(payload.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest[:4], "big")


def hinge_loss(y_hat: float, y: int, margin: float) -> float:
    """max(0, margin - y * y_hat)."""
    return max(0.0, margin - y * y_hat)


def subgradient_step(w: Representation, b: float, example: LabeledExample,
                     learning_rate: float, margin: float,
                     matcher: MatcherConfig | None = None):
    """One stochastic step on one example.

    Aligns the example against the current weights; on a margin violation
    (y * score <= margin) moves along the negative loss subgradient:
    w += eta * y * aligned, b += eta * y. Returns (w', b', updated, loss) where
    loss is the hinge value at the incoming state. An update that overflows the
    float range raises ValidationError.
    """
    y = int(example.y)
    y_hat, aligned = _score(w, b, example.graph, matcher)
    loss = hinge_loss(y_hat, y, margin)
    if y * y_hat <= margin:
        # symmetric plus a scalar times symmetric: only overflow needs a check,
        # and it is the one below, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            cells = w.cells + learning_rate * y * aligned.cells
        if not np.isfinite(cells).all():
            raise ValidationError("graph attributes must be finite")
        return Representation._own(cells), b + learning_rate * y, True, loss
    return w, b, False, loss


def _split_metrics(w: Representation, b: float, data, margin, matcher):
    risk = 0.0
    errors = 0
    for ex in data:
        y_hat = _score(w, b, ex.graph, matcher)[0]
        risk += hinge_loss(y_hat, int(ex.y), margin)
        pred = 1 if y_hat >= 0.0 else -1
        errors += pred != int(ex.y)
    return risk / len(data), errors


def _check_examples(data: Sequence[LabeledExample], binary: bool):
    if not data:
        raise ValidationError("training data is empty")
    dims = {ex.graph.attr_dim for ex in data}
    if len(dims) > 1:
        raise ValidationError(f"training graphs disagree on attr_dim: {sorted(dims)}")
    for ex in data:
        if binary and ex.y not in (1, -1):
            raise ValidationError(f"binary labels must be +1/-1, got {ex.y!r}")


def _epochs(data: Sequence[LabeledExample], cfg: TrainConfig):
    """Yield (epoch, w, b, updates) after each epoch of train_binary's steps; the
    first epoch without updates (the sample separated at the margin) is the last."""
    n_w = cfg.weight_order or max(1, max(ex.graph.order for ex in data))
    w = Representation.zeros(n_w, data[0].graph.attr_dim)
    b = 0.0
    rng = np.random.default_rng(cfg.seed)
    visit = np.arange(len(data))
    for epoch in range(1, cfg.max_epochs + 1):
        rng.shuffle(visit)
        updates = 0
        for idx in visit:
            w, b, updated, _ = subgradient_step(
                w, b, data[idx], cfg.learning_rate, cfg.margin, cfg.matcher
            )
            updates += updated
        yield epoch, w, b, updates
        if updates == 0:
            return


def _fit_binary(data: Sequence[LabeledExample], cfg: TrainConfig, traced: bool):
    """(model, trace) as train_binary returns them; the trace is None unless
    `traced`, since its risk and errors cost one more pass over the data per epoch."""
    data = list(data)
    _check_examples(data, binary=True)
    stats: List[EpochStats] = []
    for epoch, w, b, updates in _epochs(data, cfg):
        if traced:
            risk, errors = _split_metrics(w, b, data, cfg.margin, cfg.matcher)
            stats.append(EpochStats(epoch, updates, errors, risk))
    converged = updates == 0
    model = SublinearModel(
        w, b, cfg.matcher,
        metadata={
            "algorithm": "margin_perceptron" if cfg.margin > 0 else "perceptron",
            "learning_rate": cfg.learning_rate,
            "margin": cfg.margin,
            "max_epochs": cfg.max_epochs,
            "weight_order": w.order,
            "seed": cfg.seed,
            "epochs_run": epoch,
            "converged": converged,
        },
    )
    if not traced:
        return model, None
    return model, TrainTrace(tuple(stats), sum(s.updates for s in stats), converged, epoch)


def _fit_one_vs_all(data: Sequence[LabeledExample], cfg: TrainConfig, traced: bool):
    """(OvaModel, per-class traces) as train_one_vs_all returns them; each trace
    is None unless `traced`."""
    data = list(data)
    _check_examples(data, binary=False)
    classes = sorted({ex.y for ex in data})
    if len(classes) < 2:
        raise ValidationError(f"one-against-all needs at least 2 classes, got {len(classes)}")
    members = []
    traces = []
    for idx, cls in enumerate(classes):
        sub_cfg = replace(cfg, seed=derive_seed(cfg.seed, idx))
        model, trace = _fit_binary(_signed(data, cls), sub_cfg, traced)
        model.metadata["positive_class"] = str(cls)
        members.append(model)
        traces.append(trace)
    return OvaModel(tuple(classes), tuple(members)), tuple(traces)


def train_binary(data: Sequence[LabeledExample], cfg: TrainConfig):
    """Train a binary classifier by epochs of stochastic subgradient steps.

    Weights start at zero, and every epoch visits the examples in a new random
    order. An epoch with no margin violations means the sample is separated at
    the configured margin; training then stops and the trace is flagged
    converged. Each epoch's risk and error count are measured with the
    end-of-epoch weights.
    """
    return _fit_binary(data, cfg, traced=True)


def train_one_vs_all(data: Sequence[LabeledExample], cfg: TrainConfig):
    """Train one binary model per class (positive = that class) with derived seeds.

    Members are ordered by sorted class id; returns (OvaModel, per-class traces
    in the same order).
    """
    return _fit_one_vs_all(data, cfg, traced=True)


def empirical_risk(model: SublinearModel, data: Sequence[LabeledExample], margin: float) -> float:
    """Mean hinge loss of the model over a labeled sample."""
    data = list(data)
    if not data:
        raise ValidationError("cannot compute risk of an empty sample")
    return _split_metrics(model.weight_rep, model.bias, data, margin, model.matcher)[0]


def knn_classify(train: Sequence[LabeledExample], x: AttributedGraph, k: int = 1,
                 matcher: MatcherConfig | None = None):
    """k-nearest-neighbor vote under the induced graph distance.

    Distance ties are broken by training-set index, vote ties by the smallest
    class id. The query is scored against the training graphs of each order in
    one pass; distances, solver calls and the error of the first bad training
    graph are those of `induced_distance` graph by graph, except that every
    graph is checked before any is solved.
    """
    train = list(train)
    if not train:
        raise ValidationError("k-NN needs a non-empty training set")
    k = check_count("k", k)
    dists = _distances(x, [ex.graph for ex in train], matcher or MatcherConfig())
    nearest = sorted(range(len(train)), key=lambda i: (dists[i], i))[:k]
    votes = Counter(train[i].y for i in nearest)
    top = max(votes.values())
    return min(c for c, count in votes.items() if count == top)


def write_trace_jsonl(trace: TrainTrace, path) -> None:
    """One JSON record per epoch: {epoch, updates, errors, risk}."""
    with atomic_write(path) as fh:
        for s in trace.epochs:
            fh.write(json.dumps(
                {"epoch": s.epoch, "updates": s.updates, "errors": s.errors, "risk": s.risk}
            ))
            fh.write("\n")
