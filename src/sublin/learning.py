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
from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import ValidationError, check_count, check_number, integer, sized
from .files import atomic_write
from .graphs import AttributedGraph, Representation
from .matching import MatcherConfig, _distances, _encodings
from .model import OvaModel, SublinearModel, _discriminants, _split_scores


@dataclass(frozen=True)
class LabeledExample:
    """A graph with its class: +1/-1 for binary tasks, a class id otherwise."""

    graph: AttributedGraph
    y: object


# the rule of each rate, as `check_number` takes it: the learning rule and its
# convergence bound need a positive, finite rate and a non-negative, finite
# margin, the paper's eta and lambda
_RATE_RULES = {"learning_rate": ("a positive number ('eta')", lambda v: v > 0),
              "margin": ("a non-negative number ('lambda')", lambda v: v >= 0)}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    margin: float = 0.0
    max_epochs: int = 200
    weight_order: Optional[int] = None  # None: order of the largest training graph
    seed: int = 0
    matcher: MatcherConfig = field(default_factory=MatcherConfig)

    def __post_init__(self):
        for name, rule in _RATE_RULES.items():
            check_number(name, getattr(self, name), *rule)
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
    y, matcher = int(example.y), matcher or MatcherConfig()
    rx, = _encodings([w], [example.graph], matcher)
    y_hat, aligned = next(_discriminants([(w, b, rx)], matcher))
    return (*_update(w, b, y_hat, aligned, y, learning_rate, margin),
            hinge_loss(y_hat, y, margin))


def _update(w: Representation, b: float, y_hat: float, aligned: Representation, y: int,
            learning_rate: float, margin: float):
    """(w', b', updated): the step of `subgradient_step` once the example is scored.
    Every training step, alone or in a stage, takes this one."""
    if y * y_hat <= margin:
        # symmetric plus a scalar times symmetric: only overflow needs a check,
        # and it is the one below, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            cells = w.cells + learning_rate * y * aligned.cells
        if not np.isfinite(cells).all():
            raise ValidationError("graph attributes must be finite")
        return Representation._own(cells), b + learning_rate * y, True
    return w, b, False


def _split_metrics(scored, graphs, matcher: MatcherConfig) -> list:
    """(mean hinge risk, errors) over `graphs` of each (w, b, labels, margin) of
    `scored`, against its +1/-1 labels. The graphs are scored one at a time under
    `matcher` (`model._split_scores`), and each risk sums its losses in split
    order."""
    totals = [[0.0, 0] for _ in scored]
    rows = _split_scores([(w, b) for w, b, _, _ in scored], graphs, matcher)
    for index, values in enumerate(rows):
        for total, (*_, labels, margin), y_hat in zip(totals, scored, values):
            y = labels[index]
            total[0] += hinge_loss(y_hat, y, margin)
            total[1] += (1 if y_hat >= 0.0 else -1) != y
    return [(risk / len(graphs), errors) for risk, errors in totals]


def _check_examples(data: Sequence[LabeledExample], binary: bool):
    if not data:
        raise ValidationError("training data is empty")
    for ex in data:
        if binary and ex.y not in (1, -1):
            raise ValidationError(f"binary labels must be +1/-1, got {ex.y!r}")


class _Fit:
    """One binary fit of a stage: its own labels, config, rng, visit order,
    weights, bias, epoch count and per-epoch stats."""

    __slots__ = ("labels", "cfg", "rng", "visit", "w", "b", "epoch", "updates", "stats")

    def __init__(self, labels, cfg: TrainConfig, graphs):
        self.labels = labels
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.visit = np.arange(len(graphs))
        order = cfg.weight_order or max(1, max(g.order for g in graphs))
        self.w = sized("weight_order", order, Representation.zeros, order, graphs[0].attr_dim)
        self.b = 0.0
        self.epoch = 0
        self.stats: List[EpochStats] = []

    def model(self) -> SublinearModel:
        cfg = self.cfg
        return SublinearModel(
            self.w, self.b, cfg.matcher,
            metadata={
                "algorithm": "margin_perceptron" if cfg.margin > 0 else "perceptron",
                "learning_rate": cfg.learning_rate,
                "margin": cfg.margin,
                "max_epochs": cfg.max_epochs,
                "weight_order": self.w.order,
                "seed": cfg.seed,
                "epochs_run": self.epoch,
                "converged": self.updates == 0,
            },
        )

    def trace(self) -> TrainTrace:
        return TrainTrace(tuple(self.stats), sum(s.updates for s in self.stats),
                          self.updates == 0, self.epoch)


def _epochs(graphs, fits: List[_Fit], traced: bool) -> None:
    """Run every fit of `fits`, all of one matcher, over the shared list `graphs`
    in lockstep.

    Each graph is checked once, in order, against every fit's weights before any
    fit starts (`matching._encodings`: attribute dimension, encoding, exact cap
    against the largest weight order), so the first bad graph raises the error
    it raises alone and no solver call is counted. Every epoch, each running fit
    shuffles its own visit order; at step t, each running fit scores the t-th
    graph of its own order, and all these alignments go to the matcher as one
    batch (`model._discriminants`), after which each fit takes its own
    `_update`. An epoch without updates (the sample separated at the margin) or
    the fit's `max_epochs`-th is its last; the other fits go on. With `traced`,
    each fit's risk and errors are measured with its end-of-epoch weights, the
    running fits' in one batch per epoch.
    """
    matcher = fits[0].cfg.matcher
    reps = _encodings([fit.w for fit in fits], graphs, matcher)
    running = list(fits)
    while running:
        orders = []
        for fit in running:
            fit.epoch += 1
            fit.updates = 0
            fit.rng.shuffle(fit.visit)
            orders.append(fit.visit.tolist())
        for step in zip(*orders):
            scored = _discriminants([(fit.w, fit.b, reps[i]) for fit, i in zip(running, step)],
                                    matcher)
            for fit, i, (y_hat, aligned) in zip(running, step, scored):
                cfg = fit.cfg
                fit.w, fit.b, updated = _update(fit.w, fit.b, y_hat, aligned, fit.labels[i],
                                                cfg.learning_rate, cfg.margin)
                fit.updates += updated
        if traced:
            metrics = _split_metrics(
                [(fit.w, fit.b, fit.labels, fit.cfg.margin) for fit in running], graphs, matcher)
            for fit, (risk, errors) in zip(running, metrics):
                fit.stats.append(EpochStats(fit.epoch, fit.updates, errors, risk))
        running = [fit for fit in running if fit.updates and fit.epoch < fit.cfg.max_epochs]


def _fit_stage(data: Sequence[LabeledExample], cfgs: Sequence[TrainConfig], multiclass: bool,
               traced: bool) -> list:
    """(model, trace) for each config of `cfgs`, all of one matcher, fit on `data`
    in one lockstep stage (`_epochs`), each equal to what `train_binary` (or,
    with `multiclass`, `train_one_vs_all`) gives alone. A one-against-all config
    fits one member per class, with seeds derived from its own; the members of
    every config step together. A trace is None unless `traced`, since its risk
    and errors cost one more pass over the data per epoch."""
    data = list(data)
    _check_examples(data, binary=not multiclass)
    graphs = [ex.graph for ex in data]
    if not multiclass:
        fits = [_Fit([int(ex.y) for ex in data], cfg, graphs) for cfg in cfgs]
        _epochs(graphs, fits, traced)
        return [(fit.model(), fit.trace() if traced else None) for fit in fits]
    classes = sorted({ex.y for ex in data})
    if len(classes) < 2:
        raise ValidationError(f"one-against-all needs at least 2 classes, got {len(classes)}")
    labels = [[ex.y for ex in _signed(data, cls)] for cls in classes]
    fits = [_Fit(labels[idx], replace(cfg, seed=derive_seed(cfg.seed, idx)), graphs)
            for cfg in cfgs for idx in range(len(classes))]
    _epochs(graphs, fits, traced)
    results = []
    for start in range(0, len(fits), len(classes)):
        members = fits[start : start + len(classes)]
        models = [fit.model() for fit in members]
        for model, cls in zip(models, classes):
            model.metadata["positive_class"] = str(cls)
        results.append((OvaModel(tuple(classes), tuple(models)),
                        tuple(fit.trace() if traced else None for fit in members)))
    return results


def train_binary(data: Sequence[LabeledExample], cfg: TrainConfig):
    """Train a binary classifier by epochs of stochastic subgradient steps.

    Weights start at zero, and every epoch visits the examples in a new random
    order. An epoch with no margin violations means the sample is separated at
    the configured margin; training then stops and the trace is flagged
    converged. Each epoch's risk and error count are measured with the
    end-of-epoch weights.
    """
    return _fit_stage(data, [cfg], multiclass=False, traced=True)[0]


def train_one_vs_all(data: Sequence[LabeledExample], cfg: TrainConfig):
    """Train one binary model per class (positive = that class) with derived seeds.

    Members are ordered by sorted class id; returns (OvaModel, per-class traces
    in the same order). The members step in lockstep, each as it steps alone.
    """
    return _fit_stage(data, [cfg], multiclass=True, traced=True)[0]


def empirical_risk(model: SublinearModel, data: Sequence[LabeledExample], margin: float) -> float:
    """Mean hinge loss of the model over a labeled sample."""
    data = list(data)
    if not data:
        raise ValidationError("cannot compute risk of an empty sample")
    scored = (model.weight_rep, model.bias, [int(ex.y) for ex in data], margin)
    return _split_metrics([scored], [ex.graph for ex in data], model.matcher)[0][0]


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
    """One JSON record per epoch: the fields of its `EpochStats`, in order."""
    with atomic_write(path) as fh:
        for s in trace.epochs:
            fh.write(json.dumps(asdict(s)))
            fh.write("\n")
