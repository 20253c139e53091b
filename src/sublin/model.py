"""Classifiers of the form f(X) = W.X + b with a weight graph W.

The model stores W only as one representation (`from_representation` recovers
the graph); evaluation aligns the input graph against it and takes a plain dot
product, so the score is invariant under relabeling of the input's nodes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .exceptions import (DegenerateModelError, ValidationError, check_number, config_value, integer,
                         name_list)
from .files import atomic_write, read_json
from .graphs import AttributedGraph, Representation, to_representation
from .matching import MatcherConfig, _aligned, _encodings, _finite, _solve

MODEL_FORMAT_VERSION = 1


class SublinearModel:
    """Weight representation, bias, and matcher settings."""

    __slots__ = ("weight_rep", "bias", "matcher", "metadata")

    def __init__(self, weight_rep: Representation, bias: float = 0.0,
                 matcher: MatcherConfig | None = None, metadata: dict | None = None):
        self.weight_rep = weight_rep
        self.bias = float(bias)
        self.matcher = matcher or MatcherConfig()
        self.metadata = dict(metadata or {})

    @classmethod
    def from_weight_graph(cls, graph: AttributedGraph, bias: float = 0.0,
                          matcher: MatcherConfig | None = None, metadata: dict | None = None):
        return cls(to_representation(graph), bias, matcher, metadata)

    @property
    def attr_dim(self) -> int:
        return self.weight_rep.attr_dim

    @property
    def order(self) -> int:
        return self.weight_rep.order

    def __repr__(self):
        return (f"SublinearModel(order={self.order}, attr_dim={self.attr_dim}, "
                f"bias={self.bias:.6g})")


@dataclass(frozen=True)
class OvaModel:
    """One-against-all wrapper: one binary model per class, ordered by class id."""

    classes: Tuple
    members: Tuple[SublinearModel, ...]

    def __post_init__(self):
        if len(self.classes) != len(self.members):
            raise ValidationError("one member model per class is required")
        if len(self.classes) < 2:
            raise ValidationError("a multiclass model needs at least 2 classes")
        if len(set(self.classes)) != len(self.classes):
            raise ValidationError("duplicate class ids")
        # the members are scored in one batch: one attribute dimension, one matcher
        for name in ("attr_dim", "matcher"):
            values = list(dict.fromkeys(getattr(m, name) for m in self.members))
            if len(values) > 1:
                raise ValidationError(f"member models disagree on {name}: {values}")


def _discriminants(problems, matcher: MatcherConfig):
    """Yield (w.aligned + b, aligned) for each (w, b, rx) of `problems`, where rx
    is the encoding of a graph already checked against w (`matching._encodings`)
    and aligned is that graph optimally aligned against w by `matcher`, as
    `optimal_align` gives it. All pairs are solved in one `matching._solve` batch
    before the first is yielded. Every discriminant in the package is this one.
    Raises ValidationError when finite attributes give a value outside the float
    range."""
    found = _solve([(w.cells, rx.cells) for w, _, rx in problems], matcher)
    for (w, b, rx), pairs in zip(problems, found):
        aligned = _aligned(w.order, rx, pairs)
        yield _finite(float(np.vdot(w.cells, aligned.cells)) + b), aligned


def _score(w: Representation, b: float, x: AttributedGraph, matcher: MatcherConfig | None):
    """(w.aligned + b, aligned): the discriminant of weights (w, b) at `x`, with `x`
    optimally aligned against `w`; `x` is checked as `optimal_align` checks it."""
    matcher = matcher or MatcherConfig()
    return next(_discriminants([(w, b, _encodings(w, [x], matcher)[0])], matcher))


def _checked(ws, graphs, matcher: MatcherConfig) -> list:
    """For each weight representation of `ws`, the encodings of `graphs` checked
    against it under `matcher` as `matching._encodings` checks them: once per
    distinct weight order and attribute dimension, in the order of `ws`."""
    firsts = {(w.order, w.attr_dim): w for w in ws}  # keys in order of first appearance
    reps = {key: _encodings(w, graphs, matcher) for key, w in firsts.items()}
    return [reps[w.order, w.attr_dim] for w in ws]


def _split_scores(weights, graphs, matcher: MatcherConfig):
    """Yield, for each graph of `graphs` in order, the discriminant of each (w, b)
    of `weights` at it under `matcher`, as `_score` gives them one at a time.
    Every graph is checked (`_checked`) before any pair is solved. Each graph's
    pairs are one `_discriminants` batch, so a pass over a split holds
    len(weights) pairs at a time, whatever the split's size."""
    encoded = _checked([w for w, _ in weights], graphs, matcher)
    for index in range(len(graphs)):
        yield [value for value, _ in _discriminants(
            [(w, b, reps[index]) for (w, b), reps in zip(weights, encoded)], matcher)]


def _predictions(models, graphs):
    """Yield, for each graph of `graphs` in order, the class each model of
    `models`, all of one matcher, gives it: +1 for a binary model whose
    discriminant is >= 0 (the boundary counts as positive), else -1; for a
    one-against-all model, the class of its largest member discriminant (ties
    go to the lowest class index). At each graph every member of every model is
    scored in one `_split_scores` batch, one solver call per member."""
    members = [m.members if isinstance(m, OvaModel) else (m,) for m in models]
    weights = [(m.weight_rep, m.bias) for ms in members for m in ms]
    for values in _split_scores(weights, graphs, members[0][0].matcher):
        row, start = [], 0
        for model, ms in zip(models, members):
            v = values[start : start + len(ms)]
            start += len(ms)
            row.append(model.classes[max(range(len(v)), key=v.__getitem__)]
                       if isinstance(model, OvaModel) else 1 if v[0] >= 0.0 else -1)
        yield row


def evaluate(model: SublinearModel, x: AttributedGraph) -> float:
    """Discriminant value W.X + b via optimal alignment against the stored weights."""
    return _score(model.weight_rep, model.bias, x, model.matcher)[0]


def classify(model: SublinearModel, x: AttributedGraph) -> int:
    """+1 if the discriminant is >= 0 (boundary counts as positive), else -1."""
    return next(_predictions([model], [x]))[0]


def weight_norm(model: SublinearModel) -> float:
    """Norm of the weight graph, sqrt(W.W); equals the weight representation's norm."""
    return model.weight_rep.norm()


def origin_distance(model: SublinearModel) -> float:
    """Signed distance b / ||W|| of the decision surface from the zero graph."""
    wn = weight_norm(model)
    if wn == 0.0:
        raise DegenerateModelError("origin distance is undefined for a zero weight graph")
    return model.bias / wn


def margin_lower_bound(model: SublinearModel, x: AttributedGraph) -> float:
    """f(X) / ||W||, a lower bound on the distance of X from the decision surface."""
    wn = weight_norm(model)
    if wn == 0.0:
        raise DegenerateModelError("margin bound is undefined for a zero weight graph")
    return evaluate(model, x) / wn


def predict_multiclass(ova: OvaModel, x: AttributedGraph):
    """Class whose member discriminant is largest; ties go to the lowest class index.
    The members are scored against `x` in one batch, one solver call each."""
    return next(_predictions([ova], [x]))[0]


def _model_doc(model: SublinearModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "binary",
        "attr_dim": model.attr_dim,
        "order": model.order,
        "weight_cells": model.weight_rep.cells.tolist(),
        "bias": model.bias,
        "matcher_config": model.matcher.to_json(),
        "training_metadata": model.metadata,
    }


def _model_from_doc(doc: dict) -> SublinearModel:
    """A binary model, read from a file's top level or from one of its
    one-against-all members, whose `kind`, when present, must be "binary"."""
    version = config_value(doc, "format_version", lambda v: v, None)
    if version != MODEL_FORMAT_VERSION:
        raise ValidationError(f"unsupported model format version {version!r}")
    config_value(doc, "kind", lambda v: _kind(v, ("binary",)), None)
    order = config_value(doc, "order", integer)
    attr_dim = config_value(doc, "attr_dim", integer)
    cells = config_value(doc, "weight_cells", lambda v: np.asarray(v, dtype=np.float64))
    if cells.size == 0:  # an order-0 weight is written as []
        try:
            cells = cells.reshape(0, 0, max(attr_dim, 1))
        except ValueError:  # numpy's limit on the length of an axis
            raise ValidationError(f"'attr_dim': {attr_dim} is too large") from None
    rep = Representation(cells)
    if rep.order != order or rep.attr_dim != attr_dim:
        raise ValidationError("weight cell array does not match the declared order/attr_dim")
    return SublinearModel(
        rep,
        bias=check_number("bias", config_value(doc, "bias", lambda v: v)),
        matcher=config_value(doc, "matcher_config", MatcherConfig.from_json, None),
        metadata=config_value(doc, "training_metadata", dict, None),
    )


def save_model(model, path) -> None:
    """Write a model (binary or one-against-all) as a versioned JSON document.

    Floats are serialized with shortest round-trip representation, so loading
    restores values exactly.
    """
    if isinstance(model, OvaModel):
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "ova",
            "classes": list(model.classes),
            "members": [_model_doc(m) for m in model.members],
        }
    else:
        doc = _model_doc(model)
    with atomic_write(path) as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _kind(value, kinds=("binary", "ova")):
    if value not in kinds:
        raise ValueError(f"expected {' or '.join(map(repr, kinds))}, got {value!r}")
    return value


def load_model(path):
    """Load a model document written by :func:`save_model`."""
    doc = read_json(path)
    if config_value(doc, "kind", _kind, "binary") == "ova":
        members = config_value(doc, "members", lambda docs: tuple(map(_model_from_doc, docs)))
        return OvaModel(config_value(doc, "classes", name_list), members)
    return _model_from_doc(doc)
