"""Classifiers of the form f(X) = W.X + b with a weight graph W.

The model stores W only as one representation (`from_representation` recovers
the graph); evaluation aligns the input graph against it and takes a plain dot
product, so the score is invariant under relabeling of the input's nodes.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .exceptions import DegenerateModelError, ValidationError, config_value
from .files import atomic_write
from .graphs import AttributedGraph, Representation, to_representation
from .matching import MatcherConfig, optimal_align

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
        dims = {m.attr_dim for m in self.members}
        if len(dims) > 1:
            raise ValidationError(f"member models disagree on attr_dim: {sorted(dims)}")


def _score(w: Representation, b: float, x: AttributedGraph, matcher: MatcherConfig | None):
    """(w.aligned + b, aligned): the discriminant of weights (w, b) at `x`, with `x`
    optimally aligned against `w`. Every discriminant in the package is this one."""
    aligned = optimal_align(w, x, matcher)
    return float(np.vdot(w.cells, aligned.cells)) + b, aligned


def evaluate(model: SublinearModel, x: AttributedGraph) -> float:
    """Discriminant value W.X + b via optimal alignment against the stored weights."""
    return _score(model.weight_rep, model.bias, x, model.matcher)[0]


def classify(model: SublinearModel, x: AttributedGraph) -> int:
    """+1 if the discriminant is >= 0 (boundary counts as positive), else -1."""
    return 1 if evaluate(model, x) >= 0.0 else -1


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
    """Class whose member discriminant is largest; ties go to the lowest class index."""
    best_idx = 0
    best_val = -math.inf
    for idx, member in enumerate(ova.members):
        val = evaluate(member, x)
        if val > best_val:
            best_val = val
            best_idx = idx
    return ova.classes[best_idx]


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
    version = config_value(doc, "format_version", lambda v: v, None)
    if version != MODEL_FORMAT_VERSION:
        raise ValidationError(f"unsupported model format version {version!r}")
    order = config_value(doc, "order", operator.index)
    attr_dim = config_value(doc, "attr_dim", operator.index)
    cells = config_value(doc, "weight_cells", lambda v: np.asarray(v, dtype=np.float64))
    if cells.size == 0:  # an order-0 weight is written as []
        cells = cells.reshape(0, 0, max(attr_dim, 1))
    rep = Representation(cells)
    if rep.order != order or rep.attr_dim != attr_dim:
        raise ValidationError("weight cell array does not match the declared order/attr_dim")
    return SublinearModel(
        rep,
        bias=config_value(doc, "bias", float),
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


def load_model(path):
    """Load a model document written by :func:`save_model`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if config_value(doc, "kind", str, None) == "ova":
        members = config_value(doc, "members", lambda docs: tuple(map(_model_from_doc, docs)))
        return OvaModel(config_value(doc, "classes", tuple), members)
    return _model_from_doc(doc)
