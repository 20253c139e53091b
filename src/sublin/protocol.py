"""Two-stage experimental protocol: grid search on validation, repeated test runs.

Stage 1 trains on the train split and scores on validation, repeating each grid
cell and keeping the hyperparameter with the best mean accuracy (ties go to the
smaller value). The margin algorithm first adopts the plain perceptron's best
learning rate, then searches the margin grid. Stage 2 retrains on
train+validation with the selected values and reports mean, standard deviation,
and maximum test accuracy over the repeats. Every run's seed is derived from
(seed, stage, config index, repeat), so reports are reproducible.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .data_io import Dataset
from .exceptions import ValidationError, check_count
from .learning import (TrainConfig, _fit_binary, _fit_one_vs_all, _signed, derive_seed,
                       knn_classify)
from .matching import MatcherConfig, matcher_call_count
from .model import OvaModel, classify, predict_multiclass

DEFAULT_ETA_GRID = (0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_LAMBDA_GRID = (0.01, 0.05, 0.075, 0.1, 0.125, 0.15, 0.2)

ALGORITHMS = ("perceptron", "margin_perceptron", "knn")

_STAGE_ETA = 1
_STAGE_LAMBDA = 2
_STAGE_TEST = 3


@dataclass(frozen=True)
class ProtocolConfig:
    dataset: Dataset
    algorithm: str
    eta_grid: Tuple[float, ...] = DEFAULT_ETA_GRID
    lambda_grid: Tuple[float, ...] = DEFAULT_LAMBDA_GRID
    repeats: int = 10
    seed: int = 0
    matcher: MatcherConfig = field(default_factory=MatcherConfig)
    max_epochs: int = 200
    weight_order: Optional[int] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        object.__setattr__(self, "eta_grid", tuple(sorted(self.eta_grid)))
        object.__setattr__(self, "lambda_grid", tuple(sorted(self.lambda_grid)))
        if not self.eta_grid or not self.lambda_grid:
            raise ValidationError("hyperparameter grids must be non-empty")
        object.__setattr__(self, "repeats", check_count("repeats", self.repeats))
        object.__setattr__(self, "max_epochs", check_count("max_epochs", self.max_epochs))
        if self.weight_order is not None:
            object.__setattr__(self, "weight_order", check_count("weight_order", self.weight_order))
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))


@dataclass
class ProtocolReport:
    dataset: str
    algorithm: str
    seed: int
    repeats: int
    eta_search: List[dict]
    lambda_search: List[dict]
    selected_eta: Optional[float]
    selected_lambda: Optional[float]
    test_accuracies: List[float]
    test_mean: float
    test_std: float
    test_max: float
    matcher_calls: int
    max_epochs: int
    weight_order: Optional[int]
    wall_time_s: float

    def to_json(self) -> dict:
        return {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "repeats": self.repeats,
            "eta_search": self.eta_search,
            "lambda_search": self.lambda_search,
            "selected_eta": self.selected_eta,
            "selected_lambda": self.selected_lambda,
            "test": {
                "accuracies": self.test_accuracies,
                "mean": self.test_mean,
                "std": self.test_std,
                "max": self.test_max,
            },
            "matcher_calls": self.matcher_calls,
            "max_epochs": self.max_epochs,
            "weight_order": self.weight_order,
            "wall_time_s": self.wall_time_s,
        }

    def to_text(self) -> str:
        lines = [
            f"dataset     {self.dataset}",
            f"algorithm   {self.algorithm}",
            f"repeats     {self.repeats}   seed {self.seed}",
        ]
        if self.eta_search:
            lines.append("learning-rate search (validation accuracy):")
            for row in self.eta_search:
                lines.append(f"  eta={row['value']:<8g} mean={row['mean']:.4f}  sd={row['std']:.4f}")
        if self.lambda_search:
            lines.append("margin search (validation accuracy):")
            for row in self.lambda_search:
                lines.append(f"  lam={row['value']:<8g} mean={row['mean']:.4f}  sd={row['std']:.4f}")
        if self.selected_eta is not None:
            lines.append(f"selected    eta={self.selected_eta:g}"
                         + (f" lambda={self.selected_lambda:g}" if self.selected_lambda is not None else ""))
        lines.append(
            f"test        mean={self.test_mean:.4f}  sd={self.test_std:.4f}  max={self.test_max:.4f}"
        )
        lines.append(f"matcher     {self.matcher_calls} calls   wall {self.wall_time_s:.2f}s")
        return "\n".join(lines)


def _check_split(dataset: Dataset, name: str):
    examples = dataset.split(name)
    if not examples:
        raise ValidationError(f"split {name!r} is empty")
    if len({ex.y for ex in examples}) < 2:
        raise ValidationError(f"split {name!r} contains a single class")
    return examples


def _fit(train_examples, dataset: Dataset, cfg: ProtocolConfig, eta, lam, seed):
    tc = TrainConfig(
        learning_rate=eta, margin=lam, max_epochs=cfg.max_epochs,
        weight_order=cfg.weight_order, seed=seed, matcher=cfg.matcher,
    )
    if len(dataset.class_set) == 2:
        return _fit_binary(_signed(train_examples, dataset.class_set[0]), tc, traced=False)[0]
    return _fit_one_vs_all(train_examples, tc, traced=False)[0]


def _accuracy(model, dataset: Dataset, examples) -> float:
    if isinstance(model, OvaModel):
        hits = sum(predict_multiclass(model, ex.graph) == ex.y for ex in examples)
    else:
        hits = sum(classify(model, ex.graph) == ex.y
                   for ex in _signed(examples, dataset.class_set[0]))
    return hits / len(examples)


def _grid_stage(cfg: ProtocolConfig, dataset, train, validation, stage, grid, eta=None):
    """Score every grid value on validation; return (rows, best value)."""
    rows = []
    best_value = None
    best_mean = -1.0
    for ci, value in enumerate(grid):
        accs = []
        for rep in range(cfg.repeats):
            seed = derive_seed(cfg.seed, stage, ci, rep)
            if stage == _STAGE_ETA:
                model = _fit(train, dataset, cfg, value, 0.0, seed)
            else:
                model = _fit(train, dataset, cfg, eta, value, seed)
            accs.append(_accuracy(model, dataset, validation))
        mean = float(np.mean(accs))
        rows.append({
            "value": value,
            "accuracies": accs,
            "mean": mean,
            "std": float(np.std(accs)),
        })
        if mean > best_mean:
            best_mean = mean
            best_value = value
    return rows, best_value


def run_protocol(cfg: ProtocolConfig) -> ProtocolReport:
    """Run the full two-stage protocol and assemble a reproducible report."""
    started = time.perf_counter()
    calls_before = matcher_call_count()
    dataset = cfg.dataset
    train = _check_split(dataset, "train")
    validation = _check_split(dataset, "validation")
    test = _check_split(dataset, "test")
    trainval = train + validation

    eta_rows: List[dict] = []
    lambda_rows: List[dict] = []
    selected_eta = None
    selected_lambda = None

    if cfg.algorithm == "knn":
        hits = sum(
            knn_classify(trainval, ex.graph, 1, cfg.matcher) == ex.y for ex in test
        )
        test_accs = [hits / len(test)]
    else:
        eta_rows, selected_eta = _grid_stage(
            cfg, dataset, train, validation, _STAGE_ETA, cfg.eta_grid
        )
        if cfg.algorithm == "margin_perceptron":
            lambda_rows, selected_lambda = _grid_stage(
                cfg, dataset, train, validation, _STAGE_LAMBDA, cfg.lambda_grid,
                eta=selected_eta,
            )
        test_accs = []
        lam = selected_lambda if selected_lambda is not None else 0.0
        for rep in range(cfg.repeats):
            seed = derive_seed(cfg.seed, _STAGE_TEST, 0, rep)
            model = _fit(trainval, dataset, cfg, selected_eta, lam, seed)
            test_accs.append(_accuracy(model, dataset, test))

    return ProtocolReport(
        dataset=dataset.name,
        algorithm=cfg.algorithm,
        seed=cfg.seed,
        repeats=cfg.repeats if cfg.algorithm != "knn" else 1,
        eta_search=eta_rows,
        lambda_search=lambda_rows,
        selected_eta=selected_eta,
        selected_lambda=selected_lambda,
        test_accuracies=test_accs,
        test_mean=float(np.mean(test_accs)),
        test_std=float(np.std(test_accs)),
        test_max=float(np.max(test_accs)),
        matcher_calls=matcher_call_count() - calls_before,
        max_epochs=cfg.max_epochs,
        weight_order=cfg.weight_order,
        wall_time_s=time.perf_counter() - started,
    )
