"""Two-stage experimental protocol: grid search on validation, repeated test runs.

Stage 1 trains on the train split and scores on validation, repeating each grid
cell and keeping the hyperparameter with the best mean accuracy (ties go to the
smaller value). The margin algorithm first adopts the plain perceptron's best
learning rate, then searches the margin grid. Stage 2, a grid stage of the one
selected value, retrains on train+validation and scores on test, reporting the
mean, standard deviation and maximum test accuracy over the repeats. Every
run's seed is derived from (seed, stage, config index, repeat), so reports are
reproducible. The runs of a stage are fit together in lockstep
(`learning._epochs`) and scored together, each as it would be alone.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .data_io import Dataset
from .exceptions import ValidationError, check_count, check_number, checked
from .learning import TrainConfig, _RATE_RULES, _fit_stage, _signed, derive_seed, knn_classify
from .matching import MatcherConfig, matcher_call_count
from .model import OvaModel, _predictions

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
    # every fit's TrainConfig takes these, so they default and are judged as there
    seed: int = TrainConfig.seed
    matcher: MatcherConfig = field(default_factory=MatcherConfig)
    max_epochs: int = TrainConfig.max_epochs
    weight_order: Optional[int] = TrainConfig.weight_order

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        # every grid value by its rate's rule, whatever the algorithm
        for name, rate in (("eta_grid", "learning_rate"), ("lambda_grid", "margin")):
            values = checked(name, iter, getattr(self, name))
            grid = tuple(sorted(check_number(name, v, *_RATE_RULES[rate]) for v in values))
            if not grid:
                raise ValidationError(f"{name!r}: expected a non-empty list of numbers")
            object.__setattr__(self, name, grid)
        object.__setattr__(self, "repeats", check_count("repeats", self.repeats))
        fit = TrainConfig(learning_rate=1.0, max_epochs=self.max_epochs,
                          weight_order=self.weight_order, seed=self.seed)
        for name in ("seed", "max_epochs", "weight_order"):
            object.__setattr__(self, name, getattr(fit, name))


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
        """The fields in order, the `test_*` ones nested under "test" without the prefix."""
        doc = {}
        for name, value in asdict(self).items():
            if name.startswith("test_"):
                doc.setdefault("test", {})[name[len("test_"):]] = value
            else:
                doc[name] = value
        return doc

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


def _accuracies(models, dataset: Dataset, examples) -> List[float]:
    """Accuracy of each model on `examples`, as `classify` or `predict_multiclass`
    scores it; at each graph, every member of every model is scored in one batch."""
    if not isinstance(models[0], OvaModel):
        examples = _signed(examples, dataset.class_set[0])
    hits = [0] * len(models)
    for predicted, ex in zip(_predictions(models, [ex.graph for ex in examples]), examples):
        hits = [h + (p == ex.y) for h, p in zip(hits, predicted)]
    return [h / len(examples) for h in hits]


def _grid_stage(cfg: ProtocolConfig, dataset, train, validation, stage, grid, eta=None):
    """Fit every (value, repeat) of `grid` on `train` in one lockstep stage, binary
    on a two-class dataset and one-against-all otherwise, and score it on
    `validation`; return (rows, the value of the first row with the largest mean).
    A run is (eta=value, lambda=0) on the learning-rate stage, else (eta,
    lambda=value), and run (ci, rep) is seeded derive_seed(seed, stage, ci, rep)."""
    binary = len(dataset.class_set) == 2
    configs = [TrainConfig(learning_rate=value if stage == _STAGE_ETA else eta,
                           margin=0.0 if stage == _STAGE_ETA else value,
                           max_epochs=cfg.max_epochs, weight_order=cfg.weight_order,
                           seed=derive_seed(cfg.seed, stage, ci, rep), matcher=cfg.matcher)
               for ci, value in enumerate(grid) for rep in range(cfg.repeats)]
    data = _signed(train, dataset.class_set[0]) if binary else train
    fitted = _fit_stage(data, configs, multiclass=not binary, traced=False)
    accs = _accuracies([model for model, _ in fitted], dataset, validation)
    rows = []
    for ci, value in enumerate(grid):
        row_accs = accs[ci * cfg.repeats : (ci + 1) * cfg.repeats]
        rows.append({"value": value, "accuracies": row_accs,
                     "mean": float(np.mean(row_accs)), "std": float(np.std(row_accs))})
    return rows, max(rows, key=lambda row: row["mean"])["value"]


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
        lam = selected_lambda if selected_lambda is not None else 0.0
        (test_row,), _ = _grid_stage(cfg, dataset, trainval, test, _STAGE_TEST, [lam],
                                     eta=selected_eta)
        test_accs = test_row["accuracies"]

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
