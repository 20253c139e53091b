"""Lockstep stages: fitting and scoring many models together equals doing it one by one."""
import json
import re

import numpy as np
import pytest

import sublin.model
from conftest import rand_graph, three_class_examples
from sublin import (AttributedGraph, CapacityError, Dataset, LabeledExample, MatcherConfig,
                    OvaModel, Representation, SublinearModel, SyntheticSpec, TrainConfig,
                    ValidationError, classify, derive_seed,
                    generate_synthetic, matcher_call_count, optimal_align, predict_multiclass,
                    train_binary, train_one_vs_all, write_jsonl)
from sublin.learning import _fit_stage
from sublin.protocol import ProtocolConfig, ProtocolReport, _accuracies, run_protocol
from test_protocol_cli import run_cli

EXACT = MatcherConfig()
GRADUATED = MatcherConfig(method="graduated")


def binary_dataset(seed, train, val, test):
    spec = SyntheticSpec(n_examples={"train": train, "validation": val, "test": test},
                         order_range=(2, 4), attr_dim=2, planted_order=3,
                         planted_margin=0.4, edge_density=0.6, seed=seed)
    return generate_synthetic(spec)[0]


def three_class_dataset(seed, train, val, test):
    rng = np.random.default_rng(seed)
    return Dataset("three-class", {name: three_class_examples(rng, size) for name, size
                                   in (("train", train), ("validation", val), ("test", test))},
                   ("c0", "c1", "c2"))


def reference_protocol(cfg: ProtocolConfig) -> dict:
    """`run_protocol(cfg).to_json()` without its wall time, from lone fits: each
    run is trained alone by `train_binary`/`train_one_vs_all` and scored one graph
    at a time by `classify`/`predict_multiclass`. The traces' per-epoch split
    passes (one solver call per training example, member and epoch) are not
    counted, since protocol fits skip them."""
    ds = cfg.dataset
    train, validation, test = (ds.split(s) for s in ("train", "validation", "test"))
    binary = len(ds.class_set) == 2
    calls = matcher_call_count()
    trace_calls = 0

    def fit(data, eta, lam, seed):
        nonlocal trace_calls
        tc = TrainConfig(learning_rate=eta, margin=lam, max_epochs=cfg.max_epochs,
                         weight_order=cfg.weight_order, seed=seed, matcher=cfg.matcher)
        if binary:
            signed = [LabeledExample(ex.graph, 1 if ex.y == ds.class_set[0] else -1)
                      for ex in data]
            model, trace = train_binary(signed, tc)
            traces = [trace]
        else:
            model, traces = train_one_vs_all(data, tc)
        trace_calls += sum(t.final_epoch for t in traces) * len(data)
        return model

    def accuracy(model, examples):
        if binary:
            hits = sum(classify(model, ex.graph) == (1 if ex.y == ds.class_set[0] else -1)
                       for ex in examples)
        else:
            hits = sum(predict_multiclass(model, ex.graph) == ex.y for ex in examples)
        return hits / len(examples)

    def grid(stage, values, run):
        rows, best, best_mean = [], None, -1.0
        for ci, value in enumerate(values):
            accs = [accuracy(fit(train, *run(value), derive_seed(cfg.seed, stage, ci, rep)),
                             validation) for rep in range(cfg.repeats)]
            rows.append({"value": value, "accuracies": accs, "mean": float(np.mean(accs)),
                         "std": float(np.std(accs))})
            if rows[-1]["mean"] > best_mean:
                best, best_mean = value, rows[-1]["mean"]
        return rows, best

    eta_rows, eta = grid(1, cfg.eta_grid, lambda v: (v, 0.0))
    lambda_rows, lam = [], None
    if cfg.algorithm == "margin_perceptron":
        lambda_rows, lam = grid(2, cfg.lambda_grid, lambda v: (eta, v))
    accs = [accuracy(fit(train + validation, eta, lam or 0.0, derive_seed(cfg.seed, 3, 0, rep)),
                     test) for rep in range(cfg.repeats)]
    doc = ProtocolReport(ds.name, cfg.algorithm, cfg.seed, cfg.repeats, eta_rows, lambda_rows,
                         eta, lam, accs, float(np.mean(accs)), float(np.std(accs)),
                         float(np.max(accs)), matcher_call_count() - calls - trace_calls,
                         cfg.max_epochs, cfg.weight_order, 0.0).to_json()
    del doc["wall_time_s"]
    return doc


# (dataset, matcher, algorithm, grids, repeats, max_epochs): the exact cases have
# fits that stop at different epochs within one stage (a margin the sample never
# clears runs to max_epochs, a small one converges early)
PROTOCOL_CASES = {
    "exact-binary": (binary_dataset(11, 16, 8, 8), EXACT, "margin_perceptron",
                     (0.1, 0.5, 0.9), (0.05, 0.2, 40.0), 3, 6),
    "exact-3class": (three_class_dataset(17, 9, 6, 6), EXACT, "margin_perceptron",
                     (0.1, 0.5), (0.05, 40.0), 2, 5),
    "exact-perceptron": (binary_dataset(12, 12, 6, 6), EXACT, "perceptron",
                         (0.1, 0.5), (0.1,), 3, 4),
    "graduated-binary": (binary_dataset(13, 6, 4, 4), GRADUATED, "margin_perceptron",
                         (0.1, 0.5), (0.05, 40.0), 1, 1),
    "graduated-3class": (three_class_dataset(19, 6, 3, 3), GRADUATED, "perceptron",
                         (0.5,), (0.1,), 1, 1),
}


@pytest.mark.parametrize("case", list(PROTOCOL_CASES))
def test_protocol_equals_lone_fits(case):
    ds, matcher, algorithm, etas, lambdas, repeats, max_epochs = PROTOCOL_CASES[case]
    cfg = ProtocolConfig(dataset=ds, algorithm=algorithm, eta_grid=etas, lambda_grid=lambdas,
                         repeats=repeats, seed=5, matcher=matcher, max_epochs=max_epochs)
    got = run_protocol(cfg).to_json()
    del got["wall_time_s"]
    assert json.dumps(got, sort_keys=True) == json.dumps(reference_protocol(cfg), sort_keys=True)


def _same_model(got, want):
    assert got.weight_rep.cells.tobytes() == want.weight_rep.cells.tobytes()
    assert got.weight_rep.cells.shape == want.weight_rep.cells.shape
    assert got.bias == want.bias
    assert got.metadata == want.metadata
    assert got.matcher == want.matcher


@pytest.mark.parametrize("matcher", [EXACT, GRADUATED], ids=["exact", "graduated"])
@pytest.mark.parametrize("multiclass", [False, True], ids=["binary", "3class"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_stage_models_equal_lone_fits(matcher, multiclass, traced):
    # learning rates, margins, epoch limits, weight orders and seeds all differ
    # between the fits of one stage
    if multiclass:
        data = three_class_examples(np.random.default_rng(23), 9)
    else:
        data = [LabeledExample(ex.graph, 1 if ex.y == "pos" else -1)
                for ex in binary_dataset(29, 12, 2, 2).split("train")]
    runs = [(0.1, 40.0, 3, None, 1), (0.9, 0.2, 1, 2, 2), (0.5, 0.0, 8, None, 0),
            (0.3, 0.05, 8, 5, 3), (0.5, 0.0, 8, None, 4)]
    if matcher.method == "graduated":  # a few small fits: GA costs milliseconds a call
        data, runs = data[:4], runs[:3]
    cfgs = [TrainConfig(learning_rate=eta, margin=lam, max_epochs=epochs, weight_order=order,
                        seed=seed, matcher=matcher) for eta, lam, epochs, order, seed in runs]
    lone_calls = matcher_call_count()
    lone = [(train_one_vs_all if multiclass else train_binary)(data, cfg) for cfg in cfgs]
    lone_calls = matcher_call_count() - lone_calls
    calls = matcher_call_count()
    stage = _fit_stage(data, cfgs, multiclass, traced)
    calls = matcher_call_count() - calls
    epochs = set()
    for (model, traces), (want, want_traces) in zip(stage, lone, strict=True):
        if multiclass:
            assert model.classes == want.classes
            pairs = list(zip(model.members, want.members, strict=True))
        else:
            pairs, traces, want_traces = [(model, want)], (traces,), (want_traces,)
        for got_member, want_member in pairs:
            _same_model(got_member, want_member)
            epochs.add(got_member.metadata["epochs_run"])
        assert traces == (want_traces if traced else (None,) * len(want_traces))
    assert len(epochs) > 2  # fits stopped at different epochs
    trace_calls = sum(t.final_epoch for _, ts in lone
                      for t in (ts if multiclass else (ts,))) * len(data)
    assert calls == (lone_calls if traced else lone_calls - trace_calls)


def test_split_scoring_solves_one_graph_at_a_time(monkeypatch):
    # a split many times the size of a benchmark's is scored one graph at a
    # time, every member of every model in one batch, so a pass never holds
    # more pairs than there are members; accuracies are those of lone scoring
    data = three_class_examples(np.random.default_rng(41), 12)
    models = [model for model, _ in _fit_stage(
        data, [TrainConfig(learning_rate=eta, max_epochs=2, seed=seed)
               for eta, seed in ((0.1, 0), (0.5, 1))], multiclass=True, traced=False)]
    ds = Dataset("three-class", {"train": data, "validation": data, "test": data},
                 ("c0", "c1", "c2"))
    split = three_class_examples(np.random.default_rng(43), 600)
    want = [sum(predict_multiclass(m, ex.graph) == ex.y for ex in split) / len(split)
            for m in models]
    batches, solve = [], sublin.model._solve
    monkeypatch.setattr(sublin.model, "_solve",
                        lambda pairs, cfg: batches.append(len(pairs)) or solve(pairs, cfg))
    assert _accuracies(models, ds, split) == want
    assert batches == [6] * len(split)


ZERO_EDGE = AttributedGraph([[1.0, 0.0], [0.0, 1.0]], [(0, 1, [0.0, 0.0])])


def _faulty_dataset(faults):
    """A binary dataset whose training split has `faults` ({index: kind}) among
    order-4 graphs."""
    rng = np.random.default_rng(37)
    bad = {"order": lambda: rand_graph(rng, 9, 2), "zero-edge": lambda: ZERO_EDGE}
    train = [LabeledExample(bad[faults[i]]() if i in faults else rand_graph(rng, 4, 2),
                            "pos" if i % 2 else "neg") for i in range(8)]
    held = [LabeledExample(rand_graph(rng, 4, 2), y) for y in ("pos", "neg", "pos", "neg")]
    return Dataset("faulty", {"train": train, "validation": held[:2], "test": held[2:]},
                   ("pos", "neg"))


FAULTS = [{5: "order"}, {2: "zero-edge"}, {2: "zero-edge", 5: "order"},
          {2: "order", 5: "zero-edge"}]


def _first_error(ds, weight_order):
    """The error of the first training graph that fails alone against zero weights."""
    w = Representation.zeros(weight_order, 2)
    with pytest.raises(ValidationError) as first:
        for ex in ds.split("train"):
            optimal_align(w, ex.graph, EXACT)
    return first.value


@pytest.mark.parametrize("faults", FAULTS)
def test_first_bad_training_graph_named(faults):
    # every training graph is checked before any fit of the stage starts: the
    # error is the one the first bad graph raises alone, and no solver call is counted
    ds = _faulty_dataset(faults)
    want = _first_error(ds, 5)
    cfg = ProtocolConfig(dataset=ds, algorithm="margin_perceptron", eta_grid=(0.1, 0.5),
                         lambda_grid=(0.1,), repeats=3, seed=1, max_epochs=2, weight_order=5)
    calls = matcher_call_count()
    with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
        run_protocol(cfg)
    assert matcher_call_count() == calls


@pytest.mark.parametrize("faults", FAULTS)
def test_first_bad_training_graph_named_by_cli(tmp_path, faults):
    ds = _faulty_dataset(faults)
    write_jsonl(ds, tmp_path / "ds")
    cfg_path = tmp_path / "proto.json"
    cfg_path.write_text(json.dumps({"dataset": str(tmp_path / "ds"), "algorithm": "perceptron",
                                    "eta_grid": [0.1, 0.5], "repeats": 2, "seed": 3,
                                    "max_epochs": 2, "weight_order": 5}))
    proc = run_cli("protocol", "--config", str(cfg_path))
    assert proc.returncode == 1
    assert str(_first_error(ds, 5)) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_first_bad_graph_named_for_members_of_different_orders():
    # each graph is checked once against every member, the exact cap against the
    # largest member's order: the first graph's CapacityError for orders (9, 3),
    # not the second graph's attribute dimension, and no solver call is counted
    rng = np.random.default_rng(41)
    members = tuple(SublinearModel.from_weight_graph(rand_graph(rng, n, 2), 0.0, EXACT)
                    for n in (2, 9))
    ova = OvaModel(("a", "b"), members)
    g_ok, g_bad_dim = rand_graph(rng, 3, 2), rand_graph(rng, 3, 3)
    with pytest.raises(CapacityError) as alone:
        predict_multiclass(ova, g_ok)
    assert str(alone.value).startswith("orders (9, 3) exceed the exact cap 8")
    calls = matcher_call_count()
    with pytest.raises(CapacityError, match=f"^{re.escape(str(alone.value))}$"):
        next(sublin.model._predictions([ova], [g_ok, g_bad_dim]))
    assert matcher_call_count() == calls


def test_models_of_different_dimensions_refused_before_any_graph():
    # the first sides of one batch share one attribute dimension; a graph that
    # agrees with the first of them is not judged against the second
    rng = np.random.default_rng(43)
    models = [SublinearModel.from_weight_graph(rand_graph(rng, 3, d), 0.0, EXACT) for d in (2, 3)]
    calls = matcher_call_count()
    with pytest.raises(ValidationError, match=r"^attribute dimensions differ: 2 vs 3$"):
        next(sublin.model._predictions(models, [rand_graph(rng, 3, 2)]))
    assert matcher_call_count() == calls
