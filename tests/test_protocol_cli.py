import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sublin
from conftest import FIRST_GA_SCHEDULE, rand_graph, three_class_examples
from sublin import (AttributedGraph, CapacityError, Dataset, LabeledExample, MatcherConfig,
                    OvaModel, Representation, SublinearModel, SyntheticSpec, ValidationError,
                    binary_examples, classify, generate_synthetic, knn_classify,
                    matcher_call_count, predict_multiclass, read_jsonl, save_model, train_binary,
                    train_one_vs_all, TrainConfig, write_jsonl)
from sublin.protocol import ProtocolConfig, run_protocol


def synth(seed=11, train=16, val=8, test=8):
    spec = SyntheticSpec(n_examples={"train": train, "validation": val, "test": test},
                         order_range=(2, 4), attr_dim=2, planted_order=3,
                         planted_margin=0.4, edge_density=0.6, seed=seed)
    ds, _ = generate_synthetic(spec)
    return ds


class TestRunProtocol:
    def test_reproducible_reports(self):
        ds = synth()
        cfg = ProtocolConfig(dataset=ds, algorithm="margin_perceptron",
                             eta_grid=(0.1, 0.5), lambda_grid=(0.05, 0.1),
                             repeats=2, seed=5, max_epochs=12)
        d1 = run_protocol(cfg).to_json()
        d2 = run_protocol(cfg).to_json()
        d1.pop("wall_time_s")
        d2.pop("wall_time_s")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    @pytest.mark.parametrize("algorithm", ["margin_perceptron", "knn"])
    def test_report_json_key_order(self, algorithm):
        # report.json lists keys in this order; the benchmark's digests sort keys,
        # so they cannot see a reordering
        cfg = ProtocolConfig(dataset=synth(), algorithm=algorithm, eta_grid=(0.5,),
                             lambda_grid=(0.1,), repeats=1, max_epochs=3)
        doc = json.loads(json.dumps(run_protocol(cfg).to_json()))
        assert list(doc) == ["dataset", "algorithm", "seed", "repeats", "eta_search",
                             "lambda_search", "selected_eta", "selected_lambda", "test",
                             "matcher_calls", "max_epochs", "weight_order", "wall_time_s"]
        assert list(doc["test"]) == ["accuracies", "mean", "std", "max"]
        for row in doc["eta_search"] + doc["lambda_search"]:
            assert list(row) == ["value", "accuracies", "mean", "std"]
        assert len(doc["lambda_search"]) == (algorithm == "margin_perceptron")

    def test_summary_consistent_with_stored_runs(self):
        ds = synth(seed=12)
        cfg = ProtocolConfig(dataset=ds, algorithm="perceptron", eta_grid=(0.1, 0.5),
                             repeats=3, seed=1, max_epochs=10)
        report = run_protocol(cfg)
        assert report.test_mean == float(np.mean(report.test_accuracies))
        assert report.test_std == float(np.std(report.test_accuracies))
        assert report.test_max == float(np.max(report.test_accuracies))
        for row in report.eta_search:
            assert row["mean"] == float(np.mean(row["accuracies"]))
            assert row["std"] == float(np.std(row["accuracies"]))

    def test_selection_ties_prefer_smaller_value(self):
        # a generously separable set is learned perfectly at every grid value,
        # so the tie must resolve to the smallest one
        ds = synth(seed=13)
        cfg = ProtocolConfig(dataset=ds, algorithm="margin_perceptron",
                             eta_grid=(0.9, 0.3), lambda_grid=(0.1, 0.02),
                             repeats=2, seed=2, max_epochs=40)
        report = run_protocol(cfg)
        rows = {r["value"]: r["mean"] for r in report.eta_search}
        if rows[0.3] == rows[0.9]:
            assert report.selected_eta == 0.3
        lrows = {r["value"]: r["mean"] for r in report.lambda_search}
        if lrows[0.02] == lrows[0.1]:
            assert report.selected_lambda == 0.02

    def test_knn_is_single_deterministic_run(self):
        ds = synth(seed=14)
        report = run_protocol(ProtocolConfig(dataset=ds, algorithm="knn", seed=0))
        assert report.repeats == 1
        assert report.test_std == 0.0
        assert report.test_mean == report.test_max
        assert len(report.test_accuracies) == 1

    def test_missing_split_rejected(self):
        ds = synth()
        ds2 = Dataset(ds.name, {"train": ds.split("train"), "validation": ds.split("validation")},
                      ds.class_set, ds.provenance)
        with pytest.raises(ValidationError):
            run_protocol(ProtocolConfig(dataset=ds2, algorithm="perceptron"))

    def test_single_class_split_rejected(self):
        g = AttributedGraph([[1.0]])
        mono = [LabeledExample(g, "a")] * 4
        ds = Dataset("mono", {"train": mono, "validation": mono, "test": mono}, ("a", "b"))
        with pytest.raises(ValidationError):
            run_protocol(ProtocolConfig(dataset=ds, algorithm="perceptron"))

    @pytest.mark.parametrize("grid", ["eta_grid", "lambda_grid"])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ValidationError) as refused:
            ProtocolConfig(dataset=synth(), algorithm="perceptron", **{grid: ()})
        assert str(refused.value) == f"{grid!r}: expected a non-empty list of numbers"

    def test_empty_validation_split_rejected(self):
        ds = synth()
        empty = Dataset(ds.name, {**ds.splits, "validation": []}, ds.class_set)
        before = matcher_call_count()
        with pytest.raises(ValidationError) as refused:
            run_protocol(ProtocolConfig(dataset=empty, algorithm="perceptron"))
        assert str(refused.value) == "split 'validation' is empty"
        assert matcher_call_count() == before

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(dataset=synth(), algorithm="svm")

    @pytest.mark.parametrize("field, value", [
        ("repeats", 1.5), ("repeats", True), ("max_epochs", 2.5), ("max_epochs", False),
        ("weight_order", 2.5), ("weight_order", True),
    ])
    def test_non_integer_count_rejected(self, field, value):
        # refused when built, not later as a TypeError from range
        with pytest.raises(ValidationError, match=f"'{field}': expected an integer of at least"):
            ProtocolConfig(dataset=synth(), algorithm="perceptron", **{field: value})

    @pytest.mark.parametrize("value, message", [
        (1.5, "'seed': expected an integer of at least 0, got 1.5"),
        (True, "'seed': expected an integer of at least 0, got True"),
        (-1, "'seed': expected an integer of at least 0"),
    ], ids=["1.5-seed must be an integer", "True-seed must be an integer",
            "-1-seed must be at least 0"])
    def test_bad_seed_rejected(self, value, message):
        # refused when built: derive_seed would otherwise run seed 1.5 or True as seed 1
        with pytest.raises(ValidationError, match=message):
            ProtocolConfig(dataset=synth(), algorithm="perceptron", seed=value)

    @pytest.mark.parametrize("algorithm", ["perceptron", "margin_perceptron", "knn"])
    @pytest.mark.parametrize("grid, message", [
        ({"eta_grid": (0.0, 0.1)}, "'eta_grid': expected a positive number ('eta'), got 0.0"),
        ({"eta_grid": (0.1, -0.5)}, "'eta_grid': expected a positive number ('eta'), got -0.5"),
        ({"lambda_grid": (-0.1,)},
         "'lambda_grid': expected a non-negative number ('lambda'), got -0.1"),
    ], ids=["eta-zero", "eta-negative", "lambda-negative"])
    def test_grid_values_judged_by_the_rate_rules(self, algorithm, grid, message):
        # TrainConfig's rules (eta > 0, lambda >= 0), applied when the config is
        # built and for every algorithm, before any fit
        ds, before = synth(), matcher_call_count()
        with pytest.raises(ValidationError) as refused:
            ProtocolConfig(dataset=ds, algorithm=algorithm, **grid)
        assert str(refused.value) == message
        assert matcher_call_count() == before
        ProtocolConfig(dataset=ds, algorithm=algorithm, eta_grid=(0.1,), lambda_grid=(0.0,))

    def test_numpy_integer_fields_stored_as_int(self):
        # the report and the models' metadata carry them into JSON
        cfg = ProtocolConfig(dataset=synth(), algorithm="perceptron", repeats=np.int64(2),
                             seed=np.uint8(3), max_epochs=np.int32(4), weight_order=np.int64(5))
        fields = (cfg.repeats, cfg.seed, cfg.max_epochs, cfg.weight_order)
        assert [type(v) for v in fields] == [int] * 4
        assert fields == (2, 3, 4, 5)



class TestCallAccounting:
    def test_one_vs_all_prediction_costs_one_call_per_class(self):
        data = [LabeledExample(AttributedGraph(2.0 * np.eye(3)[[i]]), f"c{i}") for i in range(3)]
        ova, _ = train_one_vs_all(data, TrainConfig(learning_rate=0.5, max_epochs=10, seed=0))
        before = matcher_call_count()
        predict_multiclass(ova, data[0].graph)
        assert matcher_call_count() - before == len(ova.classes)

    def test_knn_query_costs_one_call_per_training_graph(self):
        ds = synth(seed=15)
        train = ds.split("train")
        before = matcher_call_count()
        knn_classify(train, ds.split("test")[0].graph, 1, MatcherConfig())
        assert matcher_call_count() - before == len(train)


def run_python(*args, timeout=None):
    # a fresh interpreter runs the same sources as the tests, installed or not
    src = os.path.dirname(os.path.dirname(sublin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=timeout,
    )


def run_cli(*args, timeout=None):
    return run_python("-m", "sublin.cli", *args, timeout=timeout)


def test_numpy_is_the_only_runtime_dependency():
    # the modules that start-up loads (site-packages hooks among them) are the
    # baseline; an exact and a graduated dot product and one training epoch may
    # add no top-level module but numpy, sublin and the standard library's
    proc = run_python("-c", """if True:
        import sys
        def top_level():
            return {name.partition(".")[0] for name in sys.modules}
        before = top_level()
        from sublin import AttributedGraph, LabeledExample, TrainConfig, ga_sdp, sdp, train_binary
        a = AttributedGraph([[1.0], [2.0]], [(0, 1, [1.0])])
        b = AttributedGraph([[0.5], [1.0], [-1.5]], [(1, 2, [2.0])])
        assert sdp(a, b).exact and not ga_sdp(a, b).exact
        train_binary([LabeledExample(a, 1), LabeledExample(b, -1)],
                     TrainConfig(learning_rate=0.5, max_epochs=1))
        new = top_level() - before - set(sys.stdlib_module_names)
        # numpy.random's compiled extensions register Cython's runtime modules
        # (cython_runtime, _cython_<version>), which have no file and no package
        print(" ".join(sorted(name for name in new
                              if getattr(sys.modules.get(name), "__file__", None))))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy", "sublin"]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ds"
    write_jsonl(synth(seed=21, train=12, val=6, test=6), path)
    return path


class TestCli:
    def test_dot_running_pair(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"id": "x", "class": "?", "nodes": [[1.0], [2.0]], "edges": [[0, 1, [1.0]]]}\n')
        b.write_text('{"id": "y", "class": "?", "nodes": [[2.0], [1.0]], "edges": [[0, 1, [1.0]]]}\n')
        proc = run_cli("dot", str(a), str(b), "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["value"] == 7.0
        assert doc["exact"] is True
        assert sorted(map(tuple, doc["match"])) == [(0, 1), (1, 0)]

    def test_dot_gxl(self, tmp_path):
        gxl = ('<gxl><graph id="g"><node id="a"><attr name="x"><float>1</float></attr>'
               '<attr name="y"><float>0</float></attr></node></graph></gxl>')
        p = tmp_path / "g.gxl"
        p.write_text(gxl)
        proc = run_cli("dot", str(p), str(p), "--json")  # .gxl files read the letter schema
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == 1.0

    def test_synth_train_eval_round_trip(self, tmp_path):
        spec = {"n_examples": {"train": 10, "validation": 4, "test": 6},
                "order_range": [2, 4], "attr_dim": 2, "planted_order": 3,
                "planted_margin": 0.4, "edge_density": 0.6, "seed": 3}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        data_dir = tmp_path / "data"
        assert run_cli("synth", "--spec", str(spec_path), "--out", str(data_dir)).returncode == 0

        train_cfg = {"data": str(data_dir), "eta": 0.3, "lambda": 0.05,
                     "max_epochs": 40, "seed": 1}
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(train_cfg))
        out_dir = tmp_path / "run"
        proc = run_cli("train", "--config", str(cfg_path), "--out", str(out_dir))
        assert proc.returncode == 0, proc.stderr
        assert (out_dir / "model.json").exists()
        assert (out_dir / "trace.jsonl").exists()

        proc = run_cli("eval", "--model", str(out_dir / "model.json"),
                       "--data", str(data_dir), "--split", "train")
        assert proc.returncode == 0, proc.stderr
        assert "accuracy 1.0000" in proc.stdout

    @staticmethod
    def _eval_doc(model, dataset, split):
        """What `sublin eval --json` reports, scored one example at a time."""
        examples = dataset.split(split)
        classes = list(dataset.class_set)
        confusion = {str(t): {str(p): 0 for p in classes} for t in classes}
        hits = 0
        for ex in examples:
            if isinstance(model, OvaModel):
                pred = predict_multiclass(model, ex.graph)
            else:
                positive = model.metadata["positive_class"]
                negative = next(str(c) for c in classes if str(c) != positive)
                pred = positive if classify(model, ex.graph) == 1 else negative
            confusion[str(ex.y)][str(pred)] += 1
            hits += str(pred) == str(ex.y)
        return {"split": split, "n": len(examples), "accuracy": hits / len(examples),
                "confusion": confusion}

    @pytest.mark.parametrize("kind", ["binary", "ova"])
    def test_eval_equals_example_by_example_loop(self, tmp_path, dataset_dir, kind):
        cfg = TrainConfig(learning_rate=0.3, margin=0.1, max_epochs=2, seed=4)
        if kind == "binary":
            data = dataset_dir
            dataset = read_jsonl(data)
            positive = dataset.class_set[1]  # not the default, so the mapping shows
            model, _ = train_binary(binary_examples(dataset, "train", positive), cfg)
            model.metadata["positive_class"] = str(positive)
        else:
            data = tmp_path / "three"
            rng = np.random.default_rng(8)
            write_jsonl(Dataset("three", {"train": three_class_examples(rng, 9),
                                          "test": three_class_examples(rng, 12)},
                                ("c0", "c1", "c2")), data)
            dataset = read_jsonl(data)
            model, _ = train_one_vs_all(dataset.split("train"), cfg)
        save_model(model, tmp_path / "model.json")
        proc = run_cli("eval", "--model", str(tmp_path / "model.json"), "--data", str(data),
                       "--json")
        assert proc.returncode == 0, proc.stderr
        expected = self._eval_doc(model, dataset, "test")
        assert proc.stdout == json.dumps(expected, indent=2) + "\n"
        assert len({p for row in expected["confusion"].values() for p, c in row.items() if c}) > 1

    def test_eval_over_exact_cap_exits_1(self, tmp_path, dataset_dir):
        # the second test graph is over the cap; the message is the one classify raises
        dataset = read_jsonl(dataset_dir)
        model, _ = train_binary(binary_examples(dataset, "train"),
                                TrainConfig(learning_rate=0.3, max_epochs=2))
        model.metadata["positive_class"] = str(dataset.class_set[0])
        big = rand_graph(np.random.default_rng(5), 9, dataset.attr_dim)
        test = dataset.split("test")
        test.insert(1, LabeledExample(big, test[0].y))
        data = tmp_path / "data"
        write_jsonl(Dataset("capped", {"test": test}, dataset.class_set), data)
        with pytest.raises(CapacityError) as exc:
            classify(model, big)
        save_model(model, tmp_path / "model.json")
        proc = run_cli("eval", "--model", str(tmp_path / "model.json"), "--data", str(data))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {exc.value}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("kind", ["binary", "ova"])
    def test_eval_refuses_a_class_the_dataset_lacks(self, tmp_path, dataset_dir, kind):
        # the confusion matrix has no row for it: refused, not a KeyError traceback
        dataset = read_jsonl(dataset_dir)
        cfg = TrainConfig(learning_rate=0.3, max_epochs=2, seed=4)
        if kind == "binary":
            model, _ = train_binary(binary_examples(dataset, "train"), cfg)
            model.metadata["positive_class"] = "zzz"
        else:
            train = [LabeledExample(ex.graph, "zzz" if k % 3 == 0 else ex.y)
                     for k, ex in enumerate(dataset.split("train"))]
            model, _ = train_one_vs_all(train, cfg)
        save_model(model, tmp_path / "model.json")
        proc = run_cli("eval", "--model", str(tmp_path / "model.json"), "--data", str(dataset_dir))
        assert proc.returncode == 1
        assert proc.stderr == "error: the model's class 'zzz' is not a class of the dataset\n"

    def test_eval_reads_a_numeric_positive_class_as_its_name(self, tmp_path):
        # a hand-written model file may hold `"positive_class": 5`; it names class "5",
        # so each -1 prediction goes to the other class, "7"
        test = [LabeledExample(AttributedGraph([[1.0]]), "5"),
                LabeledExample(AttributedGraph([[-1.0]]), "7")]
        write_jsonl(Dataset("digits", {"test": test}, ["5", "7"]), tmp_path / "data")
        (tmp_path / "model.json").write_text(json.dumps({
            "format_version": 1, "kind": "binary", "attr_dim": 1, "order": 1,
            "weight_cells": [[[1.0]]], "bias": 0.0, "training_metadata": {"positive_class": 5}}))
        proc = run_cli("eval", "--model", str(tmp_path / "model.json"),
                       "--data", str(tmp_path / "data"), "--json")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["accuracy"] == 1.0
        assert doc["confusion"] == {"5": {"5": 1, "7": 0}, "7": {"5": 0, "7": 1}}

    def test_eval_refuses_a_binary_model_on_three_classes(self, tmp_path):
        # each -1 prediction goes to the one class that is not the positive one
        test = [LabeledExample(AttributedGraph([[float(k)]]), c) for k, c in enumerate("abc")]
        write_jsonl(Dataset("three", {"test": test}, "abc"), tmp_path / "data")
        model = SublinearModel(Representation.zeros(1, 1), 0.5, metadata={"positive_class": "a"})
        save_model(model, tmp_path / "model.json")
        proc = run_cli("eval", "--model", str(tmp_path / "model.json"),
                       "--data", str(tmp_path / "data"))
        assert proc.returncode == 1
        assert proc.stderr == ("error: a binary model needs a dataset of exactly 2 classes; "
                               "'three' has 3\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize("task", ["ova", "auto"])
    def test_train_refuses_positive_class_for_one_against_all(self, tmp_path, task):
        # an "ova" task on two classes, or "auto" on three: the key would be ignored
        classes = "ab" if task == "ova" else "abc"
        train = [LabeledExample(AttributedGraph([[float(k)]]), c) for k, c in enumerate(classes)]
        write_jsonl(Dataset("few", {"train": train}, classes), tmp_path / "data")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": str(tmp_path / "data"), "task": task,
                                        "positive_class": "a", "max_epochs": 1}))
        proc = run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert proc.stderr == ("error: 'positive_class': a one-against-all task has no "
                               "positive class\n")
        assert not (tmp_path / "o").exists()

    def test_protocol_command(self, dataset_dir, tmp_path):
        cfg = {"dataset": str(dataset_dir), "algorithm": "perceptron",
               "eta_grid": [0.1, 0.5], "repeats": 2, "seed": 4, "max_epochs": 10}
        cfg_path = tmp_path / "proto.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("protocol", "--config", str(cfg_path), "--out", str(tmp_path / "rep"))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert report["algorithm"] == "perceptron"
        assert len(report["test"]["accuracies"]) == 2

    @pytest.mark.parametrize("algorithm", ["margin_perceptron", "knn"])
    @pytest.mark.parametrize("grid, message", [
        ({"eta_grid": [0.0, 0.1]}, "'eta_grid': expected a positive number ('eta'), got 0.0"),
        ({"lambda_grid": [-0.1]},
         "'lambda_grid': expected a non-negative number ('lambda'), got -0.1"),
    ], ids=["eta-zero", "lambda-negative"])
    def test_protocol_bad_grid_exits_1(self, dataset_dir, tmp_path, algorithm, grid, message):
        cfg = {"dataset": str(dataset_dir), "algorithm": algorithm, "repeats": 1,
               "max_epochs": 1, **grid}
        cfg_path = tmp_path / "proto.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("protocol", "--config", str(cfg_path), "--out", str(tmp_path / "rep"))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert not (tmp_path / "rep").exists()

    def test_bench_gap_nonnegative(self, tmp_path):
        proc = run_cli("--seed", "2", "bench", "--pairs", "12", "--min-order", "2",
                       "--max-order", "4", "--attr-dim", "1", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["gap_min"] >= -1e-9

    @pytest.mark.parametrize("args, flag", [
        (("--pairs", "0"), "--pairs"), (("--pairs", "-2"), "--pairs"),
        (("--min-order", "5", "--max-order", "3"), "--min-order"), (("--min-order", "0"), "--min-order"),
        (("--attr-dim", "0"), "--attr-dim"),
        (("--pairs", "1", "--min-order", "10", "--max-order", "10"), "--max-order"),
    ], ids=["pairs-0", "pairs-negative", "orders-reversed", "min-order-0", "attr-dim-0",
            "max-order-above-exact-limit"])
    def test_bench_rejects_bad_arguments(self, args, flag):
        # with a timeout, a hang (drawing a non-zero empty edge vector) fails instead
        proc = run_cli("bench", *args, timeout=60)
        assert proc.returncode == 1
        assert flag in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, field, size", [
        ("train", "weight_order", 10**9), ("protocol", "weight_order", 10**9),
        ("synth", "attr_dim", 10**18), ("bench", "--attr-dim", 10**18),
    ], ids=["train", "protocol", "synth", "bench"])
    def test_sizes_numpy_refuses_exit_1(self, tmp_path, dataset_dir, command, field, size):
        # every first array asked for holds over 2**63 bytes, so numpy refuses it before
        # allocating anything: the weight is (1e9, 1e9, 2), a graph at least (2, 1e18)
        assert read_jsonl(dataset_dir).attr_dim == 2
        configs = {
            "train": {"data": str(dataset_dir), "weight_order": size},
            "protocol": {"dataset": str(dataset_dir), "algorithm": "perceptron",
                         "eta_grid": [0.5], "repeats": 1, "max_epochs": 1, "weight_order": size},
            "synth": {"n_examples": {"train": 4}, "order_range": [2, 3], "attr_dim": size,
                      "planted_order": 2, "planted_margin": 0.1, "edge_density": 0.5},
        }
        cfg_path = tmp_path / "cfg.json"
        if command == "bench":
            args = ["bench", "--pairs", "1", "--attr-dim", str(size)]
        else:
            cfg_path.write_text(json.dumps(configs[command]))
            args = [command, "--spec" if command == "synth" else "--config", str(cfg_path),
                    "--out", str(tmp_path / "o")]
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {field!r}: {size} is too large\n"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("vec", ['"x"', '{"a": 1}', '["2"]', '[true]', '[null]'],
                             ids=["string", "object", "numeric-string", "boolean", "null"])
    def test_dot_non_numeric_attribute_exits_1(self, tmp_path, vec):
        path = tmp_path / "f.jsonl"
        path.write_text('{"id": "x", "class": "?", "nodes": [[1.0], [2.0]], '
                        f'"edges": [[0, 1, {vec}]]}}\n')
        proc = run_cli("dot", str(path), str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (f"error: {path}: line 1: edge (0, 1) attribute is not a vector "
                               "of numbers\n")

    @pytest.mark.parametrize("command", ["dot", "train", "synth"])
    def test_numbers_outside_the_float_range_exit_1(self, tmp_path, dataset_dir, command):
        # a 401-digit node attribute or eta, and an attribute scale whose range
        # [-scale, scale] overflows, are each refused by their own rule
        huge, cfg = 10**400, tmp_path / "cfg.json"
        if command == "dot":
            path = tmp_path / "f.jsonl"
            path.write_text(json.dumps({"id": "x", "class": "?", "nodes": [[huge]]}) + "\n")
            args, message = ["dot", path, path], f"{path}: line 1: graph attributes must be finite"
        elif command == "train":
            cfg.write_text(json.dumps({"data": str(dataset_dir), "eta": huge}))
            args = ["train", "--config", cfg, "--out", tmp_path / "o"]
            message = f"'learning_rate': expected a positive number ('eta'), got {huge}"
        else:
            cfg.write_text(json.dumps({"n_examples": {"train": 4}, "order_range": [2, 3],
                                       "attr_dim": 1, "planted_order": 2, "planted_margin": 0.1,
                                       "edge_density": 0.5, "attribute_scale": 1e308}))
            args = ["synth", "--spec", cfg, "--out", tmp_path / "o"]
            message = ("'attribute_scale': expected a positive number of at most "
                       "8.988465674311579e+307, got 1e+308")
        proc = run_cli(*map(str, args))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {message}\n"

    def test_eval_refuses_members_with_different_matchers(self, tmp_path):
        # one-against-all members are scored in one batch, under one matcher
        rng = np.random.default_rng(8)
        data = tmp_path / "three"
        write_jsonl(Dataset("three", {"train": three_class_examples(rng, 9),
                                      "test": three_class_examples(rng, 6)},
                            ("c0", "c1", "c2")), data)
        model, _ = train_one_vs_all(read_jsonl(data).split("train"),
                                    TrainConfig(learning_rate=0.3, max_epochs=2, seed=4))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["members"][1]["matcher_config"] = MatcherConfig("graduated").to_json()
        path.write_text(json.dumps(doc))
        proc = run_cli("eval", "--model", str(path), "--data", str(data))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: member models disagree on matcher: ")
        assert proc.stdout == ""

    def test_missing_file_is_io_error(self):
        assert run_cli("dot", "/nonexistent/a.jsonl", "/nonexistent/b.jsonl").returncode == 2

    def test_train_on_empty_data_is_validation_error(self, tmp_path):
        data_dir = tmp_path / "empty"
        ds = Dataset("none", {"train": []}, ())
        write_jsonl(ds, data_dir)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": str(data_dir), "eta": 0.1}))
        proc = run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1

    @pytest.mark.parametrize("command, case", [
        ("train", "data"), ("protocol", "dataset"), ("train", "data-null"),
        ("protocol", "dataset-null"), ("train", "matcher"),
        ("train", "ga_params"), ("train", "exact_max_order"), ("train", "exact_max_order-float"),
        ("train", "eta"),
        ("train", "max_epochs"), ("synth", "attr_dim"), ("synth", "order_range"),
        ("train", "sinkhorn_max_iters"), ("train", "split"), ("train", "task"),
        ("train", "positive_class"),
        ("train", "max_epochs-float"), ("train", "seed-bool"), ("train", "weight_order-float"),
        ("protocol", "repeats-float"), ("protocol", "max_epochs-bool"),
        ("protocol", "eta_grid-bool"), ("protocol", "lambda_grid-bool"),
        ("synth", "attr_dim-float"), ("synth", "planted_order-float"), ("synth", "seed-true"),
        ("synth", "n_examples-float"), ("synth", "order_range-float"),
    ])
    def test_config_missing_key_is_validation_error(self, tmp_path, dataset_dir, command, case):
        key = case.partition("-")[0]
        data = {"data": str(dataset_dir)}
        spec = {"n_examples": {"train": 4}, "order_range": [2, 3], "attr_dim": 1,
                "planted_order": 2, "planted_margin": 0.1, "edge_density": 0.5}
        proto = {"dataset": str(dataset_dir), "algorithm": "margin_perceptron",
                 "eta_grid": [0.5], "lambda_grid": [0.1], "repeats": 1, "max_epochs": 1}
        docs = {
            "data": {}, "dataset": {},
            # a path is a string: null is not read as the directory 'None'
            "data-null": {"data": None}, "dataset-null": {**proto, "dataset": None},
            "matcher": {**data, "matcher": "graduated"},
            "ga_params": {**data, "matcher": {"ga_params": {"beta_start": "x"}}},
            "exact_max_order": {**data, "matcher": {"exact_max_order": "x"}},
            "exact_max_order-float": {**data, "matcher": {"exact_max_order": 7.9}},
            "eta": {**data, "eta": "fast"},
            "max_epochs": {**data, "max_epochs": [1]},
            "attr_dim": {**spec, "attr_dim": "x"},
            "order_range": {k: v for k, v in spec.items() if k != "order_range"},
            "sinkhorn_max_iters": {**data, "matcher": {"method": "graduated", "ga_params": {
                **FIRST_GA_SCHEDULE, "sinkhorn_max_iters": 3}}},
            "split": {**data, "split": ["train"]},
            "task": {**data, "task": "binray"},
            "positive_class": {**data, "positive_class": ["pos"]},
            # integers are never truncated and booleans never read as 0 or 1
            "max_epochs-float": {**data, "max_epochs": 2.9},
            "seed-bool": {**data, "seed": True},
            "weight_order-float": {**data, "weight_order": 3.5},
            "repeats-float": {**proto, "repeats": 1.5},
            "max_epochs-bool": {**proto, "max_epochs": True},
            "eta_grid-bool": {**proto, "eta_grid": [True]},
            "lambda_grid-bool": {**proto, "lambda_grid": [False]},
            "attr_dim-float": {**spec, "attr_dim": 1.7},
            "planted_order-float": {**spec, "planted_order": 2.9},
            "seed-true": {**spec, "seed": True},
            "n_examples-float": {**spec, "n_examples": {"train": 4.5}},
            "order_range-float": {**spec, "order_range": [2, 3.5]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(docs[case]))
        flag = "--spec" if command == "synth" else "--config"
        proc = run_cli(command, flag, str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        # a schedule is refused under the key that holds it, which no matcher reader knows
        assert repr("ga_params" if key == "sinkhorn_max_iters" else key) in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case", [
        "margin-nan", "eta-nan", "eta-inf", "eta-string", "eta-bool", "eta_grid-nan",
        "eta_grid-bool", "planted_margin-nan", "attribute_scale-inf", "order_range-float",
        "append_edge_flag-string",
    ])
    def test_field_rule_refuses_in_code_and_in_json(self, tmp_path, dataset_dir, case):
        # each config field has one rule: built in code or read from JSON through the
        # CLI, the value is refused, naming the field
        nan, inf = float("nan"), float("inf")
        spec = {"n_examples": {"train": 4}, "order_range": [2, 3], "attr_dim": 1,
                "planted_order": 2, "planted_margin": 0.1, "edge_density": 0.5}
        cases = {  # case: (field, command, in-code config, JSON config)
            "margin-nan": ("margin", "train", {"margin": nan}, {"lambda": nan}),
            "eta-nan": ("learning_rate", "train", {"learning_rate": nan}, {"eta": nan}),
            "eta-inf": ("learning_rate", "train", {"learning_rate": inf}, {"eta": inf}),
            "eta-string": ("learning_rate", "train", {"learning_rate": "0.5"}, {"eta": "0.5"}),
            "eta-bool": ("learning_rate", "train", {"learning_rate": True}, {"eta": True}),
            "eta_grid-nan": ("eta_grid", "protocol", {"eta_grid": (0.1, nan)},
                             {"eta_grid": [0.1, nan]}),
            "eta_grid-bool": ("eta_grid", "protocol", {"eta_grid": (True,)}, {"eta_grid": [True]}),
            "planted_margin-nan": ("planted_margin", "synth", {"planted_margin": nan},
                                   {"planted_margin": nan}),
            "attribute_scale-inf": ("attribute_scale", "synth", {"attribute_scale": inf},
                                    {"attribute_scale": inf}),
            "order_range-float": ("order_range", "synth", {"order_range": (3.7, 5)},
                                  {"order_range": [3.7, 5]}),
            "append_edge_flag-string": ("append_edge_flag", "dot", {"append_edge_flag": "no"},
                                        {"append_edge_flag": "no"}),
        }
        field, command, in_code, in_json = cases[case]
        build, doc, flag = {
            "train": (lambda kw: TrainConfig(**{"learning_rate": 0.1, **kw}),
                      {"data": str(dataset_dir)}, "--config"),
            "protocol": (lambda kw: ProtocolConfig(dataset=synth(), algorithm="perceptron", **kw),
                         {"dataset": str(dataset_dir), "algorithm": "perceptron"}, "--config"),
            "synth": (lambda kw: SyntheticSpec(**{**spec, **kw}), spec, "--spec"),
            "dot": (lambda kw: sublin.GxlAttrConfig(node_attr_names=("x",), **kw),
                    {"node_attr_names": ["x"]}, "--gxl-config"),
        }[command]
        with pytest.raises(ValidationError, match=repr(field)):
            build(in_code)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**doc, **in_json}))
        if command == "dot":  # the schema is read before either graph file
            proc = run_cli("dot", "a.gxl", "b.gxl", flag, str(cfg_path))
        else:
            proc = run_cli(command, flag, str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert repr(field) in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("reader", ["train", "protocol", "synth", "gxl", "matcher"])
    def test_config_unknown_key_is_refused(self, tmp_path, dataset_dir, reader):
        # a misspelled key is refused and named before anything runs: `etaa` is
        # not `eta`, and the fit would otherwise run at the default rate
        spec = {"n_examples": {"train": 4}, "order_range": [2, 3], "attr_dim": 1,
                "planted_order": 2, "planted_margin": 0.1, "edge_density": 0.5}
        proto = {"dataset": str(dataset_dir), "algorithm": "perceptron", "repeats": 1,
                 "max_epochs": 1}
        data = {"data": str(dataset_dir), "max_epochs": 1}
        command, flag, doc, key = {  # reader: (command, flag, document, its unknown key)
            "train": ("train", "--config", {**data, "etaa": 0.3}, "etaa"),
            "protocol": ("protocol", "--config", {**proto, "repeat": 2}, "repeat"),
            "synth": ("synth", "--spec", {**spec, "scale": 2.0}, "scale"),
            "gxl": ("dot", "--gxl-config", {"node_attr_names": ["x"], "edge_attr_name": ["w"]},
                    "edge_attr_name"),
            "matcher": ("train", "--config",
                        {**data, "matcher": {"method": "graduated", "exact_max": 5}}, "exact_max"),
        }[reader]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        if command == "dot":  # the schema is read before either graph file
            proc = run_cli("dot", "a.gxl", "b.gxl", flag, str(cfg_path))
        else:
            proc = run_cli(command, flag, str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert f"unknown key {key!r}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_numeric_classes_read_and_evaluate(self, tmp_path):
        # meta.json classes are read as strings, as each line's class is
        data = tmp_path / "data"
        data.mkdir()
        (data / "meta.json").write_text(json.dumps(
            {"name": "numeric", "classes": [1, 2], "splits": {"test": "test.jsonl"}}))
        (data / "test.jsonl").write_text(
            '{"id": "a", "class": 1, "nodes": [[1.0]]}\n{"id": "b", "class": 2, "nodes": [[-1.0]]}\n')
        assert read_jsonl(data).class_set == ("1", "2")
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"data": str(data), "split": "test"}))
        proc = run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "run"))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("eval", "--model", str(tmp_path / "run" / "model.json"),
                       "--data", str(data), "--json")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["accuracy"] == 1.0
        assert doc["confusion"] == {"1": {"1": 1, "2": 0}, "2": {"1": 0, "2": 1}}

    @pytest.mark.parametrize("command", ["train", "protocol"])
    def test_matcher_flags_only_when_the_config_names_no_matcher(self, tmp_path, dataset_dir,
                                                                command):
        doc = {"train": {"data": str(dataset_dir), "max_epochs": 1},
               "protocol": {"dataset": str(dataset_dir), "algorithm": "perceptron",
                            "eta_grid": [0.5], "repeats": 1, "max_epochs": 1}}[command]
        cfg_path = tmp_path / "cfg.json"
        # the config's matcher is used, and the flags it overrides are not read
        cfg_path.write_text(json.dumps({**doc, "matcher": {"method": "graduated"}}))
        proc = run_cli("--exact-max-order", "12", command, "--config", str(cfg_path),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        # without one, a bad flag exits 1 naming the flag
        cfg_path.write_text(json.dumps(doc))
        proc = run_cli("--exact-max-order", "12", command, "--config", str(cfg_path),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert proc.stderr == "error: '--exact-max-order': expected an integer in 1..9, got 12\n"

    def test_negative_seed_exits_1(self, tmp_path, dataset_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": str(dataset_dir), "seed": -1}))
        proc = run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert "'seed': expected an integer of at least 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case", [
        "model-bias", "model-bias-string", "model-bias-bool", "model-bias-nan",
        "model-weight_cells", "model-weight_cells-string",
        "model-weight_cells-ragged", "model-weight_cells-true", "model-weight_cells-numeric_string",
        "model-weight_cells-null", "model-list", "ova-members",
        "meta-list", "meta-splits-list", "meta-classes-number", "meta-splits-number",
        "meta-classes-string", "meta-classes-unhashable", "ova-classes-unhashable",
        "ova-classes-string",
        "model-attr_dim-huge", "model-ga_params-custom", "model-order-bool",
        "model-attr_dim-bool", "model-kind", "model-kind-number", "ova-kind",
        "model-matcher_confg", "ova-matcher_confg", "meta-clases",
    ])
    def test_malformed_model_or_meta_is_validation_error(self, tmp_path, dataset_dir, case):
        model = {"format_version": 1, "kind": "binary", "attr_dim": 1, "order": 1,
                 "weight_cells": [[[0.5]]], "bias": 0.0}
        models = {
            "model-bias": {k: v for k, v in model.items() if k != "bias"},
            "model-bias-string": {**model, "bias": "0.5"},
            "model-bias-bool": {**model, "bias": True},
            "model-bias-nan": {**model, "bias": float("nan")},
            "model-weight_cells": {k: v for k, v in model.items() if k != "weight_cells"},
            "model-weight_cells-string": {**model, "weight_cells": "x"},
            "model-weight_cells-ragged": {**model, "weight_cells": [[[0.5]], [[0.5], [1.0]]]},
            # numpy would read these as 1.0, 0.5 and NaN; each is refused under its key
            "model-weight_cells-true": {**model, "weight_cells": [[[True]]]},
            "model-weight_cells-numeric_string": {**model, "weight_cells": [[["0.5"]]]},
            "model-weight_cells-null": {**model, "weight_cells": [[[None]]]},
            "model-list": [model],
            "ova-members": {"format_version": 1, "kind": "ova", "classes": ["a", "b"]},
            "ova-classes-unhashable": {"format_version": 1, "kind": "ova",
                                       "classes": [["a"], ["b"]], "members": [model, model]},
            "ova-classes-string": {"format_version": 1, "kind": "ova", "classes": "ab",
                                   "members": [model, model]},
            "model-attr_dim-huge": {**model, "order": 0, "weight_cells": [], "attr_dim": 2**63},
            "model-order-bool": {**model, "order": True},
            "model-attr_dim-bool": {**model, "attr_dim": True},
            # an unknown kind is refused, not read as binary
            "model-kind": {**model, "kind": "multiclass"},
            "model-kind-number": {**model, "kind": 5},
            # a member's own kind is checked too: members are binary
            "ova-kind": {"format_version": 1, "kind": "ova", "classes": ["a", "b"],
                         "members": [model, {**model, "kind": "ova"}]},
            # a misspelled key is refused, not read as absent: this model would run under
            # the default exact matcher
            "model-matcher_confg": {**model, "matcher_confg": {"method": "graduated"}},
            "ova-matcher_confg": {"format_version": 1, "kind": "ova", "classes": ["a", "b"],
                                  "members": [model, {**model, "matcher_confg": {}}]},
            "model-ga_params-custom": {**model, "matcher_config": {
                "method": "graduated", "exact_max_order": 8,
                "ga_params": {**FIRST_GA_SCHEDULE, "sinkhorn_max_iters": 3}}},
        }
        metas = {
            "meta-list": [{"splits": {}}],
            "meta-splits-list": {"splits": ["train.jsonl"]},
            "meta-classes-number": {"classes": 3},
            # a bare string is not read as one class per letter
            "meta-classes-string": {"classes": "posneg"},
            "meta-classes-unhashable": {"classes": [["pos"], "neg"]},
            "meta-splits-number": {"splits": {"train": 5}},
            "meta-clases": {"clases": ["pos", "neg"]},
        }
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(models.get(case, model)))
        data = dataset_dir
        if case in metas:
            data = tmp_path / "data"
            data.mkdir()
            (data / "meta.json").write_text(json.dumps(metas[case]))
        proc = run_cli("eval", "--model", str(model_path), "--data", str(data))
        assert proc.returncode == 1
        top_level = case in ("model-list", "meta-list")
        assert ("expected a JSON object" if top_level else repr(case.split("-")[1])) in proc.stderr
        if case in metas:  # the dataset file at fault is named
            assert proc.stderr.startswith(f"error: {data / 'meta.json'}: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("reader, code", [
        ("train-config", 2), ("protocol-config", 2), ("synth-spec", 2), ("eval-model", 2),
        ("dot-gxl-config", 2), ("dot-jsonl", 1), ("dot-gxl", 1), ("eval-split", 1),
        ("eval-meta", 1),
    ])
    def test_undecodable_file_is_not_a_traceback(self, tmp_path, dataset_dir, reader, code):
        # bytes that are not UTF-8 are treated as invalid JSON or XML in that file is:
        # exit 2 for configs, specs and models, a format error naming a dataset file
        graph = tmp_path / "g.jsonl"
        graph.write_text('{"id": "x", "class": "?", "nodes": [[1.0, 0.0, 1.0]]}\n')
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"format_version": 1, "kind": "binary", "attr_dim": 2,
                                     "order": 1, "weight_cells": [[[0.5, 0.5]]], "bias": 0.0}))
        data = tmp_path / "data"
        write_jsonl(read_jsonl(dataset_dir), data)
        bad = {"dot-gxl": tmp_path / "bad.gxl", "eval-split": data / "test.jsonl",
               "eval-meta": data / "meta.json"}.get(reader, tmp_path / "bad.json")
        bad.write_bytes(b'{"id": "\xff"}\n')
        out = str(tmp_path / "o")
        args = {
            "train-config": ["train", "--config", bad, "--out", out],
            "protocol-config": ["protocol", "--config", bad],
            "synth-spec": ["synth", "--spec", bad, "--out", out],
            "eval-model": ["eval", "--model", bad, "--data", data],
            "dot-gxl-config": ["dot", graph, graph, "--gxl-config", bad],
            "dot-jsonl": ["dot", bad, graph],
            "dot-gxl": ["dot", bad, graph],
            "eval-split": ["eval", "--model", model, "--data", data],
            "eval-meta": ["eval", "--model", model, "--data", data],
        }[reader]
        proc = run_cli(*map(str, args))
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert ("utf-8" if code == 2 else f"{bad}: invalid UTF-8") in proc.stderr

    @pytest.mark.parametrize("reader", ["eval-model-json", "train-config-utf8"])
    def test_undecodable_json_file_is_named(self, tmp_path, dataset_dir, reader):
        # exit 2, with the file named: a model file that is not JSON, a config
        # file that is not UTF-8
        bad = tmp_path / "bad.json"
        if reader == "eval-model-json":
            bad.write_text("nope\n")
            args = ["eval", "--model", bad, "--data", dataset_dir]
        else:
            bad.write_bytes(b'{"task": "\xff"}\n')
            args = ["train", "--config", bad, "--out", tmp_path / "o"]
        proc = run_cli(*map(str, args))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and str(bad) in proc.stderr

    def test_overflowing_dot_is_validation_error(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"id": "x", "class": "?", "nodes": [[1e200], [-1e200], [1.0]]}\n')
        b.write_text('{"id": "y", "class": "?", "nodes": [[1e200], [1e200], [2.0]]}\n')
        proc = run_cli("dot", str(a), str(b))
        assert proc.returncode == 1
        # the error line alone: no traceback, no numpy RuntimeWarning
        assert proc.stderr.startswith("error: ") and "finite" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("command, doc, matcher", [
        ("eval", "model", "exact"), ("train", "big", "exact"), ("train", "eta", "exact"),
        ("protocol", "perceptron", "exact"), ("protocol", "perceptron", "graduated"),
        ("protocol", "knn", "exact"), ("protocol", "knn", "graduated"),
        ("synth", "spec", "exact"),
    ])
    def test_overflow_is_one_error_line(self, tmp_path, command, doc, matcher):
        # products of attributes near 1e200, a step of eta = 1e300 and the largest
        # attribute scale overflow inside the library, which refuses the value; no
        # numpy RuntimeWarning reaches stderr, even with every warning shown
        big = [LabeledExample(AttributedGraph([[1e200], [-1e200]], [(0, 1, [1e200])]), "a"),
               LabeledExample(AttributedGraph([[-1e200]]), "b"),
               LabeledExample(AttributedGraph([[1e200], [1e200]]), "a"),
               LabeledExample(AttributedGraph([[-1e200], [1.0]]), "b")]
        write_jsonl(Dataset("big", dict.fromkeys(("train", "validation", "test"), big), ["a", "b"]),
                    tmp_path / "big")
        mid = [LabeledExample(AttributedGraph([[1e10]]), "a"),
               LabeledExample(AttributedGraph([[-1e10], [3.0]]), "b")]
        write_jsonl(Dataset("mid", {"train": mid}, ["a", "b"]), tmp_path / "mid")
        protocol = {"dataset": str(tmp_path / "big"), "eta_grid": [0.5], "repeats": 1,
                    "max_epochs": 2}
        docs = {
            "model": {"format_version": 1, "kind": "binary", "attr_dim": 1, "order": 1,
                      "weight_cells": [[[1e200]]], "bias": 0.0,
                      "training_metadata": {"positive_class": "a"}},
            "big": {"data": str(tmp_path / "big")},
            "eta": {"data": str(tmp_path / "mid"), "eta": 1e300},
            "perceptron": {**protocol, "algorithm": "perceptron"},
            "knn": {**protocol, "algorithm": "knn"},
            "spec": {"n_examples": {"train": 4}, "order_range": [2, 3], "attr_dim": 1,
                     "planted_order": 2, "planted_margin": 0.1, "edge_density": 0.5,
                     "attribute_scale": 8.988465674311579e+307},
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(docs[doc]))
        flag = {"eval": "--model", "synth": "--spec"}.get(command, "--config")
        args = ["--matcher", matcher, command, flag, str(path)]
        if command == "eval":
            args += ["--data", str(tmp_path / "big")]
        elif command != "protocol":
            args += ["--out", str(tmp_path / "o")]
        proc = run_python("-W", "always", "-m", "sublin.cli", *args)
        assert proc.returncode == 1
        message = ("graph attributes must be finite" if doc == "eta"
                   else "the dot product is not finite: attribute products overflow")
        assert proc.stderr == f"error: {message}\n"

    def test_graduated_dot_at_large_orders_exits_1(self, tmp_path):
        # graduated assignment on orders (2000, 1500) would ask for a (1, 4e6,
        # 2.25e6) compatibility array (65.5 TiB), which numpy refuses before
        # touching it; the pair is refused naming its orders. The inputs take
        # about 50 MB.
        paths = []
        for order in (2000, 1500):
            path = tmp_path / f"g{order}.jsonl"
            path.write_text(json.dumps({"id": str(order), "class": "?",
                                        "nodes": [[1.0 + i % 7] for i in range(order)]}) + "\n")
            paths.append(str(path))
        proc = run_cli("--matcher", "graduated", "dot", *paths)
        assert proc.returncode == 1
        assert proc.stderr == "error: 'orders': (2000, 1500) is too large\n"

    def test_infeasible_spec_exit_code(self, tmp_path):
        spec = {"n_examples": {"train": 5}, "order_range": [2, 3], "attr_dim": 1,
                "planted_order": 2, "planted_margin": 500.0, "edge_density": 0.5,
                "attribute_scale": 0.5, "seed": 1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = run_cli("synth", "--spec", str(spec_path), "--out", str(tmp_path / "x"))
        assert proc.returncode == 3

    def test_bad_arguments_are_validation_errors(self):
        assert run_cli("dot").returncode == 1
