import json
import os
import warnings

import numpy as np
import pytest

from conftest import permuted_graph, rand_graph, rand_sym_cells, relabeled, three_class_examples
from sublin import (AttributedGraph, EpochStats, LabeledExample, MatcherConfig, Representation,
                    SyntheticSpec, TrainConfig, TrainTrace, ValidationError, binary_examples,
                    classify, derive_seed, empirical_risk, evaluate, generate_synthetic,
                    hinge_loss, knn_classify, load_model, optimal_align, save_model,
                    subgradient_step, to_representation, train_binary, train_one_vs_all,
                    write_trace_jsonl)
from sublin.learning import _fit_binary, _fit_one_vs_all

EXACT = MatcherConfig()


def single_node(value, y=None):
    g = AttributedGraph([[float(value)]])
    return g if y is None else LabeledExample(g, y)


class TestHingeLoss:
    def test_inside_margin(self):
        assert hinge_loss(0.5, 1, 1.0) == 0.5

    def test_outside_margin(self):
        assert hinge_loss(2.0, 1, 1.0) == 0.0

    def test_negative_label(self):
        assert hinge_loss(0.3, -1, 0.0) == 0.3


class TestSubgradientStep:
    def test_zero_state_updates_with_canonical_alignment(self):
        g = rand_graph(np.random.default_rng(0), 3, 2)
        w = Representation.zeros(3, 2)
        w2, b2, updated, loss = subgradient_step(
            w, 0.0, LabeledExample(g, 1), 0.25, 0.0, EXACT
        )
        assert updated and loss == 0.0
        np.testing.assert_array_equal(w2.cells, 0.25 * to_representation(g).cells)
        assert b2 == 0.25

    def test_no_change_outside_margin(self):
        w = to_representation(AttributedGraph([[1.0]]))
        w2, b2, updated, loss = subgradient_step(
            w, 0.0, single_node(2.0, 1), 0.5, 1.0, EXACT
        )
        # y * y_hat = 2 > margin + nothing: no update
        assert not updated
        assert w2 is w and b2 == 0.0 and loss == 0.0

    def test_negative_label_update(self):
        w = to_representation(AttributedGraph([[1.0]]))
        w2, b2, updated, loss = subgradient_step(
            w, 0.0, single_node(2.0, -1), 0.5, 0.0, EXACT
        )
        assert updated
        np.testing.assert_array_equal(w2.cells, [[[0.0]]])
        assert b2 == -0.5
        assert loss == 2.0  # hinge at the incoming state: max(0, 0 - (-1)*2)

    def test_overflowing_update_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning before the refusal
            with pytest.raises(ValidationError, match="finite"):
                subgradient_step(Representation.zeros(1, 1), 0.0, single_node(1e308, 1), 10.0, 0.0)

    def test_updated_weights_are_read_only_and_pass_the_checks(self):
        rng = np.random.default_rng(2)
        examples = [LabeledExample(rand_graph(rng, n, 2), y) for n, y in ((3, 1), (4, -1), (2, 1))]
        model, trace = train_binary(examples, TrainConfig(learning_rate=0.5, max_epochs=3))
        assert trace.total_updates > 0
        w = model.weight_rep
        assert not w.cells.flags.writeable
        assert Representation(w.cells) == w


class TestTrainBinary:
    def test_already_separated_sample(self):
        # a model with zero weights classifies everything positive; an all-positive
        # sample with margin 0 is separated only after one update epoch, whereas a
        # sample kept strictly outside the margin by construction converges with 0
        # updates once the weights already separate it
        data = [single_node(2.0, 1), single_node(-1.0, -1)]
        cfg = TrainConfig(learning_rate=1.0, margin=0.0, max_epochs=5, seed=1, matcher=EXACT)
        model, trace = train_binary(data, cfg)
        assert trace.converged
        assert trace.epochs[-1].updates == 0
        assert trace.epochs[-1].errors == 0
        # retraining from the returned weights produces an immediately separated run
        again, trace2 = train_binary(
            data, TrainConfig(learning_rate=1.0, margin=0.0, max_epochs=5, seed=1,
                              weight_order=model.order, matcher=EXACT)
        )
        assert trace2.final_epoch <= trace.final_epoch + 1

    def test_margin_convergence_on_planted_sample(self):
        # attributes chosen so y * (w*.x + b*) >= 1 for w* = [1], b* = 0
        data = [single_node(v, 1) for v in (1.5, 2.0, 3.0)] + [
            single_node(v, -1) for v in (-1.2, -2.5)
        ]
        cfg = TrainConfig(learning_rate=0.05, margin=0.5, max_epochs=100, seed=3, matcher=EXACT)
        model, trace = train_binary(data, cfg)
        assert trace.converged
        assert all(classify(model, ex.graph) == ex.y for ex in data)

    def test_zero_margin_equals_classic_perceptron(self):
        # single-node graphs make alignment trivial, so updates must follow the
        # textbook perceptron run on the raw scalars, including the visit order
        rng = np.random.default_rng(4)
        values = rng.uniform(-2, 2, size=12)
        labels = np.where(values + 0.3 >= 0, 1, -1)
        data = [single_node(v, int(y)) for v, y in zip(values, labels)]
        eta = 0.2
        cfg = TrainConfig(learning_rate=eta, margin=0.0, max_epochs=50, seed=9, matcher=EXACT)
        model, trace = train_binary(data, cfg)

        w = np.zeros(1)
        b = 0.0
        updates = []
        order = np.arange(len(data))
        ref_rng = np.random.default_rng(9)
        for _ in range(50):
            ref_rng.shuffle(order)
            epoch_updates = 0
            for idx in order:
                x = values[idx]
                y = labels[idx]
                if y * (w[0] * x + b) <= 0.0:
                    w[0] += eta * y * x
                    b += eta * y
                    epoch_updates += 1
            updates.append(epoch_updates)
            if epoch_updates == 0:
                break
        assert [e.updates for e in trace.epochs] == updates
        assert model.bias == pytest.approx(b)
        assert float(model.weight_rep.cells[0, 0, 0]) == pytest.approx(w[0])

    def test_weight_order_defaults_to_largest_graph(self):
        rng = np.random.default_rng(5)
        data = [LabeledExample(rand_graph(rng, n, 1), 1 if n % 2 else -1) for n in (2, 5, 3)]
        model, _ = train_binary(data, TrainConfig(learning_rate=0.1, max_epochs=2, matcher=EXACT))
        assert model.order == 5

    def test_training_invariant_under_graph_relabeling(self):
        rng = np.random.default_rng(6)
        data = [
            LabeledExample(rand_graph(rng, int(rng.integers(2, 5)), 2), 1 if i % 2 else -1)
            for i in range(8)
        ]
        moved = [
            LabeledExample(permuted_graph(ex.graph, rng.permutation(ex.graph.order)), ex.y)
            for ex in data
        ]
        cfg = TrainConfig(learning_rate=0.3, margin=0.1, max_epochs=10, seed=7, matcher=EXACT)
        m1, _ = train_binary(data, cfg)
        m2, _ = train_binary(moved, cfg)
        for _ in range(10):
            g = rand_graph(rng, int(rng.integers(1, 5)), 2)
            a, b = evaluate(m1, g), evaluate(m2, g)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            train_binary([], TrainConfig(learning_rate=0.1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            bad = LabeledExample(AttributedGraph([[np.inf]]), 1)
            train_binary([bad], TrainConfig(learning_rate=0.1))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValidationError):
            train_binary([single_node(1.0, 2)], TrainConfig(learning_rate=0.1))

    @pytest.mark.parametrize("field, value", [
        ("max_epochs", 2.5), ("max_epochs", True), ("weight_order", 2.5), ("weight_order", False),
    ])
    def test_non_integer_count_rejected(self, field, value):
        # a float is not truncated and a bool is not read as 0 or 1
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            TrainConfig(learning_rate=0.1, **{field: value})

    @pytest.mark.parametrize("value, message", [
        (1.5, "seed must be an integer"), (True, "seed must be an integer"),
        (-1, "seed must be at least 0"),
    ])
    def test_bad_seed_rejected(self, value, message):
        # refused when built, not later by numpy's SeedSequence
        with pytest.raises(ValidationError, match=message):
            TrainConfig(learning_rate=0.1, seed=value)

    def test_numpy_integer_fields_stored_as_int(self, tmp_path):
        # the fields reach the model's metadata, which must stay JSON-writable
        cfg = TrainConfig(learning_rate=0.5, max_epochs=np.int64(3), weight_order=np.int32(1),
                          seed=np.int64(2))
        assert [type(v) for v in (cfg.max_epochs, cfg.weight_order, cfg.seed)] == [int] * 3
        model, _ = train_binary([single_node(2.0, 1), single_node(-1.0, -1)], cfg)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.metadata == model.metadata
        assert np.array_equal(loaded.weight_rep.cells, model.weight_rep.cells)
        assert loaded.bias == model.bias


class TestDeriveSeed:
    @pytest.mark.parametrize("base, parts", [(1.5, (2,)), (True, (2,)), (1, (2.0,)), (1, (False,))])
    def test_float_or_bool_part_rejected(self, base, parts):
        # never truncated or read as 0 or 1, so seed 1.5 cannot run as seed 1
        with pytest.raises(TypeError):
            derive_seed(base, *parts)

    def test_numpy_integer_reads_as_int(self):
        assert derive_seed(np.int64(1), np.int32(2)) == derive_seed(1, 2)


class TestTrainOneVsAll:
    def test_agrees_with_binary_on_two_classes(self):
        data = [single_node(v, "hi") for v in (2.0, 3.0)] + [
            single_node(v, "lo") for v in (-2.0, -3.0)
        ]
        cfg = TrainConfig(learning_rate=0.5, max_epochs=30, seed=11, matcher=EXACT)
        ova, traces = train_one_vs_all(data, cfg)
        assert ova.classes == ("hi", "lo")
        assert all(t.converged for t in traces)
        binary_data = [LabeledExample(ex.graph, 1 if ex.y == "hi" else -1) for ex in data]
        binary_model, _ = train_binary(
            binary_data, TrainConfig(learning_rate=0.5, max_epochs=30,
                                     seed=derive_seed(11, 0), matcher=EXACT)
        )
        from sublin import predict_multiclass
        for ex in data:
            want = "hi" if classify(binary_model, ex.graph) == 1 else "lo"
            assert predict_multiclass(ova, ex.graph) == want

    def test_orthogonal_three_class_problem(self):
        data = [
            LabeledExample(AttributedGraph(2.0 * np.eye(3)[[i]]), f"c{i}") for i in range(3)
        ]
        ova, _ = train_one_vs_all(
            data, TrainConfig(learning_rate=0.5, max_epochs=50, seed=2, matcher=EXACT)
        )
        from sublin import predict_multiclass
        assert all(predict_multiclass(ova, ex.graph) == ex.y for ex in data)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            train_one_vs_all([single_node(1.0, "a")], TrainConfig(learning_rate=0.1))


def _assert_same_model(got, want):
    assert np.array_equal(got.weight_rep.cells, want.weight_rep.cells)
    assert got.bias == want.bias
    assert got.metadata == want.metadata
    assert got.matcher == want.matcher


# (max_epochs, margin, converged): a run that separates the sample early and one
# cut at max_epochs with the margin still violated
FIT_CASES = [(50, 0.0, True), (3, 50.0, False)]


class TestTraceFreeFit:
    """The protocol's fits skip the per-epoch split pass; the model must not change."""

    @pytest.mark.parametrize("max_epochs, margin, converged", FIT_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_binary_equals_train_binary(self, max_epochs, margin, converged, seed):
        spec = SyntheticSpec(n_examples={"train": 12, "validation": 2, "test": 2},
                             order_range=(2, 4), attr_dim=2, planted_order=3,
                             planted_margin=0.4, edge_density=0.6, seed=5)
        data = binary_examples(generate_synthetic(spec)[0], "train", "pos")
        cfg = TrainConfig(learning_rate=0.5, margin=margin, max_epochs=max_epochs,
                          seed=seed, matcher=EXACT)
        model, trace = _fit_binary(data, cfg, traced=False)
        want = train_binary(data, cfg)[0]
        assert trace is None
        assert model.metadata["converged"] is converged
        _assert_same_model(model, want)

    @pytest.mark.parametrize("max_epochs, margin, converged", FIT_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_vs_all_equals_train_one_vs_all(self, max_epochs, margin, converged, seed):
        data = three_class_examples(np.random.default_rng(3), 9)
        cfg = TrainConfig(learning_rate=0.5, margin=margin, max_epochs=max_epochs,
                          seed=seed, matcher=EXACT)
        ova, traces = _fit_one_vs_all(data, cfg, traced=False)
        want = train_one_vs_all(data, cfg)[0]
        assert traces == (None, None, None)
        assert ova.classes == want.classes
        assert all(m.metadata["converged"] is converged for m in ova.members)
        for member, want_member in zip(ova.members, want.members, strict=True):
            _assert_same_model(member, want_member)


class TestEmpiricalRisk:
    def test_zero_weight_zero_margin(self):
        model, _ = train_binary(
            [single_node(1.0, 1)], TrainConfig(learning_rate=0.1, max_epochs=1, matcher=EXACT)
        )
        from sublin import SublinearModel
        zero = SublinearModel(Representation.zeros(1, 1), 0.0, EXACT)
        data = [single_node(1.0, 1), single_node(-1.0, -1)]
        assert empirical_risk(zero, data, 0.0) == 0.0
        assert empirical_risk(zero, data, 1.0) == 1.0

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(12)
        data = [
            LabeledExample(rand_graph(rng, 3, 1), 1 if i % 2 else -1) for i in range(6)
        ]
        model, _ = train_binary(
            data, TrainConfig(learning_rate=0.2, max_epochs=5, seed=0, matcher=EXACT)
        )
        lam = 0.3
        direct = np.mean([hinge_loss(evaluate(model, ex.graph), ex.y, lam) for ex in data])
        assert empirical_risk(model, data, lam) == pytest.approx(float(direct))

    @pytest.mark.parametrize("margin", [0.0, 0.7])
    def test_equals_final_epoch_risk(self, margin):
        rng = np.random.default_rng(13)
        data = [LabeledExample(rand_graph(rng, int(rng.integers(2, 5)), 2), 1 if i % 3 else -1)
                for i in range(12)]
        model, trace = train_binary(data, TrainConfig(learning_rate=0.3, margin=margin,
                                                      max_epochs=4, seed=1, matcher=EXACT))
        assert trace.epochs[-1].risk > 0.0
        assert empirical_risk(model, data, margin) == trace.epochs[-1].risk


class TestKnn:
    def test_single_example(self):
        train = [single_node(1.0, "c")]
        assert knn_classify(train, train[0].graph, 1, EXACT) == "c"

    def test_isomorphic_query_wins(self):
        rng = np.random.default_rng(13)
        g = rand_graph(rng, 4, 2)
        train = [
            LabeledExample(rand_graph(rng, 4, 2), "other"),
            LabeledExample(g, "target"),
            LabeledExample(rand_graph(rng, 3, 2), "other"),
        ]
        query = permuted_graph(g, rng.permutation(4))
        assert knn_classify(train, query, 1, EXACT) == "target"

    def test_majority_vote(self):
        train = [single_node(1.0, "a"), single_node(1.1, "a"), single_node(1.2, "b"),
                 single_node(9.0, "b"), single_node(9.1, "b")]
        assert knn_classify(train, AttributedGraph([[1.05]]), 3, EXACT) == "a"

    def test_vote_tie_breaks_to_smallest_class(self):
        train = [single_node(1.0, "b"), single_node(1.2, "a")]
        assert knn_classify(train, AttributedGraph([[1.1]]), 2, EXACT) == "a"

    def test_empty_train_rejected(self):
        with pytest.raises(ValidationError):
            knn_classify([], AttributedGraph([[1.0]]), 1, EXACT)


class TestSubgradientProperty:
    def _lift(self, cells, graph):
        aligned = optimal_align(Representation(cells), graph, EXACT)
        return float(np.vdot(cells, aligned.cells)), aligned.cells

    def test_subgradient_inequality_within_alignment_cone(self):
        # the per-example lifted hinge restricted to the cone where the state's
        # alignment stays optimal is convex; the implemented (grad L * x, grad L)
        # must be a subgradient there
        rng = np.random.default_rng(14)
        done = 0
        while done < 100:
            d = int(rng.integers(1, 3))
            n = int(rng.integers(2, 5))
            g = rand_graph(rng, int(rng.integers(1, 5)), d)
            y = 1 if rng.random() < 0.5 else -1
            lam = float(rng.uniform(0, 1))
            w = rand_sym_cells(rng, n, d)
            b = float(rng.normal())
            u0, x0 = self._lift(w, g)
            e0 = hinge_loss(u0 + b, y, lam)
            if y * (u0 + b) <= lam:
                gw, gb = -y * x0, -y
            else:
                gw, gb = np.zeros_like(x0), 0.0
            radius = 1.0
            for _ in range(60):
                wp = w + rand_sym_cells(rng, n, d) * radius
                bp = b + float(rng.normal()) * radius
                up, _ = self._lift(wp, g)
                if up - float(np.vdot(wp, x0)) <= 1e-9 * max(1.0, abs(up)):
                    break
                radius *= 0.6
            else:
                continue
            ep = hinge_loss(up + bp, y, lam)
            rhs = e0 + float(np.vdot(gw, wp - w)) + gb * (bp - b)
            assert ep >= rhs - 1e-7
            done += 1

    def test_finite_differences_at_differentiable_points(self):
        import itertools

        rng = np.random.default_rng(15)
        done = 0
        while done < 50:
            d = int(rng.integers(1, 3))
            n = int(rng.integers(2, 4))
            g = rand_graph(rng, n, d)
            rep = to_representation(g)
            y = 1 if rng.random() < 0.5 else -1
            lam = float(rng.uniform(0, 1))
            w = rand_sym_cells(rng, n, d)
            b = float(rng.normal())
            scores = sorted(
                (
                    float(np.vdot(w, relabeled(rep, p).cells))
                    for p in itertools.permutations(range(n))
                ),
                reverse=True,
            )
            if len(scores) > 1 and scores[0] - scores[1] < 1e-3:
                continue  # alignment not unique enough
            u0, x0 = self._lift(w, g)
            if abs(y * (u0 + b) - lam) < 1e-3:
                continue  # hinge kink too close
            active = y * (u0 + b) <= lam
            gw, gb = (-y * x0, -y) if active else (np.zeros_like(x0), 0.0)
            v_w = rand_sym_cells(rng, n, d)
            v_b = float(rng.normal())
            h = 1e-5

            def loss_at(ww, bb):
                u, _ = self._lift(ww, g)
                return hinge_loss(u + bb, y, lam)

            fd = (loss_at(w + h * v_w, b + h * v_b) - loss_at(w - h * v_w, b - h * v_b)) / (2 * h)
            directional = float(np.vdot(gw, v_w)) + gb * v_b
            assert abs(fd - directional) <= 1e-4 * max(1.0, abs(directional))
            done += 1


class TestTraceOutput:
    def test_jsonl_trace(self, tmp_path):
        data = [single_node(2.0, 1), single_node(-1.0, -1)]
        _, trace = train_binary(
            data, TrainConfig(learning_rate=1.0, max_epochs=5, seed=1, matcher=EXACT)
        )
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(trace.epochs)
        assert records[0].keys() == {"epoch", "updates", "errors", "risk"}
        assert records[-1]["updates"] == 0

    def test_failed_write_keeps_previous_file(self, tmp_path):
        # the second record cannot be serialized, after the first was written
        path = tmp_path / "trace.jsonl"
        path.write_text("previous\n")
        bad = TrainTrace((EpochStats(1, 1, 1, 0.5), EpochStats(2, 0, 0, object())), 1, False, 2)
        with pytest.raises(TypeError):
            write_trace_jsonl(bad, path)
        assert path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["trace.jsonl"]
