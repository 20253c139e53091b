import itertools
import json
import math

import numpy as np
import pytest

from conftest import FIRST_GA_SCHEDULE, permuted_graph, rand_graph, relabeled
from sublin import (AttributedGraph, DegenerateModelError, MatcherConfig, OvaModel,
                    Representation, SublinearModel, ValidationError,
                    classify, evaluate, induced_distance, load_model,
                    margin_lower_bound, origin_distance, predict_multiclass, save_model,
                    to_representation, weight_norm)

EXACT = MatcherConfig()

GX = AttributedGraph([[1.0], [2.0]], [(0, 1, [1.0])])


def model_from(graph, bias=0.0):
    return SublinearModel.from_weight_graph(graph, bias, EXACT)


class TestEvaluate:
    def test_zero_weights_return_bias(self):
        m = SublinearModel(Representation.zeros(3, 1), bias=0.5)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert evaluate(m, rand_graph(rng, int(rng.integers(1, 5)), 1)) == 0.5

    def test_zero_graph_returns_bias(self):
        m = model_from(GX, bias=-1.25)
        assert evaluate(m, AttributedGraph.empty(1, 0)) == -1.25
        assert evaluate(m, AttributedGraph.empty(1, 3)) == -1.25

    def test_self_weight_gives_squared_norm(self):
        m = model_from(GX)
        twin = AttributedGraph(GX.node_attrs, GX.edge_attrs)
        assert evaluate(m, twin) == pytest.approx(7.0, rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate(model_from(GX), AttributedGraph([[1.0, 2.0]]))

    def test_overflowing_value_is_validation_error(self):
        m = model_from(AttributedGraph([[1e200], [-1e200], [1.0]]))
        with pytest.raises(ValidationError, match="finite"), np.errstate(all="ignore"):
            evaluate(m, AttributedGraph([[1e200], [1e200], [2.0]]))


class TestClassify:
    def test_boundary_is_positive(self):
        m = SublinearModel(Representation.zeros(2, 1), bias=0.0)
        assert classify(m, GX) == 1

    def test_negative(self):
        m = SublinearModel(Representation.zeros(2, 1), bias=-0.1)
        assert classify(m, GX) == -1

    def test_positive(self):
        m = SublinearModel(Representation.zeros(2, 1), bias=2.0)
        assert classify(m, GX) == 1


class TestGeometry:
    def test_weight_norm_cases(self):
        assert weight_norm(SublinearModel(Representation.zeros(2, 1))) == 0.0
        assert weight_norm(model_from(AttributedGraph([[3.0]]))) == 3.0
        assert weight_norm(model_from(GX)) == pytest.approx(math.sqrt(7.0), rel=1e-12)

    def test_origin_distance_cases(self):
        assert origin_distance(model_from(AttributedGraph([[3.0]]), bias=0.0)) == 0.0
        assert origin_distance(model_from(AttributedGraph([[2.0]]), bias=2.0)) == 1.0
        assert origin_distance(model_from(GX, bias=1.0)) == pytest.approx(1 / math.sqrt(7.0))

    def test_origin_distance_signed(self):
        assert origin_distance(model_from(AttributedGraph([[2.0]]), bias=-3.0)) == -1.5

    def test_degenerate_model(self):
        zero = SublinearModel(Representation.zeros(2, 1), bias=1.0)
        with pytest.raises(DegenerateModelError):
            origin_distance(zero)
        with pytest.raises(DegenerateModelError):
            margin_lower_bound(zero, GX)

    def test_margin_lower_bound_hand_cases(self):
        m = model_from(AttributedGraph([[2.0]]), bias=0.0)
        assert margin_lower_bound(m, AttributedGraph([[0.0]])) == 0.0
        assert margin_lower_bound(m, AttributedGraph([[1.0]])) == 1.0  # f=2, ||W||=2

    def test_separation_bound(self):
        # any positively and non-positively classified pair is at least the
        # normalized positive score apart; holds when the weight graph covers
        # the input orders (the training regime), where evaluation is the full
        # common-order lift
        rng = np.random.default_rng(20)
        done = 0
        while done < 50:
            d = int(rng.integers(1, 3))
            nw = int(rng.integers(3, 6))
            w = rand_graph(rng, nw, d, density=0.7)
            m = model_from(w, bias=float(rng.uniform(-1, 1)))
            pos = neg = None
            for _ in range(120):
                g = rand_graph(rng, int(rng.integers(1, nw + 1)), d)
                v = evaluate(m, g)
                if v > 0 and pos is None:
                    pos = g
                elif v <= 0 and neg is None:
                    neg = g
                if pos is not None and neg is not None:
                    break
            else:
                continue
            bound = margin_lower_bound(m, pos)
            assert induced_distance(pos, neg, EXACT) >= bound - 1e-9
            done += 1


class TestInvariance:
    def test_isomorphism_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            d = int(rng.integers(1, 3))
            m = model_from(rand_graph(rng, int(rng.integers(1, 5)), d), bias=float(rng.normal()))
            g = rand_graph(rng, int(rng.integers(2, 5)), d)
            moved = permuted_graph(g, rng.permutation(g.order))
            a, b = evaluate(m, g), evaluate(m, moved)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    def test_representation_independence(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            w = rand_graph(rng, 4, 2)
            rep = to_representation(w)
            moved = relabeled(rep, rng.permutation(4))
            m1 = SublinearModel(rep, 0.3, EXACT)
            m2 = SublinearModel(moved, 0.3, EXACT)
            g = rand_graph(rng, int(rng.integers(1, 6)), 2)
            assert evaluate(m1, g) == pytest.approx(evaluate(m2, g), rel=1e-12, abs=1e-12)

    def test_lift_consistency_by_enumeration(self):
        # the evaluation equals the max of w.x + b over all representations x
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(1, 6))
            m = model_from(rand_graph(rng, n, d), bias=float(rng.normal()))
            g = rand_graph(rng, n, d)
            rep = to_representation(g)
            best = max(
                float(np.vdot(m.weight_rep.cells, relabeled(rep, p).cells))
                for p in itertools.permutations(range(n))
            ) + m.bias
            assert evaluate(m, g) == pytest.approx(best, rel=1e-12, abs=1e-12)


class TestMulticlass:
    def _const_model(self, bias, dim=1):
        return SublinearModel(Representation.zeros(1, dim), bias=bias)

    def test_argmax(self):
        ova = OvaModel(("a", "b"), (self._const_model(3.0), self._const_model(1.0)))
        assert predict_multiclass(ova, GX) == "a"

    def test_tie_goes_to_lower_index(self):
        ova = OvaModel(("a", "b"), (self._const_model(1.0), self._const_model(1.0)))
        assert predict_multiclass(ova, GX) == "a"

    def test_constant_biases(self):
        ova = OvaModel(("a", "b"), (self._const_model(1.0), self._const_model(-1.0)))
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert predict_multiclass(ova, rand_graph(rng, 3, 1)) == "a"

    def test_validation(self):
        with pytest.raises(ValidationError):
            OvaModel(("a",), (self._const_model(0.0),))
        with pytest.raises(ValidationError):
            OvaModel(("a", "b"), (self._const_model(0.0), self._const_model(0.0, dim=2)))
        # the members are scored in one batch, which has one matcher
        graduated = SublinearModel(Representation.zeros(1, 1), matcher=MatcherConfig("graduated"))
        with pytest.raises(ValidationError, match="member models disagree on matcher: "):
            OvaModel(("a", "b"), (self._const_model(0.0), graduated))


class TestPersistence:
    def test_binary_round_trip_is_float_exact(self, tmp_path):
        rng = np.random.default_rng(30)
        w = rand_graph(rng, 3, 2)
        m = SublinearModel.from_weight_graph(
            w, bias=1 / 3, matcher=MatcherConfig(method="graduated"),
            metadata={"learning_rate": 0.1},
        )
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weight_rep.cells, m.weight_rep.cells)
        assert loaded.bias == m.bias
        assert loaded.matcher == m.matcher
        assert loaded.metadata == m.metadata
        g = rand_graph(rng, 4, 2)
        assert evaluate(loaded.__class__(loaded.weight_rep, loaded.bias, EXACT), g) == evaluate(
            SublinearModel(m.weight_rep, m.bias, EXACT), g)

    def test_model_with_fixed_ga_params_loads(self, tmp_path):
        # the document earlier versions wrote: `matcher_config` carries `ga_params`
        rng = np.random.default_rng(32)
        m = SublinearModel.from_weight_graph(rand_graph(rng, 4, 2), bias=-0.25,
                                             matcher=MatcherConfig(method="graduated"))
        doc = {"format_version": 1, "kind": "binary", "attr_dim": 2, "order": 4,
               "weight_cells": m.weight_rep.cells.tolist(), "bias": -0.25,
               "matcher_config": {"method": "graduated", "exact_max_order": 8,
                                  "ga_params": FIRST_GA_SCHEDULE},
               "training_metadata": {}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        assert loaded.matcher == m.matcher
        for order in (3, 5, 6):
            g = rand_graph(rng, order, 2)
            assert evaluate(loaded, g) == evaluate(m, g)

    @pytest.mark.parametrize("bias", ["0.5", True, float("nan"), float("-inf"), None],
                             ids=["string", "bool", "nan", "inf", "null"])
    def test_bias_follows_the_number_rule(self, tmp_path, bias):
        # a model file's bias is a finite number, as a config's numbers are
        doc = {"format_version": 1, "kind": "binary", "attr_dim": 1, "order": 1,
               "weight_cells": [[[0.5]]], "bias": bias}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"^'bias': expected a finite number, got {bias!r}$"):
            load_model(path)

    def test_ova_member_kind_must_be_binary(self, tmp_path):
        # a member that says it is one-against-all is refused, not read as binary
        member = {"format_version": 1, "kind": "binary", "attr_dim": 1, "order": 1,
                  "weight_cells": [[[0.5]]], "bias": 0.0}
        doc = {"format_version": 1, "kind": "ova", "classes": ["x", "y"],
               "members": [member, {**member, "kind": "ova"}]}
        path = tmp_path / "ova.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"^'members': 'kind': expected 'binary', got 'ova'$"):
            load_model(path)
        doc["members"][1]["kind"] = "binary"
        path.write_text(json.dumps(doc))
        assert isinstance(load_model(path), OvaModel)

    def test_ova_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        ova = OvaModel(
            ("x", "y"),
            (SublinearModel.from_weight_graph(rand_graph(rng, 2, 1), 0.25),
             SublinearModel.from_weight_graph(rand_graph(rng, 3, 1), -0.5)),
        )
        path = tmp_path / "ova.json"
        save_model(ova, path)
        loaded = load_model(path)
        assert isinstance(loaded, OvaModel)
        assert loaded.classes == ("x", "y")
        for a, b in zip(loaded.members, ova.members):
            assert np.array_equal(a.weight_rep.cells, b.weight_rep.cells)
            assert a.bias == b.bias
