"""Acceptance suite: one test per criterion, each printing a PASS/INFO line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
import itertools
import json
import math
import os
import warnings

import numpy as np
import pytest

from conftest import permuted_graph, rand_graph, rand_sym_cells, rel_close, three_class_examples
from sublin import (AttributedGraph, Dataset, GXL_PRESETS, LabeledExample, MatcherConfig,
                    Representation, SublinearModel, SyntheticSpec, TrainConfig,
                    binary_examples, classify, evaluate, exact_sdp, ga_sdp,
                    generate_synthetic, hinge_loss, induced_distance, knn_classify,
                    margin_lower_bound, matcher_call_count, optimal_align,
                    origin_distance, predict_multiclass, read_cxl_dataset, sdp,
                    to_representation, train_binary, train_one_vs_all)
from sublin.protocol import (DEFAULT_ETA_GRID, DEFAULT_LAMBDA_GRID, ProtocolConfig,
                             run_protocol)

EXACT = MatcherConfig()


def _report(n, status, message):
    print(f"\nACCEPTANCE {n} {status}: {message}")


# ---------------------------------------------------------------------------
# 1. exact matcher against an independent enumeration oracle
# ---------------------------------------------------------------------------

def _oracle_dot(ga, gb):
    """Plain-python expansion of the correspondence kernel over all permutations.

    Works straight off the sparse graph data (no dense representations, no
    shared code with the solver).
    """
    n = max(ga.order, gb.order)
    d = ga.attr_dim
    zero = [0.0] * d

    def cell(g, i, j):
        if i >= g.order or j >= g.order:
            return zero
        if i == j:
            return [float(v) for v in g.node_attrs[i]]
        key = (i, j) if i < j else (j, i)
        vec = g.edge_attrs.get(key)
        return zero if vec is None else [float(v) for v in vec]

    best = -math.inf
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i in range(n):
            for j in range(n):
                xa = cell(ga, i, j)
                yb = cell(gb, perm[i], perm[j])
                total += sum(p * q for p, q in zip(xa, yb))
        best = max(best, total)
    return best if n else 0.0


def test_criterion_1_exact_matcher_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 4))
        a = rand_graph(rng, int(rng.integers(1, 6)), d, density=0.6)
        b = rand_graph(rng, int(rng.integers(1, 6)), d, density=0.6)
        got = exact_sdp(a, b).value
        want = _oracle_dot(a, b)
        assert rel_close(got, want, 1e-12), (got, want)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _report(1, "PASS", f"500/500 random pairs match the enumeration oracle "
                       f"(worst relative gap {worst:.2e})")


# ---------------------------------------------------------------------------
# 2. algebraic properties of the dot product
# ---------------------------------------------------------------------------

def test_criterion_2_algebraic_properties():
    rng = np.random.default_rng(202)

    def pair(max_order=5):
        d = int(rng.integers(1, 4))
        return (rand_graph(rng, int(rng.integers(1, max_order)), d),
                rand_graph(rng, int(rng.integers(1, max_order)), d))

    for _ in range(1000):
        a, b = pair()
        assert sdp(a, b, EXACT).value == sdp(b, a, EXACT).value

    for _ in range(1000):
        a, b = pair()
        moved = permuted_graph(a, rng.permutation(a.order))
        assert sdp(moved, b, EXACT).value == sdp(a, b, EXACT).value

    for _ in range(1000):
        a, _ = pair()
        rep = to_representation(a)
        sq = math.fsum(float(v) * float(v) for v in rep.vector)
        assert rel_close(sdp(a, a, EXACT).value, sq, 1e-12)
        twin = AttributedGraph(a.node_attrs, a.edge_attrs)
        assert rel_close(sdp(a, twin, EXACT).value, sq, 1e-12)

    for _ in range(1000):
        a, b = pair()
        bound = math.sqrt(sdp(a, a, EXACT).value) * math.sqrt(sdp(b, b, EXACT).value)
        assert sdp(a, b, EXACT).value <= bound + 1e-9

    for _ in range(1000):
        a, b = pair()
        scale = float(rng.uniform(0, 3))
        scaled = AttributedGraph(
            scale * a.node_attrs,
            [(i, j, scale * v) for (i, j), v in a.edge_items() if np.any(scale * v)],
        )
        assert rel_close(sdp(scaled, b, EXACT).value, scale * sdp(a, b, EXACT).value, 1e-12)

    _report(2, "PASS", "symmetry, permutation invariance, self-product, "
                       "Cauchy-Schwarz, positive homogeneity: 1000 instances each")


# ---------------------------------------------------------------------------
# 3. graduated assignment soundness
# ---------------------------------------------------------------------------

def test_criterion_3_graduated_assignment_soundness():
    rng = np.random.default_rng(303)
    attained = 0
    for _ in range(500):
        d = int(rng.integers(1, 3))
        a = rand_graph(rng, int(rng.integers(1, 7)), d)
        b = rand_graph(rng, int(rng.integers(1, 7)), d)
        heur = ga_sdp(a, b)  # MatchMatrix construction enforces feasibility
        assert not heur.exact
        exact = exact_sdp(a, b)
        assert heur.value <= exact.value + 1e-9
        attained += heur.value >= exact.value - 1e-9
    # GA's quality with the swap search polishing its match: a change that loses it fails
    assert attained >= 440, f"optimum attained on {attained}/500, below 440"
    _report(3, "PASS", f"500/500 feasible and below the exact optimum; "
                       f"optimum attained on {attained}/500 ({100 * attained / 500:.1f}%)")


# ---------------------------------------------------------------------------
# 4. margin perceptron convergence on certified-margin samples
# ---------------------------------------------------------------------------

def test_criterion_4_margin_perceptron_convergence():
    converged = 0
    epochs_used = []
    for s in range(10):
        spec = SyntheticSpec(n_examples={"train": 100}, order_range=(3, 6), attr_dim=2,
                             planted_order=5, planted_margin=0.5, edge_density=0.5,
                             attribute_scale=1.0, seed=4000 + s)
        ds, _ = generate_synthetic(spec)
        train = binary_examples(ds, "train")
        cert = ds.provenance["margin_certificate"]
        # empirical bound on the per-example subgradient norm: sqrt(X.X + 1)
        c_sq = max(sdp(ex.graph, ex.graph, EXACT).value for ex in train) + 1.0
        cfg = TrainConfig(learning_rate=cert / c_sq, margin=cert / 2.0, max_epochs=200,
                          seed=s, matcher=EXACT)
        _, trace = train_binary(train, cfg)
        if trace.converged and trace.epochs[-1].errors == 0:
            converged += 1
            epochs_used.append(trace.final_epoch)
    assert converged == 10
    _report(4, "PASS", f"zero training errors within 200 epochs on 10/10 seeds "
                       f"(epochs used: {min(epochs_used)}..{max(epochs_used)})")


# ---------------------------------------------------------------------------
# 5. subgradient inequality and finite-difference agreement
# ---------------------------------------------------------------------------

def _lift(cells, graph):
    aligned = optimal_align(Representation(cells), graph, EXACT)
    return float(np.vdot(cells, aligned.cells)), aligned.cells


def test_criterion_5_subgradient_and_finite_differences():
    rng = np.random.default_rng(505)

    # Subgradient inequality. The per-example lifted hinge is convex on the
    # cone of weights sharing the state's optimal alignment (where the lift is
    # the linear map through that alignment); probes are drawn inside that
    # cone. For negative labels the loss is globally convex, so those are also
    # checked with unrestricted probes.
    done = 0
    neg_global = 0
    while done < 1000:
        d = int(rng.integers(1, 3))
        n = int(rng.integers(2, 5))
        g = rand_graph(rng, int(rng.integers(1, 5)), d)
        y = 1 if rng.random() < 0.5 else -1
        lam = float(rng.uniform(0, 1))
        w = rand_sym_cells(rng, n, d)
        b = float(rng.normal())
        u0, x0 = _lift(w, g)
        e0 = hinge_loss(u0 + b, y, lam)
        if y * (u0 + b) <= lam:
            grad_w, grad_b = -y * x0, -y
        else:
            grad_w, grad_b = np.zeros_like(x0), 0.0

        if y == -1:
            wp = rand_sym_cells(rng, n, d)
            bp = float(rng.normal())
            up, _ = _lift(wp, g)
            rhs = e0 + float(np.vdot(grad_w, wp - w)) + grad_b * (bp - b)
            assert hinge_loss(up + bp, y, lam) >= rhs - 1e-7
            neg_global += 1

        radius = 1.0
        for _ in range(60):
            wp = w + rand_sym_cells(rng, n, d) * radius
            bp = b + float(rng.normal()) * radius
            up, _ = _lift(wp, g)
            if up - float(np.vdot(wp, x0)) <= 1e-9 * max(1.0, abs(up)):
                break
            radius *= 0.6
        else:
            continue
        rhs = e0 + float(np.vdot(grad_w, wp - w)) + grad_b * (bp - b)
        assert hinge_loss(up + bp, y, lam) >= rhs - 1e-7
        done += 1

    # Finite differences at verified-differentiable points: unique alignment
    # with a clear gap and the hinge strictly active or inactive, so the loss
    # is linear on the probed segment.
    points = 0
    while points < 200:
        d = int(rng.integers(1, 3))
        n = int(rng.integers(2, 4))
        g = rand_graph(rng, n, d)
        rep = to_representation(g)
        y = 1 if rng.random() < 0.5 else -1
        lam = float(rng.uniform(0, 1))
        w = rand_sym_cells(rng, n, d)
        b = float(rng.normal())
        scores = sorted(
            (float(np.vdot(w, rep.cells[np.ix_(list(p), list(p))]))
             for p in itertools.permutations(range(n))),
            reverse=True,
        )
        if len(scores) > 1 and scores[0] - scores[1] < 1e-3:
            continue
        u0, x0 = _lift(w, g)
        if abs(y * (u0 + b) - lam) < 1e-3:
            continue
        active = y * (u0 + b) <= lam
        grad_w, grad_b = (-y * x0, -y) if active else (np.zeros_like(x0), 0.0)
        v_w = rand_sym_cells(rng, n, d)
        v_b = float(rng.normal())
        h = 1e-5

        def loss_at(ww, bb):
            u, _ = _lift(ww, g)
            return hinge_loss(u + bb, y, lam)

        fd = (loss_at(w + h * v_w, b + h * v_b) - loss_at(w - h * v_w, b - h * v_b)) / (2 * h)
        directional = float(np.vdot(grad_w, v_w)) + grad_b * v_b
        assert abs(fd - directional) <= 1e-4 * max(1.0, abs(directional))
        points += 1

    _report(5, "PASS", f"subgradient inequality on 1000 cone triples "
                       f"(+{neg_global} unrestricted negative-label probes); "
                       f"finite differences agree at 200 differentiable points")


# ---------------------------------------------------------------------------
# 6. geometry: separation bound and hand formulas
# ---------------------------------------------------------------------------

def test_criterion_6_geometry():
    rng = np.random.default_rng(606)
    done = 0
    while done < 200:
        d = int(rng.integers(1, 3))
        order_w = int(rng.integers(3, 6))
        # weight graphs at least as large as the inputs keep evaluation equal to
        # the common-order lift, the regime of the distance bound
        w = rand_graph(rng, order_w, d, density=0.7)
        model = SublinearModel.from_weight_graph(w, float(rng.uniform(-1, 1)), EXACT)
        pos = neg = None
        for _ in range(150):
            g = rand_graph(rng, int(rng.integers(1, order_w + 1)), d)
            value = evaluate(model, g)
            if value > 0 and pos is None:
                pos = g
            elif value <= 0 and neg is None:
                neg = g
            if pos is not None and neg is not None:
                break
        else:
            continue
        assert induced_distance(pos, neg, EXACT) >= margin_lower_bound(model, pos) - 1e-9
        done += 1

    gx = AttributedGraph([[1.0], [2.0]], [(0, 1, [1.0])])
    assert origin_distance(SublinearModel.from_weight_graph(gx, 1.0, EXACT)) == pytest.approx(
        1.0 / math.sqrt(7.0), rel=1e-12
    )
    two = SublinearModel.from_weight_graph(AttributedGraph([[2.0]]), 2.0, EXACT)
    assert origin_distance(two) == 1.0
    assert margin_lower_bound(two, AttributedGraph([[1.0]])) == 2.0  # f = 4, ||W|| = 2
    assert margin_lower_bound(two, AttributedGraph([[-1.0]])) == 0.0  # f = 0 on the surface
    _report(6, "PASS", "distance bound on 200 separated triples; "
                       "origin distance and margin bound match hand formulas")


# ---------------------------------------------------------------------------
# 7. protocol reproducibility and matcher-call accounting
# ---------------------------------------------------------------------------

def test_criterion_7_protocol_reproducibility_and_accounting():
    spec = SyntheticSpec(n_examples={"train": 16, "validation": 8, "test": 8},
                         order_range=(2, 4), attr_dim=2, planted_order=3,
                         planted_margin=0.4, edge_density=0.6, seed=707)
    ds, _ = generate_synthetic(spec)
    cfg = ProtocolConfig(dataset=ds, algorithm="margin_perceptron",
                         eta_grid=(0.1, 0.5), lambda_grid=(0.05, 0.1),
                         repeats=2, seed=7, max_epochs=15)
    first = run_protocol(cfg).to_json()
    second = run_protocol(cfg).to_json()
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    data3 = [LabeledExample(AttributedGraph(2.0 * np.eye(3)[[i]]), f"c{i}") for i in range(3)]
    ova, _ = train_one_vs_all(data3, TrainConfig(learning_rate=0.5, max_epochs=10, seed=0))
    ova_calls = matcher_call_count()
    predict_multiclass(ova, data3[1].graph)
    ova_calls = matcher_call_count() - ova_calls
    assert ova_calls == len(ova.classes)

    train = ds.split("train")
    knn_calls = matcher_call_count()
    knn_classify(train, ds.split("test")[0].graph, 1, EXACT)
    knn_calls = matcher_call_count() - knn_calls
    assert knn_calls == len(train)

    _report(7, "PASS", f"identical reports modulo wall time; one-against-all "
                       f"prediction = {ova_calls} calls (classes), 1-NN query = "
                       f"{knn_calls} calls (training size)")


def test_criterion_7_protocol_matcher_call_accounting():
    # max_epochs=1: the first epoch from zero weights always updates, so every fit
    # runs exactly one epoch. With no per-epoch scoring pass in the protocol, its
    # matcher calls are one per training step plus one per prediction, per member.
    spec = SyntheticSpec(n_examples={"train": 16, "validation": 8, "test": 8},
                         order_range=(2, 4), attr_dim=2, planted_order=3,
                         planted_margin=0.4, edge_density=0.6, seed=707)
    binary, _ = generate_synthetic(spec)
    rng = np.random.default_rng(17)
    three = Dataset("three-class", {name: three_class_examples(rng, size) for name, size
                                    in (("train", 9), ("validation", 6), ("test", 6))},
                    ("c0", "c1", "c2"))

    for ds, members in ((binary, 1), (three, 3)):
        cfg = ProtocolConfig(dataset=ds, algorithm="margin_perceptron",
                             eta_grid=(0.1, 0.5), lambda_grid=(0.05, 0.1, 0.2),
                             repeats=2, seed=7, max_epochs=1)
        report = run_protocol(cfg)
        n_train, n_val, n_test = (len(ds.split(s)) for s in ("train", "validation", "test"))
        grid_fits = (len(cfg.eta_grid) + len(cfg.lambda_grid)) * cfg.repeats
        per_member = (grid_fits * (n_train + n_val)
                      + cfg.repeats * (n_train + n_val + n_test))
        assert report.matcher_calls == per_member * members
        _report(7, "PASS", f"{ds.name}: {report.matcher_calls} protocol matcher calls = "
                           f"training steps + predictions ({members} member(s))")


# ---------------------------------------------------------------------------
# 8. informational: published letter benchmark (requires external data)
# ---------------------------------------------------------------------------

def test_criterion_8_letter_benchmark_informational():
    data_dir = os.environ.get("LETTER_DATA_DIR")
    if not data_dir:
        _report(8, "INFO", "skipped: set LETTER_DATA_DIR to a directory with "
                           "train/validation/test .cxl files to run the "
                           "informational letter benchmark")
        pytest.skip("LETTER_DATA_DIR not set (informational criterion)")
    dataset = read_cxl_dataset(data_dir, GXL_PRESETS["letter"])
    cfg = ProtocolConfig(
        dataset=dataset,
        algorithm="margin_perceptron",
        eta_grid=DEFAULT_ETA_GRID,
        lambda_grid=DEFAULT_LAMBDA_GRID,
        repeats=10,
        seed=int(os.environ.get("LETTER_SEED", "0")),
        matcher=MatcherConfig(method="graduated"),
        max_epochs=int(os.environ.get("LETTER_MAX_EPOCHS", "5")),
    )
    report = run_protocol(cfg)
    mean_pct = 100.0 * report.test_mean
    target, band = 95.5, 3.0
    verdict = "within" if abs(mean_pct - target) <= band else "outside"
    _report(8, "INFO", f"letter margin-perceptron mean test accuracy "
                       f"{mean_pct:.1f}% is {verdict} {target} +/- {band} "
                       f"(informational only, never gating)")


# ---------------------------------------------------------------------------
# 9. soft trend: margin perceptron vs perceptron under label noise
# ---------------------------------------------------------------------------

def test_criterion_9_noise_trend_soft_check():
    margin_accs = []
    plain_accs = []
    for s in range(10):
        spec = SyntheticSpec(n_examples={"train": 40, "validation": 20, "test": 30},
                             order_range=(3, 5), attr_dim=2, planted_order=4,
                             planted_margin=0.4, edge_density=0.5, seed=9000 + s)
        ds, _ = generate_synthetic(spec)
        cert = ds.provenance["margin_certificate"]
        train = binary_examples(ds, "train")
        val = binary_examples(ds, "validation")
        test = binary_examples(ds, "test")
        noise = np.random.default_rng(100 + s)
        train = [LabeledExample(ex.graph, -ex.y if noise.random() < 0.05 else ex.y)
                 for ex in train]
        c_sq = max(sdp(ex.graph, ex.graph, EXACT).value for ex in train) + 1.0
        eta = cert / c_sq

        def accuracy(model, data):
            return sum(classify(model, ex.graph) == ex.y for ex in data) / len(data)

        plain, _ = train_binary(train, TrainConfig(learning_rate=eta, margin=0.0,
                                                   max_epochs=30, seed=s, matcher=EXACT))
        plain_accs.append(accuracy(plain, test))

        best_model, best_val = None, -1.0
        for lam in (cert / 4.0, cert / 2.0, cert):
            model, _ = train_binary(train, TrainConfig(learning_rate=eta, margin=lam,
                                                       max_epochs=30, seed=s, matcher=EXACT))
            score = accuracy(model, val)
            if score > best_val:
                best_val, best_model = score, model
        margin_accs.append(accuracy(best_model, test))

    margin_mean = float(np.mean(margin_accs))
    plain_mean = float(np.mean(plain_accs))
    if margin_mean >= plain_mean:
        _report(9, "PASS", f"margin perceptron mean {margin_mean:.4f} >= "
                           f"perceptron mean {plain_mean:.4f} over 10 noisy seeds")
    else:
        warnings.warn(
            f"soft trend check: margin perceptron mean {margin_mean:.4f} fell below "
            f"perceptron mean {plain_mean:.4f} on noisy data (reported, not gating)"
        )
        _report(9, "WARN", f"margin {margin_mean:.4f} < perceptron {plain_mean:.4f} "
                           f"(soft gate: warning only)")
