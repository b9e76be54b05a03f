import json
import re

import numpy as np
import pytest

from oracles import knapsack_arrays, reference_logistic_optimum, reference_logistic_probabilities
from probranch.bnb import SolveOptions, solve_mip
from probranch.branching import round_prediction
from probranch.generators import gen_knapsack_uniform, gen_scp
from probranch.lp import fractional_knapsack
from probranch.model import LinearRow, MipInstance, MalformedDocumentError
from probranch.predict import (
    LogisticModel,
    Prediction,
    _newton_directions,
    _sigmoid,
    load_model,
    load_prediction,
    logistic_gradient,
    logistic_loss,
    logistic_predict,
    logistic_train,
    lp_root_predict,
    predictor,
    save_model,
    save_prediction,
)


def labelled_family(m, n, density, count, seed):
    fam = gen_scp(m, n, density, count, seed)
    data = []
    for xi, inst in fam.instances:
        rep = solve_mip(inst, options=SolveOptions(rel_gap=0.0))
        data.append((xi, np.round(rep.best_solution.binary_part(inst))))
    return data


class TestLogisticTrain:
    def test_separable_single_feature(self):
        # regularization bounds the weights, so certainty is capped: the
        # >= 0.99 claim holds on the training points far from the boundary
        rng = np.random.default_rng(0)
        xs = np.concatenate([rng.uniform(-3, -1, 20), rng.uniform(1, 3, 20)])
        dataset = [(np.array([x]), np.array([1.0 if x > 0 else 0.0])) for x in xs]
        model = logistic_train(dataset, reg=1e-4)
        probs = np.array(
            [logistic_predict(model, np.array([x])).probabilities[0] for x in xs]
        )
        labels = (xs > 0).astype(float)
        far = np.abs(xs) >= 2.0
        assert far.any()
        assert np.all(np.abs(probs[far] - labels[far]) <= 0.01)
        # a long plain gradient-descent run reaches the same conclusion
        std = (xs - xs.mean()) / xs.std()
        ref = reference_logistic_probabilities(std.reshape(-1, 1), labels, reg=1e-4)
        assert np.all(np.abs(ref[far] - labels[far]) <= 0.01)
        assert np.max(np.abs(ref - probs)) <= 0.05

    def test_constant_labels_short_circuit(self):
        dataset = [(np.array([float(i)]), np.array([1.0])) for i in range(6)]
        model = logistic_train(dataset, reg=1e-12)
        assert model.iterations[0] == 0
        p = logistic_predict(model, np.array([100.0])).probabilities[0]
        assert p > 0.999

    def test_all_constant_labels_take_no_gradient_step(self, monkeypatch):
        from probranch import predict

        calls = []
        gradient = predict.logistic_gradient

        def counted(*args):
            calls.append(1)
            return gradient(*args)

        monkeypatch.setattr(predict, "logistic_gradient", counted)
        dataset = [(np.array([float(i), 1.0 - i]), np.array([1.0, 0.0, 1.0])) for i in range(5)]
        model = logistic_train(dataset, max_iters=500)
        assert not calls
        assert model.iterations == [0, 0, 0]
        assert [len(trace) for trace in model.loss_trace] == [1, 1, 1]
        assert np.array_equal(model.weights, np.zeros((3, 2)))
        p = logistic_predict(model, np.array([2.0, 3.0])).probabilities
        assert p[0] > 0.999 and p[1] < 0.001 and p[2] > 0.999

    def test_fifty_fifty_uninformative_features(self):
        # constant features carry zero information, so symmetry pins 0.5
        dataset = [
            (np.array([1.0, -2.0, 3.0]), np.array([1.0 if i % 2 == 0 else 0.0]))
            for i in range(40)
        ]
        model = logistic_train(dataset)
        p = logistic_predict(model, np.array([4.0, 0.0, 1.0])).probabilities[0]
        assert p == pytest.approx(0.5, abs=1e-3)

    def test_loss_trace_non_increasing(self):
        rng = np.random.default_rng(2)
        dataset = [
            (rng.normal(size=4), (rng.random(5) > 0.5).astype(float)) for _ in range(30)
        ]
        model = logistic_train(dataset)
        for trace in model.loss_trace:
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-12

    def test_dimension_mismatch(self):
        dataset = [(np.zeros(2), np.zeros(3)), (np.zeros(3), np.zeros(3))]
        with pytest.raises(ValueError):
            logistic_train(dataset)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            logistic_train([(np.zeros(1), np.zeros(1))])

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, p = int(rng.integers(4, 12)), int(rng.integers(1, 5))
            x = rng.normal(size=(n, p))
            y = (rng.random(n) > 0.5).astype(float)
            w = rng.normal(size=p)
            b = float(rng.normal())
            reg = 10.0 ** rng.uniform(-5, -2)
            gw, gb = logistic_gradient(w, b, x, y, reg)
            h = 1e-6
            num = np.empty(p)
            for j in range(p):
                e = np.zeros(p)
                e[j] = h
                num[j] = (
                    logistic_loss(w + e, b, x, y, reg) - logistic_loss(w - e, b, x, y, reg)
                ) / (2 * h)
            numb = (
                logistic_loss(w, b + h, x, y, reg) - logistic_loss(w, b - h, x, y, reg)
            ) / (2 * h)
            denom = max(1.0, float(np.linalg.norm(np.append(gw, gb))))
            assert np.linalg.norm(num - gw) / denom <= 1e-5
            assert abs(numb - gb) / denom <= 1e-5

    def test_held_out_accuracy_close_to_training(self):
        data = labelled_family(6, 10, 0.35, 30, seed=51)
        fit, held = data[:24], data[24:]
        model = logistic_train(fit)

        def accuracy(rows):
            hits = total = 0
            for xi, y in rows:
                p = logistic_predict(model, xi).probabilities
                hits += int(np.sum(np.round(p) == y))
                total += len(y)
            return hits / total

        assert accuracy(held) >= accuracy(fit) - 0.10

    def test_held_out_accuracy_on_mkp_family(self):
        from probranch.generators import gen_mkp

        fam = gen_mkp(3, 10, 24, seed=59)
        data = []
        for xi, inst in fam.instances:
            rep = solve_mip(inst, options=SolveOptions(rel_gap=0.0))
            data.append((xi, np.round(rep.best_solution.binary_part(inst))))
        fit, held = data[:18], data[18:]
        model = logistic_train(fit)

        def accuracy(rows):
            hits = total = 0
            for xi, y in rows:
                p = logistic_predict(model, xi).probabilities
                hits += int(np.sum(np.round(p) == y))
                total += len(y)
            return hits / total

        assert accuracy(held) >= accuracy(fit) - 0.10


def fit_against_optimum(x, labels, reg=1e-4, max_iters=500, tol=1e-6):
    """Train the batch and check every fitted column at its own optimum.

    The reference fits each column alone in the full feature space with
    scipy; the two must agree within 1e-6 in probability on the training
    rows, the batch's gradient must meet ``tol``, and its weights must
    lie in the row space of the standardized features.
    """
    model = logistic_train(list(zip(x, labels)), reg=reg, max_iters=max_iters, tol=tol)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    xs = (x - x.mean(axis=0)) / std
    row_space = np.linalg.pinv(xs) @ xs  # the orthogonal projector onto it
    for j in range(labels.shape[1]):
        trace = model.loss_trace[j]
        assert len(trace) == model.iterations[j] + 1
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        if np.all(labels[:, j] == labels[0, j]):
            assert model.iterations[j] == 0 and not model.weights[j].any()
            continue
        assert model.iterations[j] < max_iters
        gw, gb = logistic_gradient(model.weights[j], model.intercepts[j], xs, labels[:, j], reg)
        assert np.hypot(np.linalg.norm(gw), gb) <= tol
        assert trace[-1] == pytest.approx(
            logistic_loss(model.weights[j], model.intercepts[j], xs, labels[:, j], reg),
            rel=1e-12,
        )
        w, b = reference_logistic_optimum(xs, labels[:, j], reg)
        p = _sigmoid(xs @ model.weights[j] + model.intercepts[j])
        assert np.max(np.abs(p - _sigmoid(xs @ w + b))) <= 1e-6
        np.testing.assert_allclose(row_space @ model.weights[j], model.weights[j], atol=1e-12)
    return model


class TestBatchedFit:
    """Every column of the batched Newton fit reaches its own optimum."""

    def separable(self, seed=0):
        # 10 samples of 60 features, as in a pipeline-ca training set
        rng = np.random.default_rng(seed)
        labels = (rng.random((10, 15)) > 0.5).astype(float)
        labels[0], labels[1] = 1.0, 0.0  # no column is constant
        return rng.normal(100.0, 50.0, size=(10, 60)), labels

    def test_separable_columns_converge_within_30_steps(self):
        # a deterministic guard of the speed-up: each column takes about 11 Newton steps
        model = fit_against_optimum(*self.separable())
        assert max(model.iterations) <= 30

    @pytest.mark.parametrize("tol", [1e-13, 0.0])
    def test_a_step_that_only_ties_the_loss_stops_the_model(self, tol):
        # below what rounding allows, the Armijo test's right-hand side
        # rounds to the loss itself; a trial that ties it is no step, so
        # every column stops for want of one instead of at the cap
        model = logistic_train(list(zip(*self.separable())), tol=tol)
        assert max(model.iterations) < 500
        for trace in model.loss_trace:
            assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_constant_and_fitted_columns_mixed(self):
        x, labels = self.separable(seed=1)
        labels[:, [0, 7]] = 0.0
        labels[:, 4] = 1.0
        model = fit_against_optimum(x, labels)
        assert [j for j, k in enumerate(model.iterations) if k == 0] == [0, 4, 7]

    def test_columns_meeting_tol_at_different_times(self):
        rng = np.random.default_rng(5)
        half = rng.normal(size=(20, 3))
        x = np.vstack([half, -half])
        labels = (rng.random((40, 5)) > 0.5).astype(float)
        labels[:, 0] = x[:, 0] > 0  # separable
        labels[:, 3] = np.tile(rng.random(20) > 0.3, 2)  # mirrored: only the intercept moves
        labels[:, 4] = np.tile(np.repeat([1.0, 0.0], 10), 2)  # balanced and mirrored
        model = fit_against_optimum(x, labels, reg=1e-3)
        its = model.iterations
        assert its[4] == 0  # the gradient vanishes at zero weights
        assert all(k > 0 for k in its[:4])
        assert len(set(its)) > 2
        assert np.max(np.abs(model.weights[3])) <= 1e-12  # mirrored: the weights stay at zero

    def test_huge_penalty_stops(self):
        # the middle column's loss falls only along steps of about 1/reg,
        # far below any gradient step of at least 1e-12; the Newton step
        # scales by the Hessian and reaches the optimum w = -0.5 / (reg + 1/4)
        # on these +-1 features at once
        x = np.tile([[-1.0], [1.0]], (4, 1))
        stuck = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        free = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        labels = np.column_stack([free, stuck, np.ones(8)])
        for reg in (1e8, 1e14):
            model = fit_against_optimum(x, labels, reg=reg)
            assert model.iterations[1] == 1 and model.iterations[2] == 0
            assert model.weights[1, 0] == pytest.approx(-0.5 / (reg + 0.25), rel=1e-9)
            assert abs(model.weights[0, 0]) <= 1e-12  # the free column moves its intercept only

    def test_three_iterations(self):
        # three steps, and one, stop every fitted column at the cap
        x, labels = self.separable(seed=2)
        labels[:, 2] = 1.0
        for max_iters in (3, 1):
            model = logistic_train(list(zip(x, labels)), max_iters=max_iters)
            assert sorted(set(model.iterations)) == [0, max_iters]
            assert [len(t) for t in model.loss_trace] == [k + 1 for k in model.iterations]
            for trace in model.loss_trace:
                assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_singular_or_ascent_newton_direction_takes_the_gradient(self):
        grad = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        gnorm2 = np.einsum("ij,ij->i", grad, grad)
        hess = np.array([
            [[2.0, 0.0], [0.0, 4.0]],  # positive definite: the Newton direction
            [[1.0, 0.0], [0.0, 0.0]],  # a vanished intercept entry: singular
            [[-1.0, 0.0], [0.0, -1.0]],  # negative definite: an ascent direction
        ])
        direction, decrement = _newton_directions(hess, grad, gnorm2)
        np.testing.assert_allclose(direction[0], [0.5, 0.5])
        assert decrement[0] == pytest.approx(1.5)
        np.testing.assert_array_equal(direction[1:], grad[1:])
        np.testing.assert_array_equal(decrement[1:], gnorm2[1:])

    def test_stacked_loss_and_gradient_match_rows(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(9, 4))
        y = (rng.random((9, 6)) > 0.5).astype(float)
        w = rng.normal(size=(6, 4))
        b = rng.normal(size=6)
        loss = logistic_loss(w, b, x, y, 1e-2)
        gw, gb = logistic_gradient(w, b, x, y, 1e-2)
        assert loss.shape == gb.shape == (6,) and gw.shape == (6, 4)
        for j in range(6):
            assert loss[j] == pytest.approx(logistic_loss(w[j], b[j], x, y[:, j], 1e-2), rel=1e-14)
            gwj, gbj = logistic_gradient(w[j], b[j], x, y[:, j], 1e-2)
            np.testing.assert_allclose(gw[j], gwj, rtol=1e-13, atol=1e-15)
            assert gb[j] == pytest.approx(gbj, rel=1e-13, abs=1e-15)


class TestLogisticPredict:
    def test_zero_weights_give_half(self):
        model = LogisticModel(
            weights=np.zeros((3, 2)),
            intercepts=np.zeros(3),
            feature_mean=np.zeros(2),
            feature_std=np.ones(2),
            regularization=1e-4,
        )
        p = logistic_predict(model, np.array([5.0, -2.0])).probabilities
        assert p == pytest.approx([0.5, 0.5, 0.5])

    def test_large_intercept_saturates(self):
        model = LogisticModel(
            weights=np.zeros((1, 1)),
            intercepts=np.array([30.0]),
            feature_mean=np.zeros(1),
            feature_std=np.ones(1),
            regularization=1e-4,
        )
        p = logistic_predict(model, np.array([0.0])).probabilities[0]
        assert p > 0.999
        assert p < 1.0

    def test_feature_dimension_checked(self):
        model = LogisticModel(
            weights=np.zeros((1, 2)),
            intercepts=np.zeros(1),
            feature_mean=np.zeros(2),
            feature_std=np.ones(2),
            regularization=1e-4,
        )
        with pytest.raises(ValueError):
            logistic_predict(model, np.zeros(3))

    def test_model_round_trip(self, tmp_path):
        data = labelled_family(5, 8, 0.4, 10, seed=53)
        model = logistic_train(data)
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        xi = data[0][0]
        assert logistic_predict(back, xi).probabilities == pytest.approx(
            logistic_predict(model, xi).probabilities
        )

    def test_fit_part_names_round_trip_and_may_be_absent(self, tmp_path):
        model = logistic_train(labelled_family(5, 8, 0.4, 10, seed=53))
        model.fitted_on = ["a", "b"]
        save_model(model, tmp_path / "m.json")
        assert load_model(tmp_path / "m.json").fitted_on == ["a", "b"]
        doc = json.loads((tmp_path / "m.json").read_text())
        del doc["fitted_on"]  # a model file written before the field existed
        (tmp_path / "old.json").write_text(json.dumps(doc))
        assert load_model(tmp_path / "old.json").fitted_on == []

    def test_a_model_file_of_a_wrong_shape_or_value_is_rejected_naming_the_field(self, tmp_path):
        save_model(logistic_train(labelled_family(5, 8, 0.4, 10, seed=53)), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        k, f = np.shape(doc["weights"])
        nan_weight = [[float("nan")] * f] + doc["weights"][1:]
        for field, value, message in (
            ("weights", [0.0] * f, r"shape \(%d,\) is not \(k, f\)" % f),
            ("weights", [[[0.0] * f]] * k, "shape .* is not"),
            ("intercepts", [0.0] * (k + 1), r"shape \(%d,\), expected \(%d,\)" % (k + 1, k)),
            ("feature_mean", [0.0] * (f - 1), "shape"),
            ("feature_std", [1.0] * (f + 1), "shape"),
            ("weights", nan_weight, "finite"),
            ("intercepts", [float("inf")] * k, "finite"),
            ("feature_mean", [float("nan")] * f, "finite"),
            ("feature_std", [0.0] + [1.0] * (f - 1), "positive"),
            ("feature_std", [-1.0] * f, "positive"),
        ):
            (tmp_path / "bad.json").write_text(json.dumps(dict(doc, **{field: value})))
            with pytest.raises(MalformedDocumentError, match=f"{field}: .*{message}"):
                load_model(tmp_path / "bad.json")

    def test_a_model_field_holding_a_string_boolean_or_null_is_rejected_naming_it(self, tmp_path):
        save_model(logistic_train(labelled_family(5, 8, 0.4, 10, seed=53)), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        weights = doc["weights"]
        for field, value in (
            ("weights", [["0.5"] + weights[0][1:]] + weights[1:]),
            ("weights", weights[:-1] + [weights[-1][:-1] + [True]]),
            ("intercepts", [None] + doc["intercepts"][1:]),
            ("feature_mean", ["1e-3"] + doc["feature_mean"][1:]),
            ("feature_std", doc["feature_std"][:-1] + [False]),
            ("regularization", "1e-4"),
            ("regularization", True),
            ("regularization", None),
        ):
            (tmp_path / "bad.json").write_text(json.dumps(dict(doc, **{field: value})))
            with pytest.raises(MalformedDocumentError, match=f"{field}: .* is not a number"):
                load_model(tmp_path / "bad.json")


class TestLpRootPredict:
    def test_knapsack_has_single_fractional_entry(self):
        uk = gen_knapsack_uniform(40, 0.3, seed=55)
        p = lp_root_predict(uk.instance, backend="simplex").probabilities
        frac = np.sum((p > 1e-9) & (p < 1 - 1e-9))
        assert frac == 1
        assert p.shape == (40,)

    def test_integral_relaxation_equals_optimum(self):
        # weights equal capacity slack: the LP takes everything integrally
        inst = MipInstance(
            "loose", "maximize", 3, 0,
            objective=[(0, 2.0), (1, 1.0), (2, 3.0)],
            rows=[LinearRow([(0, 1.0), (1, 1.0), (2, 1.0)], "<=", 3.0)],
        )
        p = lp_root_predict(inst, backend="simplex").probabilities
        assert np.all((p == 0.0) | (p == 1.0))
        assert p == pytest.approx([1.0, 1.0, 1.0])

    def test_ipm_symmetric_edge(self):
        inst = MipInstance(
            "sym", "maximize", 2, 0,
            objective=[(0, 1.0), (1, 1.0)],
            rows=[LinearRow([(0, 1.0), (1, 1.0)], "<=", 1.0)],
        )
        p = lp_root_predict(inst, backend="ipm").probabilities
        assert p == pytest.approx([0.5, 0.5], abs=1e-3)

    def test_infeasible_relaxation_raises(self):
        inst = MipInstance(
            "bad", "minimize", 1, 0, [(0, 1.0)],
            [LinearRow([(0, 1.0)], ">=", 1.0), LinearRow([(0, 1.0)], "<=", 0.0)],
        )
        with pytest.raises(ValueError):
            lp_root_predict(inst)

    @pytest.mark.parametrize("n", [20, 100, 2048])
    def test_rounded_at_one_gives_the_greedy_sets(self, n):
        # the sets verify's knapsack-rounding check reads: the items the
        # LP root takes whole (U) and leaves out (L)
        for seed in range(10):
            uk = gen_knapsack_uniform(n, 0.3, seed=seed)
            y, _, _ = fractional_knapsack(*knapsack_arrays(uk.instance))
            up, down, rest = round_prediction(lp_root_predict(uk.instance), 1.0)
            assert np.array_equal(up, np.nonzero(y == 1.0)[0])
            assert np.array_equal(down, np.nonzero(y == 0.0)[0])
            assert len(rest) == 1


def test_predictor_names():
    uk = gen_knapsack_uniform(10, 0.3, seed=57)
    for name, backend in (("lp-root-simplex", "simplex"), ("lp-root-ipm", "ipm")):
        assert np.array_equal(predictor(name)(uk.instance).probabilities,
                              lp_root_predict(uk.instance, backend).probabilities)
    with pytest.raises(ValueError, match="needs a model"):
        predictor("logistic")
    with pytest.raises(ValueError, match="unknown predictor"):
        predictor("lp-root-dual")


class TestPredictionFiles:
    def test_load_simple_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "predictions": [
                {"index": 0, "probability": 0.93},
                {"index": 1, "probability": 0.02},
            ],
        }))
        p = load_prediction(path, 2)
        assert p.probabilities == pytest.approx([0.93, 0.02])

    def test_missing_index_is_length_mismatch(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "predictions": [{"index": 0, "probability": 0.5}],
        }))
        with pytest.raises(ValueError, match="covers"):
            load_prediction(path, 2)

    def test_out_of_range_probability_clamped_with_warning(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "predictions": [{"index": 0, "probability": 1.2}],
        }))
        with pytest.warns(UserWarning, match="clamped"):
            p = load_prediction(path, 1)
        assert p.probabilities[0] == 1.0

    def test_an_index_or_probability_of_another_type_is_rejected_not_truncated(self, tmp_path):
        path = tmp_path / "p.json"
        for entry, error, message in (
            ({"index": 1.5, "probability": 0.2}, ValueError, "prediction: index 1.5 is not"),
            ({"index": True, "probability": 0.2}, ValueError, "prediction: index True is not"),
            ({"index": 1, "probability": "0.2"}, MalformedDocumentError, "'0.2' is not a number"),
            ({"index": 1, "probability": True}, MalformedDocumentError, "True is not a number"),
            ({"index": 0, "probability": 0.2}, ValueError, "prediction: duplicate index 0"),
            ({"index": 2, "probability": 0.2}, ValueError, "index 2 out of range [0, 2)"),
        ):
            path.write_text(json.dumps({
                "format_version": 1,
                "predictions": [{"index": 0, "probability": 0.5}, entry],
            }))
            with pytest.raises(error, match=re.escape(message)):
                load_prediction(path, 2)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{not json")
        with pytest.raises(MalformedDocumentError):
            load_prediction(path, 1)

    def test_save_then_load_round_trip(self, tmp_path):
        pred = Prediction(np.array([0.1, 0.9, 0.5]))
        save_prediction(pred, tmp_path / "p.json")
        back = load_prediction(tmp_path / "p.json", 3)
        assert back.probabilities == pytest.approx(pred.probabilities)

    def test_prediction_type_validates_range(self):
        for bad in (1.5, -0.1, np.nan):
            with pytest.raises(ValueError):
                Prediction(np.array([0.5, bad]))
