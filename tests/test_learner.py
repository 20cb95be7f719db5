"""Dual coordinate descent solvers, one-vs-rest, trait regression, model files."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styloprof import learner
from styloprof.errors import DataError
from styloprof.features import ScalingPolicy, SparseMatrix
from styloprof.learner import (
    REST_LABEL,
    LinearModel,
    ModelBundle,
    OneVsRestModel,
    TrainConfig,
    load_model,
    margins,
    predict,
    save_model,
    train_binary,
    train_ovr,
    train_traits,
)

from oracles import (epsilon_objective, hinge_objective, loop_margin, matrix_from_rows,
                     random_separable_instance, reference_solve_eps, reference_solve_hinge)

TIGHT = TrainConfig(c_param=1.0, epochs=4000, tolerance=1e-12, seed=0)


def dense(*vectors, dim=None):
    """A matrix with one row per dense vector, zeros left out."""
    return matrix_from_rows([{i: float(v) for i, v in enumerate(vec) if v} for vec in vectors],
                            dim or max(len(vec) for vec in vectors))


def labels_of(model, X):
    return [label for label, _ in predict(model, X)]


def tight(c_param=1.0, seed=0, epsilon=0.1):
    return TrainConfig(c_param=c_param, epochs=4000, tolerance=1e-12,
                       seed=seed, epsilon=epsilon)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.c_param, cfg.epochs, cfg.tolerance, cfg.seed, cfg.epsilon) == (
            1.0, 50, 1e-4, 0, 0.1,
        )

    @pytest.mark.parametrize("kw", [
        {"c_param": 0.0}, {"c_param": -1.0},
        {"epochs": 0}, {"tolerance": 0.0}, {"epsilon": -0.1},
    ])
    def test_bounds_enforced(self, kw):
        with pytest.raises(DataError):
            TrainConfig(**kw)


class TestTrainBinary:
    def test_separable_four_points(self):
        X = dense([0, 1], [0, 2], [3, 0], [4, 0])
        y = [1, 1, -1, -1]
        model = train_binary(X, y, TrainConfig())
        assert labels_of(model, X) == y

    def test_two_symmetric_points_analytic(self):
        # +1 at (1, 0), -1 at (-1, 0), C=10: by symmetry b=0 and the
        # objective 0.5 w^2 + 20 max(0, 1-w) is minimized at w=(1, 0)
        X = dense([1, 0], [-1, 0])
        model = train_binary(X, [1, -1], tight(c_param=10.0))
        assert model.weights[0] == pytest.approx(1.0, abs=1e-9)
        assert model.weights[1] == pytest.approx(0.0, abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        obj = hinge_objective(model.weights, model.bias, X, [1, -1], 10.0)
        assert obj == pytest.approx(0.5, abs=1e-9)

    def test_single_point_pair_analytic(self):
        # {(2) -> +1, (-2) -> -1}, C=1: KKT gives alpha=1/5, w=2 alpha twice
        # of the two mirrored points stacked; simpler: the margin constraint
        # is active with w=0.4, b=0 and objective 0.08 + hinge... verify
        # numerically against the closed form of the one-variable problem
        X = dense([2.0], [-2.0])
        model = train_binary(X, [1, -1], tight())
        # symmetric pair: f(w) = w^2/2 + 2 max(0, 1-2w) minimized at w=1/2
        assert model.weights[0] == pytest.approx(0.5, abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)

    def test_xor_objective_matches_analytic_optimum(self):
        # in the region where all hinges are active the objective reduces
        # to u^2 + b^2/2 + 4C, so w=0, b=0 is optimal with value 4C
        X = dense([0, 0], [1, 1], [0, 1], [1, 0])
        y = [1, 1, -1, -1]
        model = train_binary(X, y, tight())
        obj = hinge_objective(model.weights, model.bias, X, y, 1.0)
        assert obj == pytest.approx(4.0, rel=1e-3)

    def test_deterministic(self):
        rng = random.Random(11)
        X = matrix_from_rows([{j: rng.uniform(-2, 2) for j in range(4)} for _ in range(20)], 4)
        y = [rng.choice([1, -1]) for _ in range(20)]
        y[0], y[1] = 1, -1
        cfg = TrainConfig(seed=33)
        a = train_binary(X, y, cfg)
        b = train_binary(X, y, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.epoch_objectives == b.epoch_objectives

    def test_seed_may_change_path_not_quality(self):
        X = dense([0, 1], [0, 2], [3, 0], [4, 0])
        y = [1, 1, -1, -1]
        obj = [
            hinge_objective(m.weights, m.bias, X, y, 1.0)
            for m in (train_binary(X, y, tight(seed=0)), train_binary(X, y, tight(seed=99)))
        ]
        assert obj[0] == pytest.approx(obj[1], rel=1e-9)

    @pytest.mark.parametrize("c_param", [1e3, 1e4])
    def test_separable_data_perfectly_fit(self, c_param):
        rng = random.Random(202)
        for _ in range(10):
            rows, labels, dim = random_separable_instance(rng)
            X = matrix_from_rows(rows, dim)
            cfg = TrainConfig(c_param=c_param, epochs=2000, tolerance=1e-8, seed=1)
            model = train_binary(X, labels, cfg)
            assert labels_of(model, X) == labels

    def test_scale_covariance_on_origin_symmetric_data(self):
        # for every (x, +1) the mirrored (-x, -1) is present, so the optimal
        # bias is 0 and scaling inputs by s with C divided by s^2 rescales
        # the solution without moving any decision
        rng = random.Random(7)
        rows, labels = [], []
        for _ in range(8):
            entries = {0: 2.0 + rng.uniform(0, 1), 1: rng.uniform(-1, 1)}
            rows.append(entries)
            labels.append(1)
            rows.append({k: -v for k, v in entries.items()})
            labels.append(-1)
        s = 4.0
        plain = matrix_from_rows(rows, 2)
        scaled = matrix_from_rows([{k: s * v for k, v in e.items()} for e in rows], 2)
        m1 = train_binary(plain, labels, tight(c_param=2.0, seed=3))
        m2 = train_binary(scaled, labels, tight(c_param=2.0 / s**2, seed=3))
        assert labels_of(m1, plain) == labels_of(m2, scaled)
        assert m2.weights[0] == pytest.approx(m1.weights[0] / s, rel=1e-6)

    def test_converged_final_objective_is_the_minimum(self):
        # the primal value at any iterate is an upper bound on the optimum,
        # so once the solver converges the last epoch's value cannot exceed
        # any earlier epoch's (weak duality)
        rng = random.Random(55)
        cap = 20000
        converged = 0
        for trial in range(30):
            n = rng.randint(3, 12)
            X = matrix_from_rows([{j: rng.uniform(-3, 3) for j in range(3)
                                  if rng.random() < 0.8} for _ in range(n)], 3)
            y = [rng.choice([1, -1]) for _ in range(n)]
            if len(set(y)) == 1:
                y[0] = -y[0]
            model = train_binary(X, y, TrainConfig(c_param=1.0, epochs=cap,
                                                   tolerance=1e-10, seed=trial))
            objs = model.epoch_objectives
            if len(objs) >= cap:  # stopped by the cap, not by convergence
                continue
            converged += 1
            floor_val = min(objs)
            assert objs[-1] <= floor_val + 1e-6 * max(1.0, abs(floor_val))
        assert converged >= 25

    def test_custom_labels(self):
        X = dense([1.0], [-1.0])
        model = train_binary(X, [1, -1], tight(), label_positive="Female",
                             label_negative="Male")
        assert labels_of(model, dense([2.0], [-2.0])) == ["Female", "Male"]

    def test_input_validation(self):
        X = dense([1.0], [-1.0])
        with pytest.raises(DataError, match="single class"):
            train_binary(X, [1, 1], TrainConfig())
        with pytest.raises(DataError, match="\\+1 or -1"):
            train_binary(X, [1, "F"], TrainConfig())
        with pytest.raises(DataError, match="labels"):
            train_binary(X, [1], TrainConfig())
        with pytest.raises(DataError, match="two training samples"):
            train_binary(dense([1.0]), [1], TrainConfig())


class TestPredictBinary:
    def model(self, weights, bias):
        return LinearModel(weights=np.array(weights, dtype=float), bias=bias,
                           label_positive="pos", label_negative="neg")

    def test_margin_is_dot_plus_bias(self):
        [(label, margin)] = predict(self.model([1.0, 0.0], 0.0), dense([2, 5]))
        assert label == "pos"
        assert margin == 2.0

    def test_zero_vector_bias_only(self):
        [(label, margin)] = predict(self.model([1.0, 1.0], -1.0), dense([0, 0]))
        assert label == "neg"
        assert margin == -1.0

    def test_boundary_goes_positive(self):
        [(label, margin)] = predict(self.model([1.0], 0.0), dense([0]))
        assert margin == 0.0
        assert label == "pos"

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimension"):
            predict(self.model([1.0], 0.0), dense([1, 2]))


class TestOneVsRest:
    def three_class_data(self):
        # three well-separated clusters on the axes
        rows, y = [], []
        for cls, axis in (("a", 0), ("b", 1), ("c", 2)):
            for offset in (2.0, 2.5, 3.0):
                rows.append({axis: offset})
                y.append(cls)
        return matrix_from_rows(rows, 3), y

    def test_three_classes_three_models(self):
        X, y = self.three_class_data()
        model = train_ovr(X, y, tight())
        assert len(model.models) == 3
        assert model.classes == ["a", "b", "c"]
        for sub in model.models:
            assert sub.label_negative == REST_LABEL

    def test_classes_ordered_by_first_appearance(self):
        X = dense([1.0], [2.0], [-1.0], [-2.0])
        model = train_ovr(X, ["zeta", "alpha", "zeta", "alpha"], tight())
        assert model.classes == ["zeta", "alpha"]

    def test_training_points_recovered(self):
        X, y = self.three_class_data()
        model = train_ovr(X, y, tight())
        assert labels_of(model, X) == y

    def test_two_class_ovr_equals_direct_binary(self):
        rng = random.Random(31)
        X = matrix_from_rows([{j: rng.uniform(-2, 2) for j in range(3)}
                              for _ in range(16)], 3)
        y = ["F" if rng.random() < 0.5 else "M" for _ in range(16)]
        y[0], y[1] = "F", "M"
        cfg = tight(seed=5)
        ovr = train_ovr(X, y, cfg)
        direct = train_binary(X, [1 if lab == "F" else -1 for lab in y], cfg,
                              label_positive="F", label_negative="M")
        held_out = matrix_from_rows([{j: rng.uniform(-3, 3) for j in range(3)}
                                     for _ in range(50)], 3)
        assert labels_of(ovr, held_out) == labels_of(direct, held_out)

    def test_tie_breaks_to_earliest_class(self):
        sub = lambda w, b, cls: LinearModel(weights=np.array(w), bias=b,
                                            label_positive=cls, label_negative=REST_LABEL)
        model = OneVsRestModel(
            classes=["x", "y", "z"],
            models=[sub([0.0], 0.3, "x"), sub([0.0], 0.3, "y"), sub([0.0], 0.1, "z")],
        )
        X = dense([1.0])
        assert margins(X, np.stack([m.weights for m in model.models]),
                       [m.bias for m in model.models]).tolist() == [[0.3, 0.3, 0.1]]
        assert predict(model, X) == [("x", 0.3)]

    def test_all_margins_negative_still_argmax(self):
        sub = lambda b, cls: LinearModel(weights=np.zeros(1), bias=b,
                                         label_positive=cls, label_negative=REST_LABEL)
        model = OneVsRestModel(classes=["x", "y"], models=[sub(-0.9, "x"), sub(-0.2, "y")])
        assert predict(model, dense([1.0])) == [("y", -0.2)]

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            train_ovr(dense([1.0], [2.0]), ["a", "a"], tight())


class TestTraitRegression:
    def zeros(self, n, dim=2):
        return matrix_from_rows([{}] * n, dim)

    def test_constant_targets_within_tube(self):
        # with x=0 the fit reduces to the bias; targets 0.2, eps 0.1:
        # f(b) = b^2/2 + 4 max(0, |0.2-b| - 0.1) decreases until b=0.1
        reg = train_traits(self.zeros(4), [dict.fromkeys("ENACO", 0.2)] * 4,
                           tight(epsilon=0.1))
        for name in "ENACO":
            assert reg.biases[name] == pytest.approx(0.1, abs=1e-9)
            assert not reg.weights[name].any()
        [preds] = predict(reg, self.zeros(1))
        assert all(0.1 <= preds[n] <= 0.3 for n in "ENACO")

    def test_wide_tube_keeps_zero_weights(self):
        # eps 0.2 covers the whole target spread [0.15, 0.25]; the feasible
        # bias interval is [0.05, 0.35] and the regularizer picks 0.05
        targets = [dict.fromkeys("ENACO", v) for v in (0.15, 0.25, 0.2, 0.18)]
        reg = train_traits(self.zeros(4), targets, tight(epsilon=0.2))
        for name in "ENACO":
            assert reg.biases[name] == pytest.approx(0.05, abs=1e-9)
            assert not reg.weights[name].any()

    def test_single_sample_fits_within_epsilon(self):
        x = dense([1.0, 2.0])
        reg = train_traits(x, [dict.fromkeys("ENACO", 0.4)], tight(epsilon=0.05))
        [preds] = predict(reg, x)
        for name in "ENACO":
            assert abs(preds[name] - 0.4) <= 0.05 + 1e-9

    def test_sequence_targets_rejected(self):
        # a target row names its traits; a bare sequence of five values does not
        with pytest.raises(DataError, match="map trait names"):
            train_traits(self.zeros(3), [(0.1, 0.2, 0.3, -0.1, 0.0)] * 3, tight())

    def test_deterministic(self):
        rng = random.Random(3)
        X = matrix_from_rows([{j: rng.uniform(-1, 1) for j in range(3)} for _ in range(10)], 3)
        targets = [dict.fromkeys("ENACO", round(rng.uniform(-0.5, 0.5), 3)) for _ in range(10)]
        cfg = TrainConfig(seed=8)
        a = train_traits(X, targets, cfg)
        b = train_traits(X, targets, cfg)
        for name in "ENACO":
            assert np.array_equal(a.weights[name], b.weights[name])
            assert a.biases[name] == b.biases[name]

    def test_predictions_clamped(self):
        reg = train_traits(self.zeros(2, dim=1),
                           [dict.fromkeys("ENACO", 0.0)] * 2, tight())
        reg.weights["E"] = np.array([10.0])
        reg.biases["E"] = 0.0
        [preds] = predict(reg, dense([1.0]))
        assert preds["E"] == 0.5
        reg.weights["E"] = np.array([-10.0])
        assert predict(reg, dense([1.0]))[0]["E"] == -0.5

    def test_target_validation(self):
        with pytest.raises(DataError, match="outside"):
            train_traits(self.zeros(2), [dict.fromkeys("ENACO", 0.7)] * 2, tight())
        with pytest.raises(DataError, match="missing"):
            train_traits(self.zeros(2), [{"E": 0.1}] * 2, tight())
        with pytest.raises(DataError, match="map trait names"):
            train_traits(self.zeros(2), [(0.1, 0.2)] * 2, tight())


def fit_binary_bundle(vocab_hash="h" * 64):
    X = dense([0, 1], [0, 2], [3, 0], [4, 0])
    y = [1, 1, -1, -1]
    model = train_binary(X, y, TrainConfig(), label_positive="Female",
                         label_negative="Male")
    return ModelBundle(vocab_hash=vocab_hash, policy=ScalingPolicy("linear", "log2"),
                       config=TrainConfig(), model=model)


class TestModelFiles:
    def random_inputs(self, dim, n=100, seed=17):
        rng = random.Random(seed)
        return matrix_from_rows([{j: rng.uniform(-4, 4) for j in range(dim)
                                  if rng.random() < 0.7} for _ in range(n)], dim)

    def test_binary_round_trip_identical_predictions(self, tmp_path):
        bundle = fit_binary_bundle()
        path = tmp_path / "m.model"
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded.kind == "binary"
        assert loaded.vocab_hash == bundle.vocab_hash
        assert loaded.policy == bundle.policy
        assert loaded.config == bundle.config
        X = self.random_inputs(2)
        assert predict(loaded.model, X) == predict(bundle.model, X)

    def test_ovr_round_trip(self, tmp_path):
        X = dense([2, 0], [2.5, 0], [0, 2], [0, 2.5])
        y = ["18-24", "18-24", "25-34", "25-34"]
        model = train_ovr(X, y, tight())
        bundle = ModelBundle(vocab_hash="", policy=ScalingPolicy("linear", "linear"),
                             config=tight(), model=model)
        path = tmp_path / "m.model"
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded.kind == "ovr"
        assert loaded.vocab_hash == ""
        assert loaded.model.classes == model.classes
        X = self.random_inputs(2)
        assert predict(loaded.model, X) == predict(model, X)
        for sub, loaded_sub in zip(model.models, loaded.model.models):
            assert np.array_equal(margins(X, loaded_sub.weights, [loaded_sub.bias]),
                                  margins(X, sub.weights, [sub.bias]))

    def test_traits_round_trip(self, tmp_path):
        rng = random.Random(2)
        X = matrix_from_rows([{j: rng.uniform(-1, 1) for j in range(3)} for _ in range(8)], 3)
        targets = [dict.fromkeys("ENACO", round(rng.uniform(-0.4, 0.4), 2)) for _ in range(8)]
        model = train_traits(X, targets, tight())
        bundle = ModelBundle(vocab_hash="abc", policy=ScalingPolicy("linear", "log2"),
                             config=tight(), model=model)
        path = tmp_path / "m.model"
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded.kind == "traits"
        assert loaded.config.epsilon == bundle.config.epsilon
        X = self.random_inputs(3)
        assert predict(loaded.model, X) == predict(model, X)

    def test_round_trip_gzip(self, tmp_path):
        bundle = fit_binary_bundle()
        path = tmp_path / "m.model.gz"
        save_model(bundle, path)
        assert load_model(path).kind == "binary"

    @pytest.mark.parametrize("label", ["Fe\x85male", "Fe\u2028male"], ids=["U+0085", "U+2028"])
    def test_label_with_other_line_separator(self, tmp_path, label):
        X = dense([0, 1], [0, 2], [3, 0], [4, 0])
        model = train_binary(X, [1, 1, -1, -1], TrainConfig(), label_positive=label,
                             label_negative="Male")
        bundle = ModelBundle(vocab_hash="h" * 64, policy=ScalingPolicy("linear", "log2"),
                             config=TrainConfig(), model=model)
        path = tmp_path / "m.model"
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded.model.label_positive == label
        assert predict(loaded.model, X) == predict(model, X)

    def test_vocab_hash_guard(self, tmp_path):
        bundle = fit_binary_bundle(vocab_hash="a" * 64)
        path = tmp_path / "m.model"
        save_model(bundle, path)
        assert load_model(path, expected_vocab_hash="a" * 64).kind == "binary"
        with pytest.raises(DataError, match="vocabulary"):
            load_model(path, expected_vocab_hash="b" * 64)

    def test_version_guard(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("styloprof-model-v9\tbinary\n", encoding="utf-8")
        with pytest.raises(DataError, match="format"):
            load_model(path)

    def test_every_truncation_rejected(self, tmp_path):
        bundle = fit_binary_bundle()
        full = tmp_path / "full.model"
        save_model(bundle, full)
        lines = full.read_text(encoding="utf-8").splitlines()
        for cut in range(len(lines)):
            partial = tmp_path / f"cut{cut}.model"
            partial.write_text("\n".join(lines[:cut]) + ("\n" if cut else ""),
                               encoding="utf-8")
            with pytest.raises(DataError):
                load_model(partial)

    def test_trailing_content_rejected(self, tmp_path):
        bundle = fit_binary_bundle()
        path = tmp_path / "m.model"
        save_model(bundle, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("extra\tstuff\n")
        with pytest.raises(DataError, match="trailing"):
            load_model(path)

    def test_weight_count_checked(self, tmp_path):
        bundle = fit_binary_bundle()
        path = tmp_path / "m.model"
        save_model(bundle, path)
        text = path.read_text(encoding="utf-8")
        head, _, _ = text.rpartition("weights\t")
        path.write_text(head + "weights\t0.5\n", encoding="utf-8")
        with pytest.raises(DataError, match="weights"):
            load_model(path)

    def test_objective_helpers_match_after_reload(self, tmp_path):
        X = dense([0, 1], [0, 2], [3, 0], [4, 0])
        y = [1, 1, -1, -1]
        bundle = fit_binary_bundle()
        path = tmp_path / "m.model"
        save_model(bundle, path)
        loaded = load_model(path).model
        before = hinge_objective(bundle.model.weights, bundle.model.bias, X, y, 1.0)
        after = hinge_objective(loaded.weights, loaded.bias, X, y, 1.0)
        assert before == after

    def test_epsilon_objective_helper(self):
        w = np.array([0.0])
        assert epsilon_objective(w, 0.1, dense([0]), [0.2], 1.0, 0.05) == \
            pytest.approx(0.5 * 0.01 + 0.05, abs=1e-12)


class TestHeads:
    """Every model is k linear heads: `_heads` gives the layout the model
    file holds, and `_model` rebuilds the model from it."""

    def trained(self):
        rng = random.Random(9)
        X = matrix_from_rows([{j: rng.uniform(-2, 2) for j in range(3)} for _ in range(9)], 3)
        targets = [dict.fromkeys("ENACO", round(rng.uniform(-0.4, 0.4), 2)) for _ in range(9)]
        return X, {
            "binary": train_binary(X, [1, -1, 1] * 3, tight(), label_positive="F", label_negative="M"),
            "ovr": train_ovr(X, ["a", "b", "c"] * 3, tight()),
            "traits": train_traits(X, targets, tight()),
        }

    def test_layout_and_inverse(self):
        X, models = self.trained()
        for kind, model in models.items():
            got_kind, labels, heads = learner._heads(model)
            assert got_kind == kind
            assert len(heads) == {"binary": 1, "ovr": 3, "traits": 5}[kind]
            assert all(head.converged is not None and head.objectives for head in heads)
            rebuilt = learner._model(got_kind, labels, heads)
            assert type(rebuilt) is type(model)
            assert predict(rebuilt, X) == predict(model, X)
            assert learner._heads(rebuilt)[1] == labels

    def test_binary_predict_reads_the_weights_in_place(self, monkeypatch):
        X, models = self.trained()
        seen = []

        def spy(X, weights, biases):
            seen.append(weights)
            return margins(X, weights, biases)

        monkeypatch.setattr(learner, "margins", spy)
        predict(models["binary"], X)
        assert seen[0] is models["binary"].weights

    def test_bundle_kind_is_read_off_the_model(self, tmp_path):
        _, models = self.trained()
        labels_tag = {"binary": "labels", "ovr": "classes", "traits": "traits"}
        for kind, model in models.items():
            bundle = ModelBundle(vocab_hash="", policy=ScalingPolicy("linear", "linear"),
                                 config=tight(), model=model)
            assert bundle.kind == kind
            with pytest.raises(AttributeError):
                bundle.kind = "binary" if kind != "binary" else "ovr"
            path = tmp_path / f"{kind}.model"
            save_model(bundle, path)
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == f"styloprof-model-v1\t{kind}"
            assert lines[5].split("\t")[0] == labels_tag[kind]
            assert load_model(path).kind == kind

    def test_header_kind_must_match_the_labels_line(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(fit_binary_bundle(), path)
        path.write_text(path.read_text(encoding="utf-8").replace("\tbinary\n", "\tovr\n", 1),
                        encoding="utf-8")
        with pytest.raises(DataError, match="expected a 'classes' line, found 'labels'"):
            load_model(path)

    def test_no_model_copies_the_training_config(self):
        for model in self.trained()[1].values():
            assert not {"c_param", "epsilon"} & set(vars(model))


class TestEpochObjectives:
    """The per-epoch objectives, computed from one `margins` product, agree
    with the per-sample loops of `oracles.hinge_objective` and
    `oracles.epsilon_objective`."""

    def rows(self, rng, n, dim):
        # every third sample empty, so rows without entries are covered
        return matrix_from_rows(
            [{} if i % 3 == 0 else {j: rng.uniform(-2, 2) for j in range(dim) if rng.random() < 0.6}
             for i in range(n)], dim)

    def test_hinge(self):
        rng = random.Random(21)
        for trial in range(20):
            X = self.rows(rng, rng.randint(4, 30), 5)
            y = [1 if i % 2 else -1 for i in range(len(X))]
            cfg = TrainConfig(c_param=rng.uniform(0.1, 5), epochs=rng.randint(1, 30), seed=trial)
            model = train_binary(X, y, cfg)
            want = hinge_objective(model.weights, model.bias, X, y, cfg.c_param)
            assert model.epoch_objectives[-1] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_epsilon(self):
        rng = random.Random(22)
        for trial in range(10):
            X = self.rows(rng, rng.randint(4, 30), 5)
            targets = [{name: rng.uniform(-0.5, 0.5) for name in "ENACO"} for _ in range(len(X))]
            cfg = TrainConfig(c_param=rng.uniform(0.1, 5), epochs=rng.randint(1, 30), seed=trial)
            reg = train_traits(X, targets, cfg)
            for name in "ENACO":
                want = epsilon_objective(reg.weights[name], reg.biases[name], X,
                                         [t[name] for t in targets], cfg.c_param, cfg.epsilon)
                assert reg.epoch_objectives[name][-1] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_ovr(self):
        rng = random.Random(23)
        for trial in range(10):
            X = self.rows(rng, rng.randint(6, 30), 5)
            labels = [("a", "b", "c")[i % 3] for i in range(len(X))]
            cfg = TrainConfig(c_param=rng.uniform(0.1, 5), epochs=rng.randint(1, 30), seed=trial)
            model = train_ovr(X, labels, cfg)
            for cls, sub in zip(model.classes, model.models):
                y = [1 if lab == cls else -1 for lab in labels]
                want = hinge_objective(sub.weights, sub.bias, X, y, cfg.c_param)
                assert sub.epoch_objectives[-1] == pytest.approx(want, rel=1e-12, abs=1e-12)


@st.composite
def solver_problems(draw):
    """Small sparse problems with at least one empty row, C from tiny to
    large, epsilon zero or positive, and tolerances that the sweeps meet
    early, late or never."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(3, 12))
    value = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    rows = [draw(st.dictionaries(st.integers(0, dim - 1), value, max_size=dim)) for _ in range(n)]
    rows[draw(st.integers(0, n - 1))] = {}
    labels = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    labels[:2] = ["a", "b"]
    targets = [dict(zip("ENACO", row))
               for row in draw(st.lists(st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5),
                                        min_size=n, max_size=n))]
    cfg = TrainConfig(c_param=draw(st.sampled_from([1e-4, 0.3, 1.0, 1e4])),
                      epochs=draw(st.integers(1, 40)),
                      tolerance=draw(st.sampled_from([1e-12, 1e-4, 0.5])),
                      seed=draw(st.integers(0, 2**16)),
                      epsilon=draw(st.sampled_from([0.0, 0.05, 0.3])))
    return matrix_from_rows(rows, dim), labels, targets, cfg


@st.composite
def gram_problems(draw):
    """Problems in the Gram regime: few samples with dense rows, one of
    them empty, over up to three times as many columns; no more than four
    samples per epoch, so that one- and two-sweep solves stay in it."""
    epochs = draw(st.integers(1, 40))
    n = draw(st.integers(3, min(6, 4 * epochs)))
    dim = draw(st.integers(2 * n, 3 * n))
    value = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    rows = [dict(enumerate(draw(st.lists(value, min_size=dim, max_size=dim)))) for _ in range(n)]
    rows[draw(st.integers(0, n - 1))] = {}
    labels = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    labels[:2] = ["a", "b"]
    targets = [dict(zip("ENACO", row))
               for row in draw(st.lists(st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5),
                                        min_size=n, max_size=n))]
    cfg = TrainConfig(c_param=draw(st.sampled_from([1e-4, 0.3, 1.0, 1e4])),
                      epochs=epochs,
                      tolerance=draw(st.sampled_from([1e-12, 1e-4, 0.5])),
                      seed=draw(st.integers(0, 2**16)),
                      epsilon=draw(st.sampled_from([0.0, 0.05, 0.3])))
    return matrix_from_rows(rows, dim), labels, targets, cfg


def gram_form(X, epochs: int) -> bool:
    """Whether the learner solves X in the Gram form."""
    return type(learner._prepare(X, epochs)) is learner._GramForm


class TestSolverMatchesReferenceLoops:
    """The one box-constrained core reproduces the per-family loops of
    `oracles` bit for bit, on the state the learner's rule picks:
    weights, bias, epochs run and convergence."""

    def assert_same(self, weights, bias, objectives, converged, reference):
        ref_w, ref_b, ref_epochs, ref_converged = reference
        assert weights.tobytes() == ref_w.tobytes()
        assert repr(bias) == repr(ref_b)
        assert len(objectives) == ref_epochs
        assert converged == ref_converged

    def check(self, problem):
        X, labels, targets, cfg = problem
        gram = gram_form(X, cfg.epochs)
        signs = [1 if lab == "a" else -1 for lab in labels]
        model = train_binary(X, signs, cfg)
        self.assert_same(model.weights, model.bias, model.epoch_objectives, model.converged,
                         reference_solve_hinge(X, signs, cfg, gram))
        ovr = train_ovr(X, labels, cfg)
        for cls, sub in zip(ovr.classes, ovr.models):
            y = [1 if lab == cls else -1 for lab in labels]
            self.assert_same(sub.weights, sub.bias, sub.epoch_objectives, sub.converged,
                             reference_solve_hinge(X, y, cfg, gram))
        reg = train_traits(X, targets, cfg)
        for name in "ENACO":
            self.assert_same(reg.weights[name], reg.biases[name], reg.epoch_objectives[name],
                             reg.converged[name],
                             reference_solve_eps(X, [row[name] for row in targets], cfg, gram))

    @given(solver_problems())
    @settings(max_examples=150, deadline=None)
    def test_binary_ovr_and_traits(self, problem):
        self.check(problem)

    @given(gram_problems())
    @settings(max_examples=100, deadline=None)
    def test_gram_regime(self, problem):
        assert gram_form(problem[0], problem[3].epochs)
        self.check(problem)


class TestFormRule:
    """`_prepare` bounds the Gram build by the row form's whole solve:
    large pooled training sets at a low epoch cap keep the row form, a
    few dozen pooled samples get the Gram form."""

    @staticmethod
    def full_rows(n: int, per_row: int) -> SparseMatrix:
        return SparseMatrix(np.arange(n + 1) * per_row, np.tile(np.arange(per_row), n),
                            np.ones(n * per_row), per_row)

    @pytest.mark.parametrize("n, per_row, epochs, form", [
        (1000, 1100, 20, learner._RowForm),  # build 2.3 s, whole row-form solve 0.18 s
        (600, 620, 20, learner._RowForm),
        (28, 1375, 150, learner._GramForm),  # pan-age-traits
        (70, 660, 50, learner._GramForm),  # split-gender
        (104, 201, 50, learner._GramForm),  # sweep_gender demo, largest Gram shape
        (70, 660, 1, learner._RowForm),
        (4, 4, 1, learner._GramForm),
        (5, 5, 1, learner._RowForm),
        (100, 99, 10**6, learner._RowForm),  # Q would be larger than X
    ])
    def test_form_for_shape(self, n, per_row, epochs, form):
        assert type(learner._prepare(self.full_rows(n, per_row), epochs)) is form


class TestGramFormMatchesRowForm:
    """On well-conditioned problems (C <= 1, tolerance 1e-4) the two forms
    of the solver agree: same epochs and convergence, and weights, bias
    and last objective equal up to rounding."""

    def test_hinge_and_epsilon(self):
        rng = random.Random(31)
        for trial in range(40):
            n = rng.randint(3, 8)
            dim = rng.randint(2 * n, 3 * n)
            X = matrix_from_rows(
                [{} if i == 0 else {j: rng.uniform(-1, 1) for j in range(dim)} for i in range(n)],
                dim)
            assert len(X) ** 2 <= X.indptr[-1]
            cfg = TrainConfig(c_param=rng.uniform(0.05, 1.0), epochs=rng.randint(1, 300),
                              tolerance=1e-4, seed=trial, epsilon=rng.choice([0.0, 0.05, 0.2]))
            c = cfg.c_param
            signs = [1 if i % 2 else -1 for i in range(n)]
            targets = [rng.uniform(-0.5, 0.5) for _ in range(n)]
            problems = [(signs, [0.0 if s > 0 else -c for s in signs],
                         [c if s > 0 else 0.0 for s in signs], 0.0),
                        (targets, [-c] * n, [c] * n, cfg.epsilon)]
            for t, lo, hi, eps in problems:
                w_g, b_g, obj_g, conv_g = learner._solve(learner._GramForm(X), t, lo, hi, eps, cfg)
                w_r, b_r, obj_r, conv_r = learner._solve(learner._RowForm(X), t, lo, hi, eps, cfg)
                assert (len(obj_g), conv_g) == (len(obj_r), conv_r)
                np.testing.assert_allclose(w_g, w_r, rtol=1e-10, atol=1e-12)
                assert b_g == pytest.approx(b_r, rel=1e-10, abs=1e-12)
                assert obj_g[-1] == pytest.approx(obj_r[-1], rel=1e-10, abs=1e-12)


class TestPredictMatchesLoopMargins:
    """`predict` decodes one `margins` product per model.  Its margins agree
    with the per-row loop of `oracles.loop_margin` and are Python floats,
    and each kind decodes them as documented."""

    def assert_close(self, got, weights, bias, X, r):
        want = loop_margin(weights, bias, X, r)
        cols, values = X.row(r)
        scale = abs(bias) + float(np.abs(weights[cols] * values).sum())
        assert type(got) is float
        assert abs(got - want) <= 1e-12 * max(1.0, scale)
        return want

    @given(solver_problems())
    @settings(max_examples=60, deadline=None)
    def test_binary_ovr_and_traits(self, problem):
        X, labels, targets, cfg = problem
        binary = train_binary(X, [1 if lab == "a" else -1 for lab in labels], cfg)
        for r, (label, margin) in enumerate(predict(binary, X)):
            self.assert_close(margin, binary.weights, binary.bias, X, r)
            assert label == (1 if margin >= 0.0 else -1)

        ovr = train_ovr(X, labels, cfg)
        for r, (label, margin) in enumerate(predict(ovr, X)):
            best = ovr.models[ovr.classes.index(label)]
            want = self.assert_close(margin, best.weights, best.bias, X, r)
            assert all(loop_margin(sub.weights, sub.bias, X, r) <= want + 1e-9 * max(1.0, abs(want))
                       for sub in ovr.models)

        reg = train_traits(X, targets, cfg)
        for r, values in enumerate(predict(reg, X)):
            for name in "ENACO":
                raw = loop_margin(reg.weights[name], reg.biases[name], X, r)
                assert type(values[name]) is float
                assert values[name] == pytest.approx(min(max(raw, -0.5), 0.5), rel=1e-12, abs=1e-12)

    def test_ovr_takes_the_first_of_tied_classes(self):
        sub = lambda b, cls: LinearModel(weights=np.zeros(1), bias=b,
                                         label_positive=cls, label_negative=REST_LABEL)
        model = OneVsRestModel(classes=["x", "y", "z"],
                               models=[sub(0.1, "x"), sub(0.4, "y"), sub(0.4, "z")])
        assert predict(model, dense([1.0], [0.0])) == [("y", 0.4), ("y", 0.4)]
