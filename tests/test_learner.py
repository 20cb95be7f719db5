"""Dual coordinate descent solvers, one-vs-rest, trait regression, model files."""

import random

import numpy as np
import pytest

from styloprof.errors import DataError
from styloprof.features import ScalingPolicy, SparseVector
from styloprof.learner import (
    REST_LABEL,
    LinearModel,
    ModelBundle,
    OneVsRestModel,
    TrainConfig,
    epsilon_objective,
    hinge_objective,
    load_model,
    ovr_margins,
    predict_binary,
    predict_ovr,
    predict_traits,
    save_model,
    train_binary,
    train_ovr,
    train_traits,
)

from oracles import random_separable_instance

TIGHT = TrainConfig(c_param=1.0, epochs=4000, tolerance=1e-12, seed=0)


def sv(values, dim=None):
    entries = {i: float(v) for i, v in enumerate(values) if v}
    return SparseVector(entries, dim or len(values))


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
        X = [sv([0, 1]), sv([0, 2]), sv([3, 0]), sv([4, 0])]
        y = [1, 1, -1, -1]
        model = train_binary(X, y, TrainConfig())
        assert [predict_binary(model, x)[0] for x in X] == y

    def test_two_symmetric_points_analytic(self):
        # +1 at (1, 0), -1 at (-1, 0), C=10: by symmetry b=0 and the
        # objective 0.5 w^2 + 20 max(0, 1-w) is minimized at w=(1, 0)
        X = [sv([1, 0]), sv([-1, 0])]
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
        X = [sv([2.0]), sv([-2.0])]
        model = train_binary(X, [1, -1], tight())
        # symmetric pair: f(w) = w^2/2 + 2 max(0, 1-2w) minimized at w=1/2
        assert model.weights[0] == pytest.approx(0.5, abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)

    def test_xor_objective_matches_analytic_optimum(self):
        # in the region where all hinges are active the objective reduces
        # to u^2 + b^2/2 + 4C, so w=0, b=0 is optimal with value 4C
        X = [sv([0, 0], 2), sv([1, 1]), sv([0, 1], 2), sv([1, 0], 2)]
        y = [1, 1, -1, -1]
        model = train_binary(X, y, tight())
        obj = hinge_objective(model.weights, model.bias, X, y, 1.0)
        assert obj == pytest.approx(4.0, rel=1e-3)

    def test_deterministic(self):
        rng = random.Random(11)
        X = [SparseVector({j: rng.uniform(-2, 2) for j in range(4)}, 4) for _ in range(20)]
        y = [rng.choice([1, -1]) for _ in range(20)]
        y[0], y[1] = 1, -1
        cfg = TrainConfig(seed=33)
        a = train_binary(X, y, cfg)
        b = train_binary(X, y, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.epoch_objectives == b.epoch_objectives

    def test_seed_may_change_path_not_quality(self):
        X = [sv([0, 1]), sv([0, 2]), sv([3, 0]), sv([4, 0])]
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
            X = [SparseVector(e, dim) for e in rows]
            cfg = TrainConfig(c_param=c_param, epochs=2000, tolerance=1e-8, seed=1)
            model = train_binary(X, labels, cfg)
            assert [predict_binary(model, x)[0] for x in X] == labels

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
        plain = [SparseVector(e, 2) for e in rows]
        scaled = [SparseVector({k: s * v for k, v in e.items()}, 2) for e in rows]
        m1 = train_binary(plain, labels, tight(c_param=2.0, seed=3))
        m2 = train_binary(scaled, labels, tight(c_param=2.0 / s**2, seed=3))
        assert [predict_binary(m1, x)[0] for x in plain] == \
               [predict_binary(m2, x)[0] for x in scaled]
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
            X = [SparseVector({j: rng.uniform(-3, 3) for j in range(3)
                               if rng.random() < 0.8}, 3) for _ in range(n)]
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
        X = [sv([1.0]), sv([-1.0])]
        model = train_binary(X, [1, -1], tight(), label_positive="Female",
                             label_negative="Male")
        assert predict_binary(model, sv([2.0]))[0] == "Female"
        assert predict_binary(model, sv([-2.0]))[0] == "Male"

    def test_input_validation(self):
        X = [sv([1.0]), sv([-1.0])]
        with pytest.raises(DataError, match="single class"):
            train_binary(X, [1, 1], TrainConfig())
        with pytest.raises(DataError, match="\\+1 or -1"):
            train_binary(X, [1, "F"], TrainConfig())
        with pytest.raises(DataError, match="labels"):
            train_binary(X, [1], TrainConfig())
        with pytest.raises(DataError, match="two training samples"):
            train_binary([sv([1.0])], [1], TrainConfig())
        with pytest.raises(DataError, match="dimension mismatch"):
            train_binary([sv([1.0]), SparseVector({0: 1.0}, 3)], [1, -1], TrainConfig())
        with pytest.raises(DataError, match="non-finite"):
            train_binary([SparseVector({0: float("nan")}, 1), sv([1.0])], [1, -1],
                         TrainConfig())
        with pytest.raises(DataError, match="column"):
            train_binary([SparseVector({5: 1.0}, 2), sv([1.0], 2)], [1, -1],
                         TrainConfig())


class TestPredictBinary:
    def model(self, weights, bias):
        return LinearModel(weights=np.array(weights, dtype=float), bias=bias,
                           c_param=1.0, label_positive="pos", label_negative="neg")

    def test_margin_is_dot_plus_bias(self):
        label, margin = predict_binary(self.model([1.0, 0.0], 0.0), sv([2, 5]))
        assert label == "pos"
        assert margin == 2.0

    def test_zero_vector_bias_only(self):
        label, margin = predict_binary(self.model([1.0, 1.0], -1.0),
                                       SparseVector({}, 2))
        assert label == "neg"
        assert margin == -1.0

    def test_boundary_goes_positive(self):
        label, margin = predict_binary(self.model([1.0], 0.0), SparseVector({}, 1))
        assert margin == 0.0
        assert label == "pos"

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimension"):
            predict_binary(self.model([1.0], 0.0), sv([1, 2]))


class TestOneVsRest:
    def three_class_data(self):
        # three well-separated clusters on the axes
        X, y = [], []
        for cls, axis in (("a", 0), ("b", 1), ("c", 2)):
            for offset in (2.0, 2.5, 3.0):
                X.append(SparseVector({axis: offset}, 3))
                y.append(cls)
        return X, y

    def test_three_classes_three_models(self):
        X, y = self.three_class_data()
        model = train_ovr(X, y, tight())
        assert len(model.models) == 3
        assert model.classes == ["a", "b", "c"]
        for sub in model.models:
            assert sub.label_negative == REST_LABEL

    def test_classes_ordered_by_first_appearance(self):
        X = [sv([1.0]), sv([2.0]), sv([-1.0]), sv([-2.0])]
        model = train_ovr(X, ["zeta", "alpha", "zeta", "alpha"], tight())
        assert model.classes == ["zeta", "alpha"]

    def test_training_points_recovered(self):
        X, y = self.three_class_data()
        model = train_ovr(X, y, tight())
        assert [predict_ovr(model, x) for x in X] == y

    def test_two_class_ovr_equals_direct_binary(self):
        rng = random.Random(31)
        X = [SparseVector({j: rng.uniform(-2, 2) for j in range(3)}, 3)
             for _ in range(16)]
        y = ["F" if rng.random() < 0.5 else "M" for _ in range(16)]
        y[0], y[1] = "F", "M"
        cfg = tight(seed=5)
        ovr = train_ovr(X, y, cfg)
        direct = train_binary(X, [1 if lab == "F" else -1 for lab in y], cfg,
                              label_positive="F", label_negative="M")
        held_out = [SparseVector({j: rng.uniform(-3, 3) for j in range(3)}, 3)
                    for _ in range(50)]
        for x in held_out:
            assert predict_ovr(ovr, x) == predict_binary(direct, x)[0]

    def test_tie_breaks_to_earliest_class(self):
        sub = lambda w, b, cls: LinearModel(weights=np.array(w), bias=b, c_param=1.0,
                                            label_positive=cls, label_negative=REST_LABEL)
        model = OneVsRestModel(
            classes=["x", "y", "z"],
            models=[sub([0.0], 0.3, "x"), sub([0.0], 0.3, "y"), sub([0.0], 0.1, "z")],
        )
        assert ovr_margins(model, sv([1.0])) == [0.3, 0.3, 0.1]
        assert predict_ovr(model, sv([1.0])) == "x"

    def test_all_margins_negative_still_argmax(self):
        sub = lambda b, cls: LinearModel(weights=np.zeros(1), bias=b, c_param=1.0,
                                         label_positive=cls, label_negative=REST_LABEL)
        model = OneVsRestModel(classes=["x", "y"], models=[sub(-0.9, "x"), sub(-0.2, "y")])
        assert predict_ovr(model, sv([1.0])) == "y"

    def test_explicit_class_list_checked(self):
        X = [sv([1.0]), sv([-1.0])]
        with pytest.raises(DataError, match="absent"):
            train_ovr(X, ["a", "b"], tight(), classes=["a", "b", "c"])
        with pytest.raises(DataError, match="outside"):
            train_ovr(X, ["a", "b"], tight(), classes=["a"])

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            train_ovr([sv([1.0]), sv([2.0])], ["a", "a"], tight())


class TestTraitRegression:
    def zeros(self, n, dim=2):
        return [SparseVector({}, dim) for _ in range(n)]

    def test_constant_targets_within_tube(self):
        # with x=0 the fit reduces to the bias; targets 0.2, eps 0.1:
        # f(b) = b^2/2 + 4 max(0, |0.2-b| - 0.1) decreases until b=0.1
        reg = train_traits(self.zeros(4), [dict.fromkeys("ENACO", 0.2)] * 4,
                           tight(epsilon=0.1))
        for name in "ENACO":
            assert reg.biases[name] == pytest.approx(0.1, abs=1e-9)
            assert not reg.weights[name].any()
        preds = predict_traits(reg, SparseVector({}, 2))
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
        x = [sv([1.0, 2.0])]
        reg = train_traits(x, [dict.fromkeys("ENACO", 0.4)], tight(epsilon=0.05))
        preds = predict_traits(reg, x[0])
        for name in "ENACO":
            assert abs(preds[name] - 0.4) <= 0.05 + 1e-9

    def test_sequence_targets_accepted(self):
        reg = train_traits(self.zeros(3), [(0.1, 0.2, 0.3, -0.1, 0.0)] * 3, tight())
        assert set(reg.biases) == set("ENACO")

    def test_deterministic(self):
        rng = random.Random(3)
        X = [SparseVector({j: rng.uniform(-1, 1) for j in range(3)}, 3) for _ in range(10)]
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
        preds = predict_traits(reg, sv([1.0]))
        assert preds["E"] == 0.5
        reg.weights["E"] = np.array([-10.0])
        assert predict_traits(reg, sv([1.0]))["E"] == -0.5

    def test_target_validation(self):
        with pytest.raises(DataError, match="outside"):
            train_traits(self.zeros(2), [dict.fromkeys("ENACO", 0.7)] * 2, tight())
        with pytest.raises(DataError, match="missing"):
            train_traits(self.zeros(2), [{"E": 0.1}] * 2, tight())
        with pytest.raises(DataError, match="5 trait values"):
            train_traits(self.zeros(2), [(0.1, 0.2)] * 2, tight())


def fit_binary_bundle(vocab_hash="h" * 64):
    X = [sv([0, 1]), sv([0, 2]), sv([3, 0]), sv([4, 0])]
    y = [1, 1, -1, -1]
    model = train_binary(X, y, TrainConfig(), label_positive="Female",
                         label_negative="Male")
    return ModelBundle(kind="binary", vocab_hash=vocab_hash,
                       policy=ScalingPolicy("linear", "log2"),
                       config=TrainConfig(), model=model)


class TestModelFiles:
    def random_inputs(self, dim, n=100, seed=17):
        rng = random.Random(seed)
        return [SparseVector({j: rng.uniform(-4, 4) for j in range(dim)
                              if rng.random() < 0.7}, dim) for _ in range(n)]

    def test_binary_round_trip_identical_predictions(self, tmp_path):
        bundle = fit_binary_bundle()
        path = tmp_path / "m.model"
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded.kind == "binary"
        assert loaded.vocab_hash == bundle.vocab_hash
        assert loaded.policy == bundle.policy
        assert loaded.config == bundle.config
        for x in self.random_inputs(2):
            assert predict_binary(loaded.model, x) == predict_binary(bundle.model, x)

    def test_ovr_round_trip(self, tmp_path):
        X = [sv([2, 0]), sv([2.5, 0]), sv([0, 2]), sv([0, 2.5])]
        y = ["18-24", "18-24", "25-34", "25-34"]
        model = train_ovr(X, y, tight())
        bundle = ModelBundle(kind="ovr", vocab_hash="", policy=ScalingPolicy("linear", "linear"),
                             config=tight(), model=model)
        path = tmp_path / "m.model"
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded.model.classes == model.classes
        for x in self.random_inputs(2):
            assert predict_ovr(loaded.model, x) == predict_ovr(model, x)
            assert ovr_margins(loaded.model, x) == ovr_margins(model, x)

    def test_traits_round_trip(self, tmp_path):
        rng = random.Random(2)
        X = [SparseVector({j: rng.uniform(-1, 1) for j in range(3)}, 3) for _ in range(8)]
        targets = [dict.fromkeys("ENACO", round(rng.uniform(-0.4, 0.4), 2)) for _ in range(8)]
        model = train_traits(X, targets, tight())
        bundle = ModelBundle(kind="traits", vocab_hash="abc",
                             policy=ScalingPolicy("linear", "log2"),
                             config=tight(), model=model)
        path = tmp_path / "m.model"
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded.model.epsilon == model.epsilon
        for x in self.random_inputs(3):
            assert predict_traits(loaded.model, x) == predict_traits(model, x)

    def test_round_trip_gzip(self, tmp_path):
        bundle = fit_binary_bundle()
        path = tmp_path / "m.model.gz"
        save_model(bundle, path)
        assert load_model(path).kind == "binary"

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
        X = [sv([0, 1]), sv([0, 2]), sv([3, 0]), sv([4, 0])]
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
        assert epsilon_objective(w, 0.1, [SparseVector({}, 1)], [0.2], 1.0, 0.05) == \
            pytest.approx(0.5 * 0.01 + 0.05, abs=1e-12)


class TestEpochObjectives:
    """The per-epoch objectives, computed over the flat layout, agree with
    the per-sample loops of `hinge_objective` and `epsilon_objective`."""

    def rows(self, rng, n, dim):
        # every third sample empty, so rows without entries are covered
        return [SparseVector({} if i % 3 == 0 else
                             {j: rng.uniform(-2, 2) for j in range(dim) if rng.random() < 0.6}, dim)
                for i in range(n)]

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
            targets = [{name: rng.uniform(-0.5, 0.5) for name in "ENACO"} for _ in X]
            cfg = TrainConfig(c_param=rng.uniform(0.1, 5), epochs=rng.randint(1, 30), seed=trial)
            reg = train_traits(X, targets, cfg)
            for name in "ENACO":
                want = epsilon_objective(reg.weights[name], reg.biases[name], X,
                                         [t[name] for t in targets], cfg.c_param, cfg.epsilon)
                assert reg.epoch_objectives[name][-1] == pytest.approx(want, rel=1e-12, abs=1e-12)
