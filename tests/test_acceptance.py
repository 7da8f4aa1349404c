"""Release gate: end-to-end checks on the shipped behavior.

Each test here guards one release requirement: the drift metrics against
straight-line re-implementations, the Shapley engines against game-theoretic
axioms and each other, the autodiff core against finite differences, the
qualitative continual-learning orderings the protocol must reproduce, and
bit-level reproducibility of the reports. The protocol-level checks run the
full desk-scale pipeline once per seed via module-scoped fixtures; orderings
are asserted over the majority of three seeds, numeric oracles are exact.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from shapdrift.data import LabeledDataset, build_stream, make_slice, synth_images, synth_sequences
from shapdrift.explainers import (
    ClassLogit,
    ShapConfig,
    exact_shapley,
    explain_all_classes,
    gradient_shap,
    sampling_shapley,
)
from shapdrift.models import ModelSpec, build_model, reservoir_checksum
from shapdrift.protocol import (
    aggregate,
    metric_m,
    metric_m_pool,
    run_protocol,
    score_snapshot,
)
from shapdrift.strategies import OptConfig, ReplayBuffer, train_joint, train_replay
from shapdrift.tensor import Tensor, no_grad, softmax_cross_entropy

SEEDS = (0, 1, 2)
MAJORITY = 2

# Desk-scale protocol configurations. The convergent image run reproduces the
# forgetting/drift orderings against the joint reference; the early-stopped
# image run probes the window where replay still lags on the newest classes.
IMAGE_OPT = OptConfig(lr=0.2, batch_size=100, epochs=60)
IMAGE_EARLY_OPT = OptConfig(lr=0.1, batch_size=100, epochs=8)
SEQUENCE_OPT = OptConfig(lr=0.05, batch_size=32, epochs=15)
ESN_OPT = OptConfig(lr=0.1, batch_size=32, epochs=15)
DESK_SHAP = ShapConfig("gradient", n_samples=16)


def _image_report(seed, opt, strategies):
    data = synth_images(10, 60, side=12, seed=0)
    stream = build_stream(data, 5)
    eval_slice = make_slice(stream, background_n=48, probes_per_class=4, seed=seed)
    spec = ModelSpec("mlp", (1, 12, 12), 10, hidden=(32,))
    return run_protocol(stream, eval_slice, spec, strategies, opt=opt,
                        shap=DESK_SHAP, buffer_capacity=2000, seed=seed)


def _sequence_report(seed, arch, strategies, opt):
    data = synth_sequences(10, 60, steps=30, features=12, seed=0)
    stream = build_stream(data, 5)
    eval_slice = make_slice(stream, background_n=48, probes_per_class=4, seed=seed)
    hidden_size = 32 if arch == "lstm" else 64
    spec = ModelSpec(arch, (30, 12), 10, hidden_size=hidden_size)
    return run_protocol(stream, eval_slice, spec, strategies, opt=opt,
                        shap=DESK_SHAP, buffer_capacity=2000, seed=seed)


@pytest.fixture(scope="module")
def image_reports():
    return {s: _image_report(s, IMAGE_OPT, ["naive", "er", "gss", "joint"])
            for s in SEEDS}


@pytest.fixture(scope="module")
def early_image_reports():
    return {s: _image_report(s, IMAGE_EARLY_OPT, ["naive", "er", "joint"])
            for s in SEEDS}


@pytest.fixture(scope="module")
def lstm_reports():
    return {s: _sequence_report(s, "lstm", ["naive", "er", "joint"], SEQUENCE_OPT)
            for s in SEEDS}


@pytest.fixture(scope="module")
def esn_reports():
    return {s: _sequence_report(s, "esn", ["er", "joint"], ESN_OPT)
            for s in SEEDS}


def _accuracy(report, strategy, trained, evaluated):
    for row in report.accuracy_rows:
        key = (row.strategy, row.experience_trained, row.experience_evaluated)
        if key == (strategy, trained, evaluated):
            return row.accuracy
    raise KeyError((strategy, trained, evaluated))


def _final_average_accuracy(report, strategy):
    last = report.num_experiences
    return float(np.mean([_accuracy(report, strategy, last, j)
                          for j in range(1, last + 1)]))


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(b))


# -- 1. drift metrics vs straight-line re-implementations ---------------------------


def _straightline_m(s_map, j_map):
    s_vals = [float(v) for v in np.asarray(s_map).ravel()]
    j_vals = [float(v) for v in np.asarray(j_map).ravel()]
    total_s = 0.0
    for v in s_vals:
        total_s += v
    total_j = 0.0
    for v in j_vals:
        total_j += v
    return (total_s - total_j) ** 2 / len(s_vals)


def _straightline_m_pool(s_map, j_map, kernel=4):
    def normalize(rows):
        flat = [v for row in rows for v in row]
        mean = sum(flat) / len(flat)
        var = sum((v - mean) ** 2 for v in flat) / len(flat)
        scale = math.sqrt(var + 1e-8)
        return [[(v - mean) / scale for v in row] for row in rows]

    def clamp(rows):
        return [[v if v > 0.0 else 0.0 for v in row] for row in rows]

    def pool(rows):
        h, w = len(rows), len(rows[0])
        out_h = (h - kernel) // kernel + 1
        out_w = (w - kernel) // kernel + 1
        pooled = []
        for i in range(out_h):
            pooled_row = []
            for j in range(out_w):
                total = 0.0
                for a in range(kernel):
                    for b in range(kernel):
                        total += rows[i * kernel + a][j * kernel + b]
                pooled_row.append(total / (kernel * kernel))
            pooled.append(pooled_row)
        return pooled

    ps = pool(clamp(normalize([list(map(float, r)) for r in s_map])))
    pj = pool(clamp(normalize([list(map(float, r)) for r in j_map])))
    total = 0.0
    count = 0
    for row_s, row_j in zip(ps, pj):
        for a, b in zip(row_s, row_j):
            total += (a - b) ** 2
            count += 1
    return total / count


def test_01_drift_metrics_match_straightline_oracles():
    # hand-checkable values, exact equality
    assert metric_m([1.0, 2.0, 3.0], [0.0, 1.0, 2.0]) == 3.0

    rng = np.random.default_rng(20240)
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        scale = rng.uniform(0.1, 10.0)
        s = rng.normal(size=n) * scale
        j = rng.normal(size=n) * scale
        if rng.random() < 0.5:  # clamped maps are the common call site
            s, j = np.maximum(s, 0.0), np.maximum(j, 0.0)
        assert _close(metric_m(s, j), _straightline_m(s, j))

    for _ in range(1000):
        h = int(rng.integers(4, 13))
        w = int(rng.integers(4, 13))
        scale = rng.uniform(0.1, 10.0)
        s = rng.normal(size=(h, w)) * scale
        j = rng.normal(size=(h, w)) * scale
        assert _close(metric_m_pool(s, j), _straightline_m_pool(s, j))

    # the protocol's scorer: each class's probe mean over (classes, probes) stacks
    for _ in range(100):
        classes, probes = (int(v) for v in rng.integers(1, 5, size=2))
        h = int(rng.integers(4, 13))
        w = int(rng.integers(4, 13))
        scale = rng.uniform(0.1, 10.0)
        s = rng.normal(size=(classes, probes, 1, h, w)) * scale
        j = rng.normal(size=(classes, probes, 1, h, w)) * scale
        scores = score_snapshot(s, j)
        assert sorted(scores) == ["m", "m_pool"]
        for c in range(classes):
            m = [_straightline_m(np.maximum(s[c, p], 0.0), np.maximum(j[c, p], 0.0))
                 for p in range(probes)]
            m_pool = [_straightline_m_pool(s[c, p, 0], j[c, p, 0]) for p in range(probes)]
            assert _close(scores["m"][c], sum(m) / probes)
            assert _close(scores["m_pool"][c], sum(m_pool) / probes)
    print("PASS: metric_m, metric_m_pool and score_snapshot match straight-line oracles")


# -- 2. Shapley engine oracle suite ---------------------------------------------------


def test_02_shapley_axioms_and_engine_agreement():
    # product game: two symmetric features, phi = [0.5, 0.5]
    product = lambda batch: batch[:, 0] * batch[:, 1]
    amap = exact_shapley(product, np.ones(2), np.zeros(2))
    assert np.allclose(amap.phi, [0.5, 0.5], atol=1e-12)
    assert abs(amap.phi.sum() - (1.0 - amap.phi0)) <= 1e-9
    assert abs(amap.phi[0] - amap.phi[1]) <= 1e-9  # symmetry

    # glove game: features 0,1 are left gloves, 2 is the right glove
    glove = lambda batch: np.minimum(batch[:, 0] + batch[:, 1], batch[:, 2])
    amap = exact_shapley(glove, np.ones(3), np.zeros(3))
    assert np.allclose(amap.phi, [1 / 6, 1 / 6, 2 / 3], atol=1e-9)
    assert abs(amap.phi.sum() - 1.0) <= 1e-9

    # dummy: an ignored feature gets zero attribution
    partial = lambda batch: batch[:, 0] + 2.0 * batch[:, 1]
    amap = exact_shapley(partial, np.ones(3), np.zeros(3))
    assert abs(amap.phi[2]) <= 1e-12

    # efficiency on a real network probe
    rng = np.random.default_rng(77)
    model = build_model(ModelSpec("mlp", (8,), 3, hidden=(6,), seed=9))
    f = ClassLogit(model, 1)
    x, base = rng.normal(size=8), rng.normal(size=8)
    amap = exact_shapley(f, x, base)
    assert abs(amap.phi.sum() - (f(x[None])[0] - amap.phi0)) <= 1e-9

    # permutation sampling agrees with enumeration within three standard errors
    for i in range(20):
        rng = np.random.default_rng(300 + i)
        k = int(rng.integers(4, 13))
        model = build_model(ModelSpec("mlp", (k,), 2, hidden=(8,), seed=300 + i))
        f = ClassLogit(model, int(rng.integers(2)))
        x, base = rng.normal(size=k), rng.normal(size=k)
        exact = exact_shapley(f, x, base)
        sampled = sampling_shapley(f, x, base[None],
                                   ShapConfig("sampling", n_samples=2000, seed=300 + i))
        assert np.all(np.abs(sampled.phi - exact.phi) <= 3.0 * sampled.stderr + 1e-9)

    # on a linear model with one shared baseline all three engines coincide
    for i in range(3):
        rng = np.random.default_rng(50 + i)
        k = int(rng.integers(4, 9))
        model = build_model(ModelSpec("mlp", (k,), 3, hidden=(), seed=50 + i))
        f = ClassLogit(model, i)
        x, base = rng.normal(size=k), rng.normal(size=k)
        exact = exact_shapley(f, x, base)
        sampled = sampling_shapley(f, x, base[None],
                                   ShapConfig("sampling", n_samples=40, seed=7))
        grad = gradient_shap(f, x, base[None],
                             ShapConfig("gradient", n_samples=16, seed=7))
        for other in (sampled, grad):
            assert np.max(np.abs(other.phi - exact.phi)) <= 1e-9
            assert abs(other.phi0 - exact.phi0) <= 1e-9
    print("PASS: Shapley axioms, sampling calibration, and engine agreement")


# -- 3. autodiff vs central finite differences ---------------------------------------


_FD_SPECS = [
    lambda i: ModelSpec("mlp", (6,), 3, hidden=(5,), seed=i,
                        activation="relu" if i % 2 else "tanh"),
    lambda i: ModelSpec("cnn2d", (1, 10, 10), 3, conv_channels=(2, 3),
                        dense_width=6, seed=i,
                        activation="relu" if i % 2 else "tanh"),
    lambda i: ModelSpec("conv1d", (8, 4), 3, conv1d_channels=4, conv1d_kernel=3,
                        dense_width=6, seed=i),
    lambda i: ModelSpec("lstm", (6, 4), 3, hidden_size=5, seed=i),
    lambda i: ModelSpec("esn", (6, 4), 3, hidden_size=8, seed=i),
]


def _loss_value(model, x, labels):
    with no_grad():
        return float(softmax_cross_entropy(model.forward(Tensor(x)), labels).data)


def _fd_coords(rng, grad, count):
    flat = grad.ravel()
    strong = np.flatnonzero(np.abs(flat) > 1e-3)
    if len(strong) == 0:
        strong = np.array([int(np.argmax(np.abs(flat)))])
    take = min(count, len(strong))
    return rng.choice(strong, size=take, replace=False)


def test_03_autodiff_matches_central_differences():
    h = 1e-5
    for arch_index, make_spec in enumerate(_FD_SPECS):
        for i in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([811, arch_index, i]))
            model = build_model(make_spec(i))
            x = rng.normal(size=(2, *model.spec.input_shape))
            labels = rng.integers(0, 3, size=2)

            x_t = Tensor(x, requires_grad=True)
            softmax_cross_entropy(model.forward(x_t), labels).backward()

            trainable = [name for name in sorted(model.params)
                         if model.params[name].requires_grad
                         and model.params[name].grad is not None]
            name = trainable[int(rng.integers(len(trainable)))]
            param = model.params[name]
            for idx in _fd_coords(rng, param.grad, 2):
                analytic = float(param.grad.ravel()[idx])
                original = param.data.ravel()[idx]
                param.data.ravel()[idx] = original + h
                upper = _loss_value(model, x, labels)
                param.data.ravel()[idx] = original - h
                lower = _loss_value(model, x, labels)
                param.data.ravel()[idx] = original
                fd = (upper - lower) / (2 * h)
                rel = abs(analytic - fd) / max(abs(analytic), abs(fd))
                assert rel <= 1e-4, (model.spec.architecture, name, i, rel)

            for idx in _fd_coords(rng, x_t.grad, 1):
                analytic = float(x_t.grad.ravel()[idx])
                perturbed = x.copy()
                perturbed.ravel()[idx] += h
                upper = _loss_value(model, perturbed, labels)
                perturbed.ravel()[idx] -= 2 * h
                lower = _loss_value(model, perturbed, labels)
                fd = (upper - lower) / (2 * h)
                rel = abs(analytic - fd) / max(abs(analytic), abs(fd))
                assert rel <= 1e-4, (model.spec.architecture, "input", i, rel)
    print("PASS: gradients match central differences on all five architectures")


# -- 4. expected-gradients completeness ------------------------------------------------


def test_04_gradient_engine_completeness():
    rng = np.random.default_rng(404)
    centers = rng.normal(size=(8, 10)) * 2.0
    labels = np.repeat(np.arange(8), 48)
    inputs = centers[labels] + rng.normal(size=(384, 10)) * 0.3
    stream = build_stream(LabeledDataset(inputs, labels, 8), 1)

    model = build_model(ModelSpec("mlp", (10,), 8, hidden=(16,), seed=4))
    train_joint(model, stream, OptConfig(lr=0.1, batch_size=32, epochs=10), seed=3)

    train_set = stream.experiences[0].train
    background = train_set.inputs[rng.choice(len(train_set), 16, replace=False)]
    test_set = stream.experiences[0].test
    for p in range(20):
        x, label = test_set.inputs[p], int(test_set.labels[p])
        f = ClassLogit(model, label)
        amap = gradient_shap(f, x, background,
                             ShapConfig("gradient", n_samples=2000, seed=17 + p))
        gap = f(x[None])[0] - amap.phi0
        assert abs(amap.phi.sum() - gap) <= 0.05 * abs(gap), (p, gap)
    print("PASS: expected-gradients attributions sum to the value gap within 5%")


# -- 5. forgetting and replay accuracy regimes -----------------------------------------


def test_05_forgetting_and_replay_accuracy_regimes(image_reports, lstm_reports):
    image_wins = 0
    for seed in SEEDS:
        report = image_reports[seed]
        forgot = _accuracy(report, "naive", report.num_experiences, 1) < 0.20
        retained = _final_average_accuracy(report, "er") > 0.70
        image_wins += int(forgot and retained)

    sequence_wins = 0
    for seed in SEEDS:
        report = lstm_reports[seed]
        forgot = _final_average_accuracy(report, "naive") < 0.30
        retained = _final_average_accuracy(report, "er") > 0.60
        sequence_wins += int(forgot and retained)

    assert image_wins >= MAJORITY, f"images: {image_wins}/3 seeds"
    assert sequence_wins >= MAJORITY, f"sequences: {sequence_wins}/3 seeds"
    print("PASS: naive forgets while replay retains, on images and sequences")


# -- 6. naive drifts most on the first experience's classes ---------------------------


def test_06_naive_drifts_more_than_replay_on_first_classes(image_reports):
    wins = 0
    for seed in SEEDS:
        final = aggregate(image_reports[seed]).final_target
        ordered = all(
            final[("naive", metric)] > final[(other, metric)]
            for metric in ("m", "m_pool")
            for other in ("er", "gss")
        )
        wins += int(ordered)
    assert wins >= MAJORITY, f"{wins}/3 seeds ordered"
    print("PASS: naive target-class drift exceeds ER and GSS for both metrics")


# -- 7. naive preserves the newest classes better than replay -------------------------


def test_07_naive_preserves_last_classes_better_than_replay(early_image_reports):
    wins = 0
    for seed in SEEDS:
        report = early_image_reports[seed]
        last = report.num_experiences
        last_classes = report.train_logs["naive"].experience_classes[-1]
        curves = aggregate(report).curves
        naive = np.mean([curves[("naive", "m")][last - 1, c] for c in last_classes])
        er = np.mean([curves[("er", "m")][last - 1, c] for c in last_classes])
        wins += int(naive < er)
    assert wins >= MAJORITY, f"{wins}/3 seeds ordered"
    print("PASS: naive drifts less than ER on the final experience's classes")


# -- 8. recurrent architectures: replay drift and frozen reservoir --------------------


def test_08_lstm_replay_drifts_more_than_esn(lstm_reports, esn_reports):
    wins = 0
    for seed in SEEDS:
        lstm_m = aggregate(lstm_reports[seed]).final_target[("er", "m")]
        esn_m = aggregate(esn_reports[seed]).final_target[("er", "m")]
        lstm_acc = _final_average_accuracy(lstm_reports[seed], "er")
        esn_acc = _final_average_accuracy(esn_reports[seed], "er")
        wins += int(lstm_m > esn_m and esn_acc >= 0.9 * lstm_acc)
    assert wins >= MAJORITY, f"{wins}/3 seeds ordered"

    # hard invariant on every seed: the reservoir never trains
    data = synth_sequences(10, 60, steps=30, features=12, seed=0)
    stream = build_stream(data, 5)
    base_spec = ModelSpec("esn", (30, 12), 10, hidden_size=64)
    for seed in SEEDS:
        model_seed, train_seed, shap_seed = (
            int(v) for v in np.random.SeedSequence(seed).generate_state(3))
        model = build_model(replace(base_spec, seed=model_seed))
        before = reservoir_checksum(model)
        train_replay(model, stream, ESN_OPT, ReplayBuffer(2000), seed=train_seed)
        eval_slice = make_slice(stream, background_n=48, probes_per_class=4, seed=seed)
        explain_all_classes(model, eval_slice.probes.inputs[:1],
                            eval_slice.background.inputs,
                            ShapConfig("gradient", n_samples=8, seed=shap_seed), [shap_seed])
        assert reservoir_checksum(model) == before, f"reservoir changed, seed {seed}"
    print("PASS: LSTM replay drift exceeds ESN at comparable accuracy; reservoir frozen")


# -- 9. joint reference compared against itself ----------------------------------------


def test_09_joint_self_comparison_is_exactly_zero(image_reports, lstm_reports,
                                                  esn_reports):
    for reports in (image_reports, lstm_reports, esn_reports):
        for report in reports.values():
            joint_rows = [row for row in report.rows if row.strategy == "joint"]
            assert joint_rows
            for row in joint_rows:
                assert row.value == 0.0, (row.experience, row.class_id, row.metric)
    print("PASS: joint-vs-joint drift is exactly zero in every report row")


# -- 10. bit-level reproducibility ------------------------------------------------------


def test_10_identical_configs_produce_identical_reports(tmp_path):
    paths = []
    for run in range(2):
        report = _image_report(0, IMAGE_EARLY_OPT, ["naive", "er", "joint"])
        drift = tmp_path / f"drift_{run}.csv"
        accuracy = tmp_path / f"accuracy_{run}.csv"
        report.to_csv(drift)
        report.accuracy_to_csv(accuracy)
        paths.append((drift, accuracy))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
    print("PASS: repeated runs of one configuration are byte-identical")
