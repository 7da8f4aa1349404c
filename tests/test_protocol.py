"""Drift-metric and protocol tests: hand-solved metric fixtures, metric
invariances, full-grid report structure, joint self-consistency, CSV schema
round-trips, and aggregation."""

import numpy as np
import pytest

from shapdrift import protocol, strategies
from shapdrift.data import build_stream, make_slice, synth_images, synth_sequences
from shapdrift.explainers import ShapConfig, explain_all_classes, per_example_config
from shapdrift.models import ModelSpec, build_model
from shapdrift.protocol import (
    AccuracyRow,
    DriftReport,
    MetricRow,
    _snapshot_maps,
    aggregate,
    load_accuracy_csv,
    metric_m,
    metric_m_pool,
    run_protocol,
    score_snapshot,
)
from shapdrift.strategies import OptConfig


# -- metric M -------------------------------------------------------------------


def test_m_hand_example():
    assert metric_m([1.0, 2.0, 3.0], [0.0, 1.0, 2.0]) == 3.0


def test_m_is_zero_for_identical_maps():
    s = np.random.default_rng(0).uniform(size=(5, 5))
    assert metric_m(s, s) == 0.0


def test_m_depends_only_on_sums():
    assert metric_m([3.0, 2.0, 1.0], [0.0, 1.0, 2.0]) == 3.0


def test_m_is_symmetric():
    rng = np.random.default_rng(1)
    s, j = rng.uniform(size=8), rng.uniform(size=8)
    assert metric_m(s, j) == metric_m(j, s)


def test_m_rejects_size_mismatch():
    with pytest.raises(ValueError, match="sizes differ"):
        metric_m([1.0, 2.0], [1.0, 2.0, 3.0])


# -- metric M_pool ----------------------------------------------------------------


def test_m_pool_zero_for_identical_maps():
    s = np.random.default_rng(2).normal(size=(8, 8))
    assert metric_m_pool(s, s) == 0.0


def test_m_pool_invariant_under_in_window_swaps():
    rng = np.random.default_rng(3)
    s = rng.normal(size=(8, 8))
    j = rng.normal(size=(8, 8))
    swapped = s.copy()
    swapped[0, 0], swapped[2, 3] = swapped[2, 3], swapped[0, 0]  # same 4x4 window
    assert metric_m_pool(swapped, j) == pytest.approx(metric_m_pool(s, j), abs=1e-12)


def test_m_pool_orders_differ_on_signed_maps():
    rng = np.random.default_rng(4)
    s, j = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
    a = metric_m_pool(s, j, order="normalize_then_clamp")
    b = metric_m_pool(s, j, order="clamp_then_normalize")
    assert a != b


def test_m_pool_validation():
    with pytest.raises(ValueError, match="must be 2D"):
        metric_m_pool(np.zeros(16), np.zeros(16))
    with pytest.raises(ValueError, match="shapes differ"):
        metric_m_pool(np.zeros((8, 8)), np.zeros((8, 12)))
    with pytest.raises(ValueError, match="smaller than pooling kernel"):
        metric_m_pool(np.zeros((3, 8)), np.zeros((3, 8)))
    with pytest.raises(ValueError, match="pool order"):
        metric_m_pool(np.zeros((8, 8)), np.zeros((8, 8)), order="pool_first")


def test_m_pool_nonnegative_on_random_maps():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s, j = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        assert metric_m_pool(s, j) >= 0.0
        assert metric_m(np.maximum(s, 0), np.maximum(j, 0)) >= 0.0


def test_score_snapshot_off_images_scores_m_only():
    rng = np.random.default_rng(6)
    s, j = rng.normal(size=(3, 2, 5, 4)), rng.normal(size=(3, 2, 5, 4))
    scores = score_snapshot(s, j)
    assert list(scores) == ["m"]
    for c in range(3):
        assert scores["m"][c] == np.mean([metric_m(np.maximum(s[c, p], 0.0),
                                                   np.maximum(j[c, p], 0.0)) for p in range(2)])
    with pytest.raises(ValueError, match="shapes differ"):
        score_snapshot(s, j[:, :1])
    with pytest.raises(ValueError, match="pool_order: unknown pool order 'bogus'"):
        score_snapshot(s, j, "bogus")


# -- end-to-end protocol -------------------------------------------------------------


STRATEGY_LIST = ["naive", "er", "gss", "joint"]


def image_setup():
    data = synth_images(4, 12, side=8, seed=0)
    stream = build_stream(data, 2)
    slice_ = make_slice(stream, background_n=16, probes_per_class=2, seed=0)
    return stream, slice_, ModelSpec("mlp", (1, 8, 8), 4, hidden=(12,))


@pytest.fixture(scope="module")
def image_report():
    stream, slice_, spec = image_setup()
    return run_protocol(
        stream, slice_, spec, STRATEGY_LIST,
        opt=OptConfig(epochs=1, batch_size=16),
        shap=ShapConfig("gradient", n_samples=8),
        buffer_capacity=16, seed=7, saliency_probes=2,
    )


def test_report_grid_is_complete(image_report):
    # 4 strategies x 2 experiences x 4 classes x 2 metrics
    assert len(image_report.rows) == 4 * 2 * 4 * 2
    assert image_report.metrics() == ["m", "m_pool"]
    assert image_report.target_classes == (0, 1)
    assert all(r.value >= 0.0 for r in image_report.rows)
    assert all((r.class_id in (0, 1)) == r.is_target for r in image_report.rows)


def test_joint_self_comparison_is_exactly_zero(image_report):
    joint_rows = [r for r in image_report.rows if r.strategy == "joint"]
    assert len(joint_rows) == 2 * 4 * 2
    assert all(r.value == 0.0 for r in joint_rows)


def test_scores_equal_probe_means_of_single_pair_metrics(image_report):
    # the one-pass scorer against the per-probe loop over the single-pair API
    _, slice_, spec = image_setup()
    shap_seed = int(np.random.SeedSequence(7).generate_state(3)[2])
    shap = ShapConfig("gradient", n_samples=8, seed=shap_seed)
    model = build_model(spec)

    def maps(state):
        model.load_state_dict(state)
        return _snapshot_maps(model, slice_.probes, slice_.background.inputs, shap)[0]

    joint = maps(image_report.train_logs["joint"].snapshots[-1])
    curves = aggregate(image_report).curves
    for e, state in enumerate(image_report.train_logs["naive"].snapshots, start=1):
        s = maps(state)
        for c in range(4):
            pairs = [(s[c, p], joint[c, p]) for p in range(s.shape[1])]
            m = np.mean([metric_m(np.maximum(a, 0.0), np.maximum(b, 0.0)) for a, b in pairs])
            m_pool = np.mean([metric_m_pool(a[0], b[0]) for a, b in pairs])
            assert curves[("naive", "m")][e - 1, c] == m
            assert curves[("naive", "m_pool")][e - 1, c] == m_pool


def test_accuracy_rows_cover_every_snapshot(image_report):
    rows = image_report.accuracy_rows
    per_strategy = {s: [r for r in rows if r.strategy == s] for s in STRATEGY_LIST}
    assert len(per_strategy["naive"]) == 2 * 2
    assert len(per_strategy["joint"]) == 2
    assert all(r.experience_trained == 2 for r in per_strategy["joint"])
    assert all(0.0 <= r.accuracy <= 1.0 for r in rows)


def test_saliency_retention(image_report):
    assert set(image_report.saliency) == set(STRATEGY_LIST)
    inputs, maps = image_report.saliency["naive"]
    assert inputs.shape == (2, 1, 8, 8)
    assert maps.shape == (4, 2, 8, 8)  # (classes, probes, H, W)
    assert np.all(maps >= 0.0)


def test_report_csv_roundtrip(image_report, tmp_path):
    path = tmp_path / "drift.csv"
    image_report.to_csv(path)
    restored = DriftReport.from_csv(path)
    assert restored.rows == image_report.rows
    assert restored.num_classes == image_report.num_classes
    assert restored.num_experiences == image_report.num_experiences
    assert restored.target_classes == image_report.target_classes


def test_accuracy_csv_roundtrip(image_report, tmp_path):
    path = tmp_path / "accuracy.csv"
    image_report.accuracy_to_csv(path)
    assert load_accuracy_csv(path) == image_report.accuracy_rows


class Unprintable(float):
    def __float__(self):
        raise ArithmeticError("this value cannot be written")


def test_csv_that_fails_midway_leaves_the_old_file(image_report, tmp_path):
    path = tmp_path / "drift.csv"
    image_report.to_csv(path)
    before = path.read_bytes()
    rows = list(image_report.rows)
    rows[len(rows) // 2] = MetricRow("naive", 1, 0, "m", Unprintable(0.5), True)
    broken = DriftReport(rows, [], image_report.num_classes, image_report.num_experiences,
                         image_report.target_classes)
    with pytest.raises(ArithmeticError):
        broken.to_csv(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["drift.csv"]


def test_from_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        DriftReport.from_csv(path)


def test_protocol_is_deterministic(tmp_path):
    data = synth_images(2, 12, side=8, seed=1)
    stream = build_stream(data, 1)
    slice_ = make_slice(stream, background_n=8, probes_per_class=2, seed=0)
    spec = ModelSpec("mlp", (1, 8, 8), 2, hidden=(8,))
    paths = []
    for i in range(2):
        report = run_protocol(stream, slice_, spec, ["naive", "joint"],
                              opt=OptConfig(epochs=1), shap=ShapConfig(n_samples=4),
                              seed=3)
        p = tmp_path / f"run{i}.csv"
        report.to_csv(p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sequence_stream_reports_m_only():
    data = synth_sequences(4, 12, steps=10, features=6, seed=0)
    stream = build_stream(data, 2)
    slice_ = make_slice(stream, background_n=12, probes_per_class=2, seed=0)
    spec = ModelSpec("conv1d", (10, 6), 4, conv1d_channels=6, dense_width=8)
    report = run_protocol(stream, slice_, spec, ["naive", "joint"],
                          opt=OptConfig(epochs=1, lr=0.01),
                          shap=ShapConfig(n_samples=4), seed=1)
    assert report.metrics() == ["m"]
    assert len(report.rows) == 2 * 2 * 4


@pytest.mark.parametrize("engine", ["exact", "sampling", "gradient"])
def test_batched_maps_match_per_probe_engine_calls(engine):
    # batching probes into one engine call must not change any probe's map
    side = 4 if engine == "exact" else 8  # exact enumerates 2^(side^2) coalitions
    data = synth_images(2, 12, side=side, seed=2)
    stream = build_stream(data, 1)
    slice_ = make_slice(stream, background_n=8, probes_per_class=2, seed=0)
    model = build_model(ModelSpec("mlp", (1, side, side), 2, seed=5, hidden=(8,)))
    shap = ShapConfig(engine, n_samples=6, seed=11)
    batched, phi0 = _snapshot_maps(model, slice_.probes, slice_.background.inputs, shap)
    assert batched.shape == (2, len(slice_.probes.inputs), 1, side, side)
    for p, x in enumerate(slice_.probes.inputs):
        direct, direct_phi0 = explain_all_classes(model, x[None], slice_.background.inputs,
                                                  shap, [per_example_config(shap, p).seed])
        np.testing.assert_array_equal(batched[:, p], direct[:, 0])
        np.testing.assert_array_equal(phi0, direct_phi0)


def lstm_setup():
    data = synth_sequences(4, 12, steps=6, features=4, seed=0)
    stream = build_stream(data, 2)
    slice_ = make_slice(stream, background_n=8, probes_per_class=2, seed=0)
    return stream, slice_, ModelSpec("lstm", (6, 4), 4, hidden_size=4)


@pytest.mark.parametrize("setup", [image_setup, lstm_setup])
def test_naive_and_er_share_their_first_stage(setup, monkeypatch):
    stream, slice_, spec = setup()
    opt = OptConfig(epochs=2, batch_size=8)
    step, maps = strategies.sgd_step, protocol._snapshot_maps
    calls = {"steps": 0, "maps": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(strategies, "sgd_step", counted("steps", step))
    monkeypatch.setattr(protocol, "_snapshot_maps", counted("maps", maps))

    def run(names):
        calls.update(steps=0, maps=0)
        report = run_protocol(stream, slice_, spec, names, opt=opt,
                              shap=ShapConfig("gradient", n_samples=4),
                              buffer_capacity=8, seed=5)
        return report, dict(calls)

    def rows_of(report, strategy):
        log = report.train_logs[strategy]
        return ([r for r in report.rows if r.strategy == strategy],
                [r for r in report.accuracy_rows if r.strategy == strategy],
                log.to_json(), log.snapshots)

    def assert_same(a, b):
        assert a[:3] == b[:3]
        for x, y in zip(a[3], b[3], strict=True):
            assert x.keys() == y.keys()
            for name in x:
                np.testing.assert_array_equal(x[name], y[name])

    apart = {s: run([s, "joint"]) for s in ("naive", "er")}
    together = {tuple(names): run(names)
                for names in (["naive", "er", "joint"], ["er", "naive", "joint"])}
    stage_steps = opt.epochs * -(-len(stream.experiences[0].train) // opt.batch_size)
    joint_steps = opt.epochs * -(-sum(len(e.train) for e in stream.experiences)
                                 // opt.batch_size)
    for report, counts in together.values():
        for strategy in ("naive", "er"):
            assert_same(rows_of(report, strategy), rows_of(apart[strategy][0], strategy))
        # the shared stage trained and was attributed once
        assert counts["steps"] == (apart["naive"][1]["steps"] + apart["er"][1]["steps"]
                                   - joint_steps - stage_steps)
        assert counts["maps"] == 2 * len(stream) - 1 + 1


def test_er_listed_first_on_one_experience_takes_naive_snapshot(monkeypatch):
    # naive trains before ER whatever the list order, and on a one-experience
    # stream ER's only snapshot is naive's, so ER attributes nothing of its own
    stream = build_stream(synth_images(2, 12, side=8, seed=0), 1)
    slice_ = make_slice(stream, background_n=8, probes_per_class=2, seed=0)
    spec = ModelSpec("mlp", (1, 8, 8), 2, hidden=(6,))
    maps, calls = protocol._snapshot_maps, []
    monkeypatch.setattr(protocol, "_snapshot_maps",
                        lambda *args: calls.append(args) or maps(*args))

    def run(names):
        calls.clear()
        report = run_protocol(stream, slice_, spec, names, opt=OptConfig(epochs=2, batch_size=8),
                              shap=ShapConfig("gradient", n_samples=4), buffer_capacity=8,
                              seed=3, saliency_probes=2)
        log = report.train_logs["er"]
        return ([r for r in report.rows if r.strategy == "er"],
                [r for r in report.accuracy_rows if r.strategy == "er"],
                log.to_json(), log.snapshots, report.saliency["er"], len(calls))

    alone, together = run(["er", "joint"]), run(["er", "naive", "joint"])
    assert together[:3] == alone[:3]
    for x, y in zip(together[3], alone[3], strict=True):
        for name in x:
            np.testing.assert_array_equal(x[name], y[name])
    for x, y in zip(together[4], alone[4], strict=True):
        np.testing.assert_array_equal(x, y)
    # joint's snapshot and the shared experience's, each attributed once
    assert alone[5] == together[5] == 2


def test_protocol_validation_errors():
    data = synth_images(2, 12, side=8, seed=0)
    stream = build_stream(data, 1)
    slice_ = make_slice(stream, background_n=8, probes_per_class=2, seed=0)
    spec = ModelSpec("mlp", (1, 8, 8), 2)
    with pytest.raises(ValueError, match="empty"):
        run_protocol(stream, slice_, spec, [])
    with pytest.raises(ValueError, match="unknown strategies"):
        run_protocol(stream, slice_, spec, ["naive", "cumulative"])
    with pytest.raises(ValueError, match="duplicate"):
        run_protocol(stream, slice_, spec, ["naive", "naive"])
    with pytest.raises(ValueError, match="pool order"):
        run_protocol(stream, slice_, spec, ["naive"], pool_order="sideways")


def test_bad_buffer_setting_fails_before_any_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("the joint model was trained before the buffers were checked")

    monkeypatch.setattr(protocol, "train_joint", no_training)
    stream, slice_, spec = image_setup()
    with pytest.raises(ValueError, match="gss_tau"):
        run_protocol(stream, slice_, spec, ["joint", "gss"], gss_tau=float("nan"))
    with pytest.raises(TypeError, match="capacity"):
        run_protocol(stream, slice_, spec, ["joint", "er"], buffer_capacity=2.5)
    for probes, error in ((2.5, TypeError), (-1, ValueError)):
        with pytest.raises(error, match="saliency_probes"):
            run_protocol(stream, slice_, spec, ["joint", "naive"], saliency_probes=probes)


# -- aggregation ----------------------------------------------------------------------


def test_aggregate_curves_and_target_table(image_report):
    agg = aggregate(image_report)
    assert agg.strategies == ("naive", "er", "gss", "joint")
    assert agg.metrics == ("m", "m_pool")
    assert agg.curves[("naive", "m")].shape == (2, 4)
    assert agg.target_classes == (0, 1)
    np.testing.assert_allclose(
        agg.target_table[("naive", "m")][1],
        np.mean([agg.curves[("naive", "m")][1, c] for c in (0, 1)]),
    )
    assert agg.final_target[("joint", "m")] == 0.0
    assert agg.final_target[("joint", "m_pool")] == 0.0


def test_aggregate_rejects_incomplete_report(image_report):
    broken = DriftReport(
        rows=image_report.rows[:-1],
        accuracy_rows=[],
        num_classes=image_report.num_classes,
        num_experiences=image_report.num_experiences,
        target_classes=image_report.target_classes,
    )
    with pytest.raises(ValueError, match="incomplete"):
        aggregate(broken)


def test_aggregate_rejects_empty_report():
    empty = DriftReport(rows=[], accuracy_rows=[], num_classes=0,
                        num_experiences=0, target_classes=())
    with pytest.raises(ValueError, match="empty"):
        aggregate(empty)
