"""Training-strategy tests: buffer policies and invariants, GSS admission
rules, forgetting/retention behaviour, and determinism."""

import numpy as np
import pytest

from shapdrift import strategies
from shapdrift.data import build_stream, synth_images
from shapdrift.models import Mlp, Model, ModelSpec, build_model
from shapdrift.strategies import (
    OptConfig,
    ReplayBuffer,
    TrainingDiverged,
    evaluate,
    gss_admit,
    train_joint,
    train_naive,
    train_replay,
)


def make_stream(classes=4, per_class=24, side=8, seed=0, per_experience=2):
    data = synth_images(classes, per_class, side=side, seed=seed)
    return build_stream(data, classes // per_experience)


def make_model(stream, hidden=(16,), seed=0):
    shape = stream.experiences[0].train.inputs.shape[1:]
    return build_model(ModelSpec("mlp", shape, stream.num_classes,
                                 seed=seed, hidden=hidden))


# -- config and evaluation ----------------------------------------------------------


def test_opt_config_validation():
    with pytest.raises(ValueError, match="lr"):
        OptConfig(lr=0.0)
    with pytest.raises(ValueError, match="batch_size"):
        OptConfig(batch_size=0)


def test_evaluate_zero_model_predicts_class_zero():
    stream = make_stream()
    model = make_model(stream)
    state = {k: np.zeros_like(v) for k, v in model.state_dict().items()}
    model.load_state_dict(state)
    exp = stream.experiences[0]  # classes (0, 1), half the labels are 0
    assert evaluate(model, exp.test) == pytest.approx(0.5)


def test_evaluate_rejects_empty_dataset():
    stream = make_stream()
    model = make_model(stream)
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, stream.experiences[0].test.take([]))


# -- replay buffer ------------------------------------------------------------------


def test_buffer_rejects_bad_construction():
    with pytest.raises(ValueError, match="capacity"):
        ReplayBuffer(0)
    with pytest.raises(ValueError, match="policy"):
        ReplayBuffer(10, policy="fifo")


def test_buffer_sample_semantics():
    buf = ReplayBuffer(10)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="empty"):
        buf.sample(1, rng)
    stream = make_stream()
    buf.rebalance(stream.experiences[0].train, rng)
    stored = len(buf)
    x, y = buf.sample(stored + 5, rng)  # larger than fill: with replacement
    assert len(x) == stored + 5
    x2, _ = buf.sample(3, rng)
    assert x2.shape[1:] == stream.experiences[0].train.inputs.shape[1:]


def test_rebalance_keeps_classes_balanced_within_capacity():
    stream = make_stream(classes=4, per_class=24)
    buf = ReplayBuffer(10)
    rng = np.random.default_rng(1)
    buf.rebalance(stream.experiences[0].train, rng)
    counts = np.bincount(buf.labels, minlength=4)
    assert counts[0] == counts[1] == 5 and counts[2:].sum() == 0
    buf.rebalance(stream.experiences[1].train, rng)
    counts = np.bincount(buf.labels, minlength=4)
    assert np.all(counts == 2)  # 10 // 4 slots each
    assert len(buf) <= buf.capacity


def test_policy_method_mismatch_raises():
    rng = np.random.default_rng(0)
    stream = make_stream()
    model = make_model(stream)
    with pytest.raises(RuntimeError, match="rebalance"):
        ReplayBuffer(4, policy="gss_greedy").rebalance(stream.experiences[0].train, rng)
    with pytest.raises(RuntimeError, match="consider"):
        ReplayBuffer(4).consider(stream.experiences[0].train.inputs[0], 0, model, rng)


# -- gss admission ------------------------------------------------------------------


def test_gss_fills_then_rejects_duplicates():
    stream = make_stream()
    model = make_model(stream)
    rng = np.random.default_rng(2)
    exp = stream.experiences[0].train
    buf = ReplayBuffer(3, policy="gss_greedy")
    x, y = exp.inputs[0], int(exp.labels[0])
    for _ in range(3):  # a non-full buffer always admits
        assert buf.consider(x, y, model, rng)
    assert len(buf) == 3
    # an exact copy of a stored example has cosine similarity 1 >= tau
    assert not buf.consider(x, y, model, rng)
    assert len(buf) == 3


def test_gss_admits_dissimilar_candidate_and_evicts_highest_score():
    stream = make_stream()
    model = make_model(stream)
    rng = np.random.default_rng(3)
    exp = stream.experiences[0].train
    buf = ReplayBuffer(2, policy="gss_greedy")
    zeros = exp.inputs[exp.labels == 0]
    buf.consider(zeros[0], 0, model, rng)
    buf.consider(zeros[1], 0, model, rng)
    ones = exp.inputs[exp.labels == 1]
    admitted = gss_admit(buf, ones[0], 1, model, rng)
    assert admitted and len(buf) == 2
    assert 1 in buf.labels


def test_gss_determinism():
    stream = make_stream()
    results = []
    for _ in range(2):
        model = make_model(stream)
        rng = np.random.default_rng(7)
        buf = ReplayBuffer(4, policy="gss_greedy")
        exp = stream.experiences[0].train
        for i in range(8):
            buf.consider(exp.inputs[i], int(exp.labels[i]), model, rng)
        results.append(buf.labels.tolist())
    assert results[0] == results[1]


def gss_on_a_filling_buffer(activation, hidden):
    """A GSS run whose 120-slot buffer fills, so tau and eviction both act;
    returns every admission decision and the final buffer."""
    data = synth_images(10, 60, side=12, seed=0)
    stream = build_stream(data, 5)
    model = build_model(ModelSpec("mlp", data.inputs.shape[1:], 10,
                                  hidden=hidden, activation=activation))
    buf = ReplayBuffer(120, policy="gss_greedy")
    decisions = []
    admit = strategies.gss_admit

    def recorded(*args):
        decisions.append(admit(*args))
        return decisions[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(strategies, "gss_admit", recorded)
        train_replay(model, stream, OptConfig(0.2, 100, 20), buf, seed=0)
    return decisions, buf


@pytest.mark.parametrize("activation, hidden, admitted",
                         [("tanh", (32,), 170), ("relu", (16, 8), 172)])
def test_gss_decisions_on_a_filling_buffer_match_the_tape_loop(
        activation, hidden, admitted, monkeypatch):
    decisions, fast = gss_on_a_filling_buffer(activation, hidden)
    # 200 candidates; the rejections and the evictions past slot 120 both happen
    assert len(decisions) == 200 and sum(decisions) == admitted
    assert len(fast) == fast.capacity
    monkeypatch.setattr(Mlp, "example_gradients", Model.example_gradients)
    loop_decisions, loop = gss_on_a_filling_buffer(activation, hidden)
    assert decisions == loop_decisions
    np.testing.assert_array_equal(np.stack(fast._inputs), np.stack(loop._inputs))
    np.testing.assert_array_equal(fast.labels, loop.labels)
    assert fast._scores == loop._scores


# -- training strategies --------------------------------------------------------------


def test_naive_learns_then_forgets():
    stream = make_stream(classes=4, per_class=36)
    model = make_model(stream)
    log = train_naive(model, stream, OptConfig(lr=0.1, epochs=12), seed=0)
    assert log.accuracy.shape == (2, 2) and len(log.snapshots) == 2
    assert log.accuracy[0, 0] > 0.7          # first experience learned
    assert log.accuracy[1, 1] > 0.7          # second experience learned
    assert log.accuracy[1, 0] < log.accuracy[0, 0]  # first experience degraded


def test_replay_retains_more_than_naive():
    stream = make_stream(classes=4, per_class=36)
    naive = train_naive(make_model(stream), stream, OptConfig(lr=0.1, epochs=12), seed=0)
    buf = ReplayBuffer(40)
    er = train_replay(make_model(stream), stream, OptConfig(lr=0.1, epochs=12), buf, seed=0)
    assert er.strategy == "er"
    assert er.accuracy[1, 0] > naive.accuracy[1, 0]


@pytest.mark.parametrize("n_experiences", [1, 2, 3])
def test_er_buffer_labels_respect_causality(n_experiences):
    stream = make_stream(classes=6, per_class=12, per_experience=2)
    truncated = build_stream_prefix(stream, n_experiences)
    buf = ReplayBuffer(12)
    train_replay(make_model(truncated), truncated, OptConfig(epochs=1), buf, seed=1)
    allowed = set()
    for exp in truncated.experiences:
        allowed.update(exp.classes)
    assert set(buf.labels.tolist()) <= allowed
    assert len(buf) <= buf.capacity


def build_stream_prefix(stream, n):
    from shapdrift.data import ExperienceStream
    kept = stream.experiences[:n]
    classes = sorted(c for exp in kept for c in exp.classes)
    remap = {c: i for i, c in enumerate(classes)}

    def relabel(ds):
        from shapdrift.data import LabeledDataset
        labels = np.asarray([remap[int(y)] for y in ds.labels])
        return LabeledDataset(ds.inputs, labels, len(classes))

    from shapdrift.data import Experience
    exps = [Experience(relabel(e.train), relabel(e.test),
                       tuple(remap[c] for c in e.classes)) for e in kept]
    return ExperienceStream(exps, len(classes))


def test_gss_training_runs_and_respects_capacity():
    stream = make_stream(classes=4, per_class=12)
    buf = ReplayBuffer(8, policy="gss_greedy", gss_candidates=1)
    log = train_replay(make_model(stream), stream, OptConfig(epochs=1), buf, seed=0)
    assert log.strategy == "gss"
    assert 0 < len(buf) <= buf.capacity
    assert log.accuracy.shape == (2, 2)


def test_joint_single_snapshot_and_high_accuracy():
    stream = make_stream(classes=4, per_class=36)
    log = train_joint(make_model(stream), stream, OptConfig(lr=0.1, epochs=12), seed=0)
    assert len(log.snapshots) == 1 and log.accuracy.shape == (1, 2)
    assert log.accuracy[-1].mean() > 0.8


def test_joint_equals_naive_on_single_experience_stream():
    stream = make_stream(classes=2, per_class=24, per_experience=2)
    a = train_naive(make_model(stream), stream, OptConfig(epochs=2), seed=5)
    b = train_joint(make_model(stream), stream, OptConfig(epochs=2), seed=5)
    for name in a.snapshots[-1]:
        np.testing.assert_array_equal(a.snapshots[-1][name], b.snapshots[-1][name])


def test_training_is_deterministic_per_seed():
    stream = make_stream()
    a = train_naive(make_model(stream), stream, OptConfig(epochs=2), seed=3)
    b = train_naive(make_model(stream), stream, OptConfig(epochs=2), seed=3)
    np.testing.assert_array_equal(a.accuracy, b.accuracy)
    for name in a.snapshots[-1]:
        np.testing.assert_array_equal(a.snapshots[-1][name], b.snapshots[-1][name])
    c = train_naive(make_model(stream), stream, OptConfig(epochs=2), seed=4)
    assert not np.array_equal(a.accuracy, c.accuracy) or any(
        not np.array_equal(a.snapshots[-1][k], c.snapshots[-1][k])
        for k in a.snapshots[-1]
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_reported():
    stream = make_stream()
    model = make_model(stream)
    model.params["w0"].data[:] = np.inf
    with pytest.raises(TrainingDiverged):
        train_naive(model, stream, OptConfig(epochs=1), seed=0)


@pytest.mark.parametrize("train, where", [
    (lambda m, s, o: train_naive(m, s, o), "naive, experience 2 of 2, epoch 1 of 3"),
    (lambda m, s, o: train_replay(m, s, o, ReplayBuffer(8)),
     "er, experience 2 of 2, epoch 1 of 3"),
    (lambda m, s, o: train_replay(m, s, o, ReplayBuffer(8, policy="gss_greedy")),
     "gss, experience 2 of 2, epoch 1 of 3"),
    (lambda m, s, o: train_joint(m, s, o), "joint, all 2 experiences, epoch 1 of 3"),
])
def test_divergence_names_strategy_experience_and_epoch(train, where):
    stream = make_stream()
    stream.experiences[1].train.inputs[3, 0, 2, 2] = np.nan  # one NaN input
    with pytest.raises(TrainingDiverged) as info:
        train(make_model(stream), stream, OptConfig(epochs=3))
    assert str(info.value) == f"loss became nan during training ({where})"


def test_trainlog_json_roundtrip(tmp_path):
    stream = make_stream()
    log = train_naive(make_model(stream), stream, OptConfig(epochs=1), seed=0)
    path = tmp_path / "log.json"
    log.save_json(path)
    import json
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["strategy"] == log.strategy
    assert [tuple(c) for c in payload["experience_classes"]] == log.experience_classes
    assert payload["final_losses"] == log.final_losses
    np.testing.assert_array_equal(np.asarray(payload["accuracy"]), log.accuracy)
