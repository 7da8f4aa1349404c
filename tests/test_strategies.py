"""Training-strategy tests: buffer policies and invariants, GSS admission
rules, forgetting/retention behaviour, and determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest

from shapdrift import strategies
from shapdrift.data import build_stream, synth_images, synth_sequences
from shapdrift.models import Model, ModelSpec, build_model
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
    for name in ("epochs", "batch_size"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got 0$"):
            OptConfig(**{name: 0})


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
    for capacity in (2.5, True, "10"):
        with pytest.raises(TypeError, match="capacity must be an integer"):
            ReplayBuffer(capacity)


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


class ListReplay:
    """The class-balanced refill and the draw as Python lists of entries: the
    reference that the array-backed buffer must reproduce draw for draw."""

    def __init__(self, capacity):
        self.capacity, self.inputs, self.labels = capacity, [], []

    def rebalance(self, dataset, rng):
        pools = {}
        for x, y in zip(self.inputs, self.labels):
            pools.setdefault(int(y), []).append(x)
        for class_id in np.unique(dataset.labels):
            pools.setdefault(int(class_id), []).extend(
                dataset.inputs[dataset.class_indices(int(class_id))])
        slots = self.capacity // len(pools)
        self.inputs, self.labels = [], []
        for class_id in sorted(pools):
            pool = pools[class_id]
            keep = rng.choice(len(pool), size=min(slots, len(pool)), replace=False)
            for i in sorted(keep):
                self.inputs.append(np.array(pool[i]))
                self.labels.append(class_id)

    def sample(self, n, rng):
        idx = rng.choice(len(self.labels), size=n, replace=n > len(self.labels))
        return (np.stack([self.inputs[i] for i in idx]),
                np.asarray([self.labels[i] for i in idx], dtype=np.int64))


def test_buffer_refills_and_draws_like_the_list_reference():
    stream = build_stream(synth_images(10, 12, side=6, seed=0), 5)
    buf, ref = ReplayBuffer(17), ListReplay(17)
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for e, exp in enumerate(stream.experiences):
        buf.rebalance(exp.train, rng)
        ref.rebalance(exp.train, ref_rng)
        np.testing.assert_array_equal(buf._inputs[:len(buf)], np.stack(ref.inputs))
        np.testing.assert_array_equal(buf.labels, ref.labels)
        # each seen class offers 10 train rows and keeps 17 // seen < 10 of them
        seen = 2 * (e + 1)
        assert len(buf) == 17 // seen * seen
        # draws without replacement (up to the fill) and with it (past the fill)
        for n in (3, len(buf), len(buf) + 7):
            for got, want in zip(buf.sample(n, rng), ref.sample(n, ref_rng)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


ER_RUN = """
import sys
from shapdrift.data import build_stream, synth_images, synth_sequences
from shapdrift.models import ModelSpec, build_model
from shapdrift.strategies import OptConfig, ReplayBuffer, train_replay
stream = build_stream(synth_images(4, 12, side=6, seed=0), 2)
model = build_model(ModelSpec("mlp", (1, 6, 6), 4, hidden=(8,)))
train_replay(model, stream, OptConfig(epochs=1, batch_size=16), ReplayBuffer(8))
print("numpy.ma" in sys.modules)
"""


def test_replay_training_does_not_import_numpy_ma():
    # numpy.ma costs 1.3 MB of resident memory, and np.unique's first call imports it
    src = os.path.dirname(os.path.dirname(strategies.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", ER_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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


def pairwise_similarities(grads):
    """The one-pair cosine formula, pair by pair: 0.0 where either norm is zero."""
    norm_c, out = np.linalg.norm(grads[0]), []
    for g in grads[1:]:
        denom = norm_c * np.linalg.norm(g)
        out.append(float(grads[0] @ g / denom) if denom > 0 else 0.0)
    return out


def test_stacked_gss_scores_equal_the_pairwise_loop():
    rng = np.random.default_rng(0)
    for trial in range(60):
        rows, width = int(rng.integers(2, 12)), int(rng.integers(1, 5000))
        grads = rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(-6, 2)
        if trial % 3:
            grads[trial % rows] = 0.0   # the candidate's row or a sampled entry's
        scores = strategies._similarities(grads)
        assert scores.tolist() == pairwise_similarities(grads)
        if trial % 3 and trial % rows:
            assert scores[trial % rows - 1] == 0.0
    zero_candidate = np.vstack([np.zeros(5), rng.standard_normal((3, 5))])
    assert strategies._similarities(zero_candidate).tolist() == [0.0, 0.0, 0.0]


def gss_on_a_filling_buffer(data, architecture, **model):
    """A GSS run whose 120-slot buffer fills, so tau and eviction both act;
    returns every admission decision and the final buffer."""
    stream = build_stream(data, 5)
    model = build_model(ModelSpec(architecture, data.inputs.shape[1:], 10, **model))
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


def assert_gss_decisions(admitted, data=None, **model):
    data = synth_images(10, 60, side=12, seed=0) if data is None else data
    decisions, buffer = gss_on_a_filling_buffer(data, **model)
    # 200 candidates; the rejections and the evictions past slot 120 both happen
    assert len(decisions) == 200 and sum(decisions) == admitted
    assert len(buffer) == buffer.capacity


@pytest.mark.parametrize("activation, hidden, admitted",
                         [("tanh", (32,), 170), ("relu", (16, 8), 172)])
def test_gss_decisions_on_a_filling_buffer(activation, hidden, admitted):
    assert_gss_decisions(admitted, architecture="mlp", hidden=hidden, activation=activation)


@pytest.mark.parametrize("activation, admitted", [("tanh", 178), ("relu", 174)])
def test_cnn2d_gss_decisions_on_a_filling_buffer(activation, admitted):
    assert_gss_decisions(admitted, architecture="cnn2d", activation=activation)


def test_lstm_gss_decisions_on_a_filling_buffer():
    assert_gss_decisions(167, synth_sequences(10, 60, steps=8, features=6, seed=0),
                         architecture="lstm", hidden_size=8)


# 2 stages x 2 epochs over 40 training rows in batches of 13, 13, 13 and 1,
# with up to 3 candidates from each batch: 2 * 2 * (3 + 3 + 3 + 1)
GSS_RUN_CANDIDATES = 40


def gss_run(buffer, forced=False):
    """A GSS run of GSS_RUN_CANDIDATES candidates into ``buffer``; returns its log
    and its number of ``Model.example_gradients`` calls. ``forced`` scores every
    candidate, as a run that can fill its buffer does."""
    stream = make_stream()
    calls, gradients, admit = [], Model.example_gradients, strategies.gss_admit
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Model, "example_gradients",
                      lambda *args: calls.append(1) or gradients(*args))
        if forced:
            patch.setattr(strategies, "gss_admit", lambda *args: admit(*args[:5]))
        log = train_replay(make_model(stream), stream, OptConfig(batch_size=13, epochs=2),
                           buffer, seed=0)
    return log, len(calls)


def assert_same_runs(log, buffer, forced_log, forced_buffer):
    assert log.to_json() == forced_log.to_json()   # accuracy and losses
    for a, b in zip(log.snapshots, forced_log.snapshots, strict=True):
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
    rows = len(buffer)
    assert rows == len(forced_buffer)
    np.testing.assert_array_equal(buffer._inputs[:rows], forced_buffer._inputs[:rows])
    np.testing.assert_array_equal(buffer.labels, forced_buffer.labels)


def test_a_gss_run_that_cannot_fill_its_buffer_scores_no_candidate():
    buffer, forced_buffer = (ReplayBuffer(GSS_RUN_CANDIDATES, policy="gss_greedy",
                                          gss_candidates=3) for _ in range(2))
    log, calls = gss_run(buffer)
    forced_log, forced_calls = gss_run(forced_buffer, forced=True)
    assert (calls, forced_calls) == (0, GSS_RUN_CANDIDATES - 1)
    assert len(buffer) == GSS_RUN_CANDIDATES
    assert_same_runs(log, buffer, forced_log, forced_buffer)
    # the first entry's score needs no gradient; every later one is unscored
    assert buffer._scores[0] == 0.0 and np.isnan(buffer._scores[1:]).all()


def test_a_gss_run_that_can_fill_its_buffer_scores_every_candidate():
    buffer, forced_buffer = (ReplayBuffer(GSS_RUN_CANDIDATES - 1, policy="gss_greedy",
                                          gss_candidates=3) for _ in range(2))
    log, calls = gss_run(buffer)
    forced_log, forced_calls = gss_run(forced_buffer, forced=True)
    assert calls == forced_calls == GSS_RUN_CANDIDATES - 1
    assert len(buffer) == buffer.capacity
    assert_same_runs(log, buffer, forced_log, forced_buffer)
    np.testing.assert_array_equal(buffer._scores, forced_buffer._scores)
    assert not np.isnan(buffer._scores).any()


def test_a_gss_buffer_with_unscored_entries_cannot_go_into_a_run_that_may_evict():
    buffer = ReplayBuffer(2 * GSS_RUN_CANDIDATES, policy="gss_greedy", gss_candidates=3)
    assert gss_run(buffer)[1] == 0
    assert gss_run(buffer)[1] == 0         # 40 held + 40 candidates still fit
    assert len(buffer) == buffer.capacity
    with pytest.raises(ValueError, match="^a gss run can fill this buffer and evict, "
                                         "but 79 of its entries were never scored$"):
        gss_run(buffer)


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


def test_er_started_from_a_naive_first_stage_equals_er_alone():
    stream = make_stream(classes=6, per_class=12, per_experience=2)
    opt = OptConfig(epochs=2, batch_size=16)
    naive = train_naive(make_model(stream), stream, opt, seed=4)
    alone, shared = ReplayBuffer(12), ReplayBuffer(12)
    er = train_replay(make_model(stream), stream, opt, alone, seed=4)
    model = make_model(stream, seed=9)   # weights the shared stage replaces
    er_shared = train_replay(model, stream, opt, shared, seed=4, first=naive)
    assert er_shared.to_json() == er.to_json()
    for a, b in zip(er.snapshots, er_shared.snapshots):
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
    # the refill after the shared stage drew what it draws after training
    np.testing.assert_array_equal(shared.labels, alone.labels)
    np.testing.assert_array_equal(shared._inputs, alone._inputs)


def test_only_naive_and_er_share_a_first_stage():
    # only an ER run starts from a first stage, and only from a naive one
    stream = make_stream()
    opt = OptConfig(epochs=1)
    naive = train_naive(make_model(stream), stream, opt, seed=0)
    with pytest.raises(ValueError, match="not strategy 'gss' from a 'naive' log"):
        train_replay(make_model(stream), stream, opt, ReplayBuffer(8, policy="gss_greedy"),
                     first=naive)
    for policy in ("gss_greedy", "class_balanced"):
        buffer = ReplayBuffer(8, policy=policy)
        log = train_replay(make_model(stream), stream, opt, buffer)
        with pytest.raises(ValueError, match=f"not strategy 'er' from a '{log.strategy}' log"):
            train_replay(make_model(stream), stream, opt, ReplayBuffer(8), first=log)
    with pytest.raises(ValueError, match="only an ER run with an empty buffer"):
        train_replay(make_model(stream), stream, opt, buffer, first=naive)


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


def test_trainlog_json_that_fails_to_render_leaves_the_old_file(tmp_path):
    stream = make_stream()
    log = train_naive(make_model(stream), stream, OptConfig(epochs=1), seed=0)
    path = tmp_path / "log.json"
    log.save_json(path)
    before = path.read_bytes()
    log.final_losses.append(object())  # not JSON-serializable
    with pytest.raises(TypeError):
        log.save_json(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["log.json"]
