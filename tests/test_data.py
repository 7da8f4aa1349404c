import dataclasses
import inspect
import os
import random
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from shapdrift import data as dt
from shapdrift.data import IdxFormatError
from shapdrift.explainers import ShapConfig
from shapdrift.models import ModelSpec
from shapdrift.strategies import OptConfig, ReplayBuffer


def write_idx_pair(tmp_path, images, labels, image_magic=dt.IDX_IMAGES_MAGIC,
                   label_magic=dt.IDX_LABELS_MAGIC, truncate_images=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, h, w = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    payload = struct.pack(">4I", image_magic, n, h, w) + images.tobytes()
    if truncate_images:
        payload = payload[:-truncate_images]
    img_path.write_bytes(payload)
    lab_path.write_bytes(struct.pack(">2I", label_magic, len(labels)) + labels.tobytes())
    return img_path, lab_path


def test_load_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 3, 3), dtype=np.uint8)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, labels)
    ds = dt.load_idx(img, lab)
    assert ds.inputs.shape == (5, 1, 3, 3)
    assert ds.inputs.max() <= 1.0 and ds.inputs.min() >= 0.0
    assert np.array_equal(ds.labels, labels)
    assert np.allclose(ds.inputs[2, 0], images[2] / 255.0)


def test_load_idx_wrong_magic_for_labels(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1],
                              label_magic=dt.IDX_IMAGES_MAGIC)
    with pytest.raises(IdxFormatError, match="wrong magic for labels"):
        dt.load_idx(img, lab)


def test_load_idx_wrong_magic_for_images(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1],
                              image_magic=0x12345678)
    with pytest.raises(IdxFormatError, match="wrong magic for images"):
        dt.load_idx(img, lab)


def test_load_idx_empty_file_is_truncation(tmp_path):
    img = tmp_path / "empty.idx"
    img.write_bytes(b"")
    lab = tmp_path / "labels.idx"
    lab.write_bytes(struct.pack(">2I", dt.IDX_LABELS_MAGIC, 0))
    with pytest.raises(IdxFormatError, match="truncated header"):
        dt.load_idx(img, lab)


def test_load_idx_truncated_payload(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 2],
                              truncate_images=5)
    with pytest.raises(IdxFormatError, match="truncated images payload"):
        dt.load_idx(img, lab)


def test_load_idx_count_mismatch(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(4, 2, 2), dtype=np.uint8)
    img, _ = write_idx_pair(tmp_path, images, [0, 1, 0, 1])
    lab = tmp_path / "short.idx"
    lab.write_bytes(struct.pack(">2I", dt.IDX_LABELS_MAGIC, 3) + bytes([0, 1, 0]))
    with pytest.raises(IdxFormatError, match="image count 4 .* label count 3"):
        dt.load_idx(img, lab)


def test_sequence_container_roundtrip(tmp_path):
    ds = dt.synth_sequences(3, 4, steps=7, features=5, seed=2)
    path = tmp_path / "seqs.bin"
    dt.save_sequences(path, ds)
    loaded = dt.load_sequences(path)
    assert np.array_equal(loaded.inputs, ds.inputs)
    assert np.array_equal(loaded.labels, ds.labels)


def test_sequence_container_rejects_short_file(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(struct.pack("<3I", 2, 3, 4) + b"\x00" * 10)
    with pytest.raises(ValueError, match="expected"):
        dt.load_sequences(path)


def child_env() -> dict:
    """The environment of a child interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(dt.__file__))
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


REWRITE_FOREVER = """
import sys
from shapdrift.data import write_atomically
payloads = [bytes([65]) * (8 << 20), bytes([66]) * (8 << 20)]
write_atomically(sys.argv[1], payloads[0])
print("ready", flush=True)
i = 0
while True:
    i ^= 1
    write_atomically(sys.argv[1], payloads[i])
"""


def test_write_atomically_survives_a_kill_mid_write(tmp_path):
    path = tmp_path / "artifact.bin"
    payloads = (b"A" * (8 << 20), b"B" * (8 << 20))
    for _ in range(3):
        proc = subprocess.Popen([sys.executable, "-c", REWRITE_FOREVER, str(path)],
                                env=child_env(), stdout=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"ready\n"
            time.sleep(random.uniform(0.0, 0.3))
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
        # a kill between write and rename may leave the writer's temporary sibling
        assert set(os.listdir(tmp_path)) <= {"artifact.bin", f".artifact.bin.{proc.pid}.tmp"}
        assert path.read_bytes() in payloads
        (tmp_path / f".artifact.bin.{proc.pid}.tmp").unlink(missing_ok=True)


# -- synthetic generators ---------------------------------------------------------


def test_synth_images_balanced_and_shaped():
    ds = dt.synth_images(10, 100, 14, seed=1)
    assert len(ds) == 1000
    assert ds.inputs.shape == (1000, 1, 14, 14)
    counts = np.bincount(ds.labels, minlength=10)
    assert np.array_equal(counts, np.full(10, 100))


def test_synth_images_deterministic():
    a = dt.synth_images(4, 10, 12, seed=9)
    b = dt.synth_images(4, 10, 12, seed=9)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    c = dt.synth_images(4, 10, 12, seed=10)
    assert not np.array_equal(a.inputs, c.inputs)


def test_synth_images_linearly_separable():
    # ridge-regression probe on one-hot targets must reach > 90% train accuracy
    ds = dt.synth_images(10, 60, 14, seed=3)
    x = ds.inputs.reshape(len(ds), -1)
    x = np.hstack([x, np.ones((len(ds), 1))])
    y = np.eye(10)[ds.labels]
    w = np.linalg.solve(x.T @ x + 1e-3 * np.eye(x.shape[1]), x.T @ y)
    acc = (np.argmax(x @ w, axis=1) == ds.labels).mean()
    assert acc > 0.9


def test_synth_sequences_default_shape():
    ds = dt.synth_sequences(2, 3, seed=0)
    assert ds.inputs.shape == (6, 101, 40)


def test_synth_sequences_empty():
    ds = dt.synth_sequences(3, 0, steps=5, features=4, seed=0)
    assert len(ds) == 0


def test_synth_sequences_deterministic():
    a = dt.synth_sequences(3, 5, steps=11, features=8, seed=4)
    b = dt.synth_sequences(3, 5, steps=11, features=8, seed=4)
    assert np.array_equal(a.inputs, b.inputs)


def test_synth_rejects_single_class():
    with pytest.raises(ValueError, match="at least 2"):
        dt.synth_images(1, 5)
    with pytest.raises(ValueError, match="at least 2"):
        dt.synth_sequences(1, 5)


# -- stream construction -----------------------------------------------------------


def test_build_stream_identity_order():
    ds = dt.synth_images(10, 30, 10, seed=5)
    stream = dt.build_stream(ds, 5)
    assert [set(e.classes) for e in stream.experiences] == [
        {0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}
    ]


def test_build_stream_singletons_and_reversed():
    ds = dt.synth_images(10, 12, 10, seed=5)
    singles = dt.build_stream(ds, 10)
    assert [e.classes for e in singles.experiences] == [(i,) for i in range(10)]
    rev = dt.build_stream(ds, 5, class_order=list(range(9, -1, -1)))
    assert rev.experiences[0].classes == (9, 8)
    assert rev.experiences[-1].classes == (1, 0)


def test_build_stream_divisibility():
    ds = dt.synth_images(10, 6, 10, seed=5)
    with pytest.raises(ValueError, match="not divisible"):
        dt.build_stream(ds, 3)


@pytest.mark.parametrize("experiences", [0, -1, "x", 2.0, True])
def test_build_stream_rejects_an_experience_count_that_is_no_positive_integer(experiences):
    ds = dt.synth_images(4, 6, 8, seed=5)
    # an integer below 1 is a ValueError; any other type (bool too) a TypeError
    error = ValueError if type(experiences) is int else TypeError
    with pytest.raises(error, match="experiences must be an integer >= 1"):
        dt.build_stream(ds, experiences)


def test_build_stream_rejects_classes_without_examples():
    ds = dt.synth_images(4, 6, 8, seed=5)
    with pytest.raises(ValueError, match="^2 of 6 classes have no examples$"):
        dt.build_stream(dt.LabeledDataset(ds.inputs, ds.labels, 6), 2)


HUGE_LABEL = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
import numpy as np
from shapdrift.data import LabeledDataset, build_stream
data = LabeledDataset(np.zeros((3, 2, 2)), np.array([0, 1, 2**32 - 2]), 2**32 - 1)
try:
    build_stream(data, 5)
except ValueError as exc:
    print(exc)
"""


def test_build_stream_rejects_a_huge_label_in_bounded_memory():
    # one label of 2**32 - 2 declares 4.29e9 classes, and a list of them would not fit
    # in the 1.5 GB address space the child process is limited to
    proc = subprocess.run([sys.executable, "-c", HUGE_LABEL], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4294967292 of 4294967295 classes have no examples\n"


def test_build_stream_names_an_experience_with_an_empty_split():
    ds = dt.synth_sequences(8, 12, steps=6, features=4, seed=0)
    inputs = np.concatenate([ds.inputs, ds.inputs[:2]])
    labels = np.concatenate([ds.labels, [8, 9]])  # classes 8 and 9: one example each
    with pytest.raises(ValueError, match=r"^experience 5 of 5 \(classes \(8, 9\)\) "
                                         r"has an empty test split$"):
        dt.build_stream(dt.LabeledDataset(inputs, labels, 10), 5)


def test_build_stream_split_ratio_and_purity():
    ds = dt.synth_images(4, 60, 10, seed=6)
    stream = dt.build_stream(ds, 2)
    for exp in stream.experiences:
        assert set(np.unique(exp.train.labels)) == set(exp.classes)
        assert set(np.unique(exp.test.labels)) == set(exp.classes)
        for cls in exp.classes:
            n_train = (exp.train.labels == cls).sum()
            n_test = (exp.test.labels == cls).sum()
            assert n_train == 50 and n_test == 10


def test_stream_disjoint_and_covering():
    ds = dt.synth_images(6, 18, 10, seed=8)
    stream = dt.build_stream(ds, 3)
    seen = set()
    for exp in stream.experiences:
        assert not (seen & set(exp.classes))
        seen |= set(exp.classes)
    assert seen == set(range(6))


# -- numeric settings -----------------------------------------------------------------

# every int and float setting of the settings objects, with a value just out of its
# range (None: every finite real number is in range)
OUT_OF_RANGE = {
    ModelSpec: {"num_classes": 1, "seed": -1, "conv_kernel": 0, "dense_width": 0,
                "conv1d_channels": 0, "conv1d_kernel": 0, "hidden_size": 0,
                "esn_leak": 0.0, "esn_spectral_radius": -0.5, "esn_input_scale": -0.5},
    ShapConfig: {"n_samples": 0, "seed": -1, "noise_std": -0.5},
    OptConfig: {"lr": 0.0, "batch_size": 0, "epochs": 0},
    ReplayBuffer: {"capacity": 0, "gss_n_sim": 0, "gss_tau": None, "gss_candidates": -1},
}
VALID = {ModelSpec: {"architecture": "mlp", "input_shape": (1, 4, 4), "num_classes": 3},
         ShapConfig: {}, OptConfig: {}, ReplayBuffer: {"capacity": 4}}


def numeric_settings(cls) -> dict:
    """Name -> annotation of each int or float field (or constructor parameter)."""
    if dataclasses.is_dataclass(cls):
        pairs = [(f.name, f.type) for f in dataclasses.fields(cls)]
    else:
        pairs = [(p.name, p.annotation) for p in inspect.signature(cls).parameters.values()]
    kinds = {name: getattr(kind, "__name__", kind) for name, kind in pairs}  # str or type
    return {name: kind for name, kind in kinds.items() if kind in ("int", "float")}


def test_every_numeric_setting_is_checked_by_name():
    for cls, out_of_range in OUT_OF_RANGE.items():
        settings = numeric_settings(cls)
        assert set(settings) == set(out_of_range), cls.__name__
        for name, kind in settings.items():
            bad = [(True, TypeError), ("1", TypeError)]
            if out_of_range[name] is not None:
                bad.append((out_of_range[name], ValueError))
            if kind == "float":
                bad += [(float("nan"), ValueError), (float("inf"), ValueError),
                        (-float("inf"), ValueError)]
            for value, error in bad:
                with pytest.raises(error) as info:
                    cls(**dict(VALID[cls], **{name: value}))
                message = str(info.value)
                assert name in message and repr(value) in message, (cls.__name__, message)


# -- evaluation slice ----------------------------------------------------------------


def test_make_slice_counts_and_purity():
    ds = dt.synth_images(10, 120, 10, seed=7)
    stream = dt.build_stream(ds, 5)
    sl = dt.make_slice(stream, background_n=100, probes_per_class=15, seed=0)
    assert len(sl.background) == 100
    assert len(sl.probes) == 30
    first_classes = set(stream.experiences[0].classes)
    assert set(np.unique(sl.probes.labels)) <= first_classes
    counts = {c: (sl.probes.labels == c).sum() for c in first_classes}
    assert all(v == 15 for v in counts.values())


def test_make_slice_single_probe_per_class():
    ds = dt.synth_images(4, 30, 10, seed=7)
    stream = dt.build_stream(ds, 2)
    sl = dt.make_slice(stream, background_n=10, probes_per_class=1, seed=1)
    assert len(sl.probes) == 2


def test_make_slice_deterministic():
    ds = dt.synth_images(4, 60, 10, seed=7)
    stream = dt.build_stream(ds, 2)
    a = dt.make_slice(stream, background_n=20, probes_per_class=3, seed=5)
    b = dt.make_slice(stream, background_n=20, probes_per_class=3, seed=5)
    assert np.array_equal(a.background.inputs, b.background.inputs)
    assert np.array_equal(a.probes.inputs, b.probes.inputs)


def test_make_slice_background_too_large():
    ds = dt.synth_images(4, 30, 10, seed=7)
    stream = dt.build_stream(ds, 2)
    with pytest.raises(ValueError, match="background_n=10000 exceeds"):
        dt.make_slice(stream, background_n=10_000, probes_per_class=1, seed=0)


def test_make_slice_probes_too_many():
    ds = dt.synth_images(4, 30, 10, seed=7)
    stream = dt.build_stream(ds, 2)
    with pytest.raises(ValueError, match="probes_per_class=99 exceeds"):
        dt.make_slice(stream, background_n=10, probes_per_class=99, seed=0)
