"""Dataset ingestion, synthesis, and class-incremental stream construction.

Images are (N, 1, H, W) in [0, 1]; sequences are (N, T, F). Streams split
each class into train/test at a fixed 5:1 ratio and partition classes into
experiences with pairwise-disjoint class sets.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

TRAIN_FRACTION = 5 / 6  # synthetic/stream splits mirror MNIST proportions


class IdxFormatError(ValueError):
    """Raised for malformed IDX files."""


@dataclass
class LabeledDataset:
    """Input batch plus integer class labels in [0, num_classes)."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.inputs) != len(self.labels):
            raise ValueError(
                f"inputs count {len(self.inputs)} != labels count {len(self.labels)}"
            )
        if len(self.labels) and self.labels.max() >= self.num_classes:
            raise ValueError(
                f"label {self.labels.max()} out of range for {self.num_classes} classes"
            )
        if len(self.labels) and self.labels.min() < 0:
            raise ValueError("negative labels are not allowed")

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, indices) -> "LabeledDataset":
        return LabeledDataset(self.inputs[indices], self.labels[indices], self.num_classes)

    def class_indices(self, class_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == class_id)


@dataclass
class Experience:
    train: LabeledDataset
    test: LabeledDataset
    classes: tuple[int, ...]


@dataclass
class ExperienceStream:
    """Ordered experiences with pairwise-disjoint class sets covering all classes."""

    experiences: list[Experience]
    num_classes: int

    def __post_init__(self):
        seen: set[int] = set()
        for i, exp in enumerate(self.experiences):
            overlap = seen & set(exp.classes)
            if overlap:
                raise ValueError(f"experience {i} reuses classes {sorted(overlap)}")
            seen |= set(exp.classes)
        if seen != set(range(self.num_classes)):
            raise ValueError(
                f"experience classes {sorted(seen)} do not cover [0, {self.num_classes})"
            )

    def __len__(self) -> int:
        return len(self.experiences)


@dataclass
class EvaluationSlice:
    """Background pool for SHAP baselines and the fixed probe set tracked over time."""

    background: LabeledDataset
    probes: LabeledDataset


# -- file writing -------------------------------------------------------------


def write_atomically(path, payload: bytes) -> None:
    """Replace ``path`` by a file holding ``payload``: written to a sibling
    temporary file, then renamed over ``path``, so a reader finds the old file
    or the new one and never a partial one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# -- IDX ingestion -------------------------------------------------------------


def _read_idx(path: Path, magic: int, kind: str) -> np.ndarray:
    """The u8 array of one IDX file: a big-endian u32 magic whose low byte is
    the axis count, one u32 extent per axis, then the payload in C order."""
    blob = path.read_bytes()
    need = 4 * (1 + (magic & 0xFF))
    if len(blob) < need:
        raise IdxFormatError(f"{path}: truncated header, {len(blob)} bytes")
    found, *extents = struct.unpack(f">{need // 4}I", blob[:need])
    if found != magic:
        raise IdxFormatError(
            f"{path}: wrong magic for {kind}: got 0x{found:08x}, expected 0x{magic:08x}")
    payload = blob[need:]
    expected = math.prod(extents)  # exact: np.prod would wrap in int64
    if len(payload) != expected:
        raise IdxFormatError(f"{path}: truncated {kind} payload: header declares "
                             f"{expected} bytes, found {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(extents)


def load_idx(images, labels) -> LabeledDataset:
    """Load an IDX image/label file pair (big-endian, MNIST layout).

    Pixels are scaled to [0, 1] and shaped (N, 1, H, W).
    """
    images, labels = Path(images), Path(labels)
    pixels = _read_idx(images, IDX_IMAGES_MAGIC, "images")
    targets = _read_idx(labels, IDX_LABELS_MAGIC, "labels")
    if len(pixels) != len(targets):
        raise IdxFormatError(f"image count {len(pixels)} ({images}) != "
                             f"label count {len(targets)} ({labels})")
    if len(pixels) == 0:
        raise IdxFormatError(f"{images}: holds no images")
    return LabeledDataset(pixels[:, None] / 255.0, targets, int(targets.max()) + 1)


# -- sequence container ---------------------------------------------------------
#
# Binary layout, little-endian: u32 count, u32 steps, u32 features, then
# count*steps*features f64 values (C order), then count u32 labels.


def save_sequences(path, dataset: LabeledDataset) -> None:
    inputs = np.ascontiguousarray(dataset.inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ValueError(f"sequence container expects (N, T, F) inputs, got {inputs.shape}")
    write_atomically(path, struct.pack("<3I", *inputs.shape) + inputs.tobytes()
                     + np.asarray(dataset.labels, dtype="<u4").tobytes())


def load_sequences(path) -> LabeledDataset:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 12:
        raise ValueError(f"{path}: truncated sequence header, {len(blob)} bytes")
    count, steps, features = struct.unpack("<3I", blob[:12])
    values_bytes = count * steps * features * 8
    expected = 12 + values_bytes + count * 4
    if len(blob) != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes for {count} sequences of "
            f"{steps}x{features}, found {len(blob)}"
        )
    if count == 0:
        raise ValueError(f"{path}: holds no sequences")
    inputs = np.frombuffer(blob[12:12 + values_bytes], dtype="<f8").reshape(count, steps, features)
    if not np.isfinite(inputs).all():
        raise ValueError(f"{path}: holds non-finite values")
    labels = np.frombuffer(blob[12 + values_bytes:], dtype="<u4").astype(np.int64)
    return LabeledDataset(inputs.copy(), labels, int(labels.max()) + 1)


# -- synthetic generators --------------------------------------------------------


def synth_images(classes: int, per_class: int, side: int = 14, seed: int = 0) -> LabeledDataset:
    """Gaussian-blob images: one blob position/orientation per class, plus noise.

    Deterministic for a fixed seed. Blob centers sit on a small circle and the
    blob axis rotates with the class: class means stay linearly separable, but
    the wide blobs overlap heavily in pixel support, so sequentially training
    on later classes interferes with the features of earlier ones.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, classes, per_class, side]))
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    center = (side - 1) / 2.0
    radius = side / 6.0

    images = np.zeros((classes * per_class, 1, side, side))
    labels = np.repeat(np.arange(classes), per_class)
    sigma_long, sigma_short = side / 3.0, side / 7.0
    for c in range(classes):
        theta = 2.0 * np.pi * c / classes
        cx = center + radius * np.cos(theta)
        cy = center + radius * np.sin(theta)
        phi = np.pi * c / classes
        ca, sa = np.cos(phi), np.sin(phi)
        for j in range(per_class):
            jx = cx + rng.normal(0.0, side / 40.0)
            jy = cy + rng.normal(0.0, side / 40.0)
            u = (xx - jx) * ca + (yy - jy) * sa
            v = -(xx - jx) * sa + (yy - jy) * ca
            amp = rng.uniform(0.8, 1.0)
            blob = amp * np.exp(-(u**2 / (2 * sigma_long**2) + v**2 / (2 * sigma_short**2)))
            noisy = blob + rng.normal(0.0, 0.04, size=(side, side))
            images[c * per_class + j, 0] = np.clip(noisy, 0.0, 1.0)
    return LabeledDataset(images, labels, classes)


def synth_sequences(
    classes: int,
    per_class: int,
    steps: int = 101,
    features: int = 40,
    seed: int = 0,
) -> LabeledDataset:
    """Band-limited spectro-temporal patterns: one frequency band per class.

    Each class occupies a distinct feature band with a class-specific chirp
    slope and temporal modulation rate, plus noise. Shape (N, steps, features).
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, classes, per_class, steps, features]))
    t = np.arange(steps, dtype=np.float64)[:, None] / max(steps - 1, 1)
    f = np.arange(features, dtype=np.float64)[None, :]
    width = features / (2.5 * classes)

    inputs = np.zeros((classes * per_class, steps, features))
    labels = np.repeat(np.arange(classes), per_class)
    for c in range(classes):
        band = (c + 0.5) * features / classes
        chirp = ((c % 3) - 1) * features / (4.0 * classes)
        rate = 1.0 + (c % 4)
        for j in range(per_class):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            envelope = 0.7 + 0.3 * np.sin(2.0 * np.pi * rate * t + phase)
            center_f = band + chirp * (t - 0.5) + rng.normal(0.0, width / 4.0)
            pattern = envelope * np.exp(-((f - center_f) ** 2) / (2.0 * width**2))
            noisy = pattern + rng.normal(0.0, 0.08, size=(steps, features))
            inputs[c * per_class + j] = np.clip(noisy, 0.0, None)
    return LabeledDataset(inputs, labels, classes)


# -- stream and slice construction -----------------------------------------------


def require_count(name: str, value, lowest: int = 1) -> None:
    """Check that ``value`` is an integer >= ``lowest``; the error names ``name``:
    TypeError for another type (bool included), ValueError for a smaller value."""
    message = f"{name} must be an integer >= {lowest}, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(message)
    if value < lowest:
        raise ValueError(message)


def require_real(name: str, value) -> None:
    """Check that ``value`` is a finite real number; errors as in require_count."""
    message = f"{name} must be a finite real number, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(message)
    if not -math.inf < value < math.inf:  # also rejects NaN; takes any int
        raise ValueError(message)


def build_stream(
    data: LabeledDataset,
    experiences: int,
    class_order: Optional[Sequence[int]] = None,
) -> ExperienceStream:
    """Partition classes into experiences and stratify each class train/test 5:1.

    Experience i holds classes class_order[i*k .. (i+1)*k) where
    k = num_classes / experiences. The per-class split is deterministic
    (first 5/6 of each class's examples in dataset order go to train). Every
    class needs examples and every experience a nonempty train and test split.
    """
    require_count("experiences", experiences)
    c = data.num_classes
    # not np.unique: its first call imports numpy.ma, 1.3 MB of resident memory
    missing = c - len(set(data.labels.tolist()))
    if missing:
        raise ValueError(f"{missing} of {c} classes have no examples")
    if c % experiences != 0:
        raise ValueError(f"{c} classes not divisible into {experiences} experiences")
    if class_order is None:
        class_order = list(range(c))
    if not isinstance(class_order, (list, tuple)):
        raise TypeError(f"class_order must be a list of integers, got {class_order!r}")
    for i, cls in enumerate(class_order):
        require_count(f"class_order[{i}]", cls, lowest=0)
    if sorted(class_order) != list(range(c)):
        raise ValueError(f"class_order {class_order} is not a permutation of [0, {c})")

    per_exp = c // experiences
    out: list[Experience] = []
    for i in range(experiences):
        exp_classes = tuple(int(x) for x in class_order[i * per_exp:(i + 1) * per_exp])
        train_idx: list[np.ndarray] = []
        test_idx: list[np.ndarray] = []
        for cls in exp_classes:
            idx = data.class_indices(cls)
            cut = int(round(len(idx) * TRAIN_FRACTION))
            train_idx.append(idx[:cut])
            test_idx.append(idx[cut:])
        train, test = np.concatenate(train_idx), np.concatenate(test_idx)
        if len(train) == 0 or len(test) == 0:
            raise ValueError(f"experience {i + 1} of {experiences} (classes {exp_classes}) "
                             f"has an empty {'test' if len(train) else 'train'} split")
        out.append(Experience(data.take(train), data.take(test), exp_classes))
    return ExperienceStream(out, c)


def make_slice(
    stream: ExperienceStream,
    background_n: int,
    probes_per_class: int,
    seed: int = 0,
) -> EvaluationSlice:
    """Sample the SHAP background from e1's train split and probes from e1's test split.

    Background is drawn without replacement; probes are stratified per class.
    Deterministic per seed.
    """
    require_count("background_n", background_n)
    require_count("probes_per_class", probes_per_class)
    first = stream.experiences[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, background_n, probes_per_class]))

    if background_n > len(first.train):
        raise ValueError(
            f"background_n={background_n} exceeds first experience train size {len(first.train)}"
        )
    bg_idx = rng.choice(len(first.train), size=background_n, replace=False)
    background = first.train.take(np.sort(bg_idx))

    probe_idx: list[np.ndarray] = []
    for cls in first.classes:
        idx = first.test.class_indices(cls)
        if probes_per_class > len(idx):
            raise ValueError(
                f"probes_per_class={probes_per_class} exceeds {len(idx)} test examples "
                f"of class {cls} in the first experience"
            )
        chosen = rng.choice(len(idx), size=probes_per_class, replace=False)
        probe_idx.append(idx[np.sort(chosen)])
    probes = first.test.take(np.concatenate(probe_idx))
    return EvaluationSlice(background=background, probes=probes)
