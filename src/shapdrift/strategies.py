"""Training strategies for class-incremental streams.

Naive fine-tuning, experience replay with a class-balanced buffer,
gradient-similarity (GSS-greedy) replay, and a jointly trained reference.
All strategies share one SGD loop so that differences between them are the
memory policy and nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .data import ExperienceStream, LabeledDataset
from .models import Model, require_numbers
from .tensor import Tensor, softmax_cross_entropy

STRATEGIES = ("naive", "er", "gss", "joint")


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass
class OptConfig:
    lr: float = 0.05
    batch_size: int = 64
    epochs: int = 4

    def __post_init__(self):
        require_numbers(self, lr=Real, batch_size=Integral, epochs=Integral)
        if not 0 < self.lr < np.inf:  # also rejects NaN
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


def sgd_step(model: Model, lr: float) -> None:
    """One vanilla SGD update over trainable parameters; clears gradients."""
    for p in model.trainable_parameters().values():
        if p.grad is not None:
            p.data -= lr * p.grad
            p.grad = None


def evaluate(model: Model, dataset: LabeledDataset) -> float:
    """Top-1 accuracy on a dataset."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    hits = int(np.sum(model.logits_np(dataset.inputs).argmax(axis=1) == dataset.labels))
    return hits / len(dataset)


# -- replay memory -----------------------------------------------------------------


class ReplayBuffer:
    """Bounded episodic memory.

    policy 'class_balanced': refilled at experience boundaries with
    capacity // classes_seen slots per class (the plain-replay memory).

    policy 'gss_greedy': filled one candidate at a time during training; a
    candidate is admitted to a full buffer only when the cosine similarity
    between its loss gradient and those of ``gss_n_sim`` randomly chosen
    stored entries stays below ``gss_tau``, in which case it replaces the
    stored entry with the highest recorded similarity score. Scoring is one
    ``Model.example_gradients`` call per candidate (see ``gss_admit``).
    """

    def __init__(self, capacity: int, policy: str = "class_balanced",
                 gss_n_sim: int = 10, gss_tau: float = 0.95, gss_candidates: int = 2):
        if capacity <= 0:
            raise ValueError(f"buffer capacity must be positive, got {capacity}")
        if policy not in ("class_balanced", "gss_greedy"):
            raise ValueError(f"unknown buffer policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self.gss_n_sim = gss_n_sim
        self.gss_tau = gss_tau
        self.gss_candidates = gss_candidates
        require_numbers(self, gss_n_sim=Integral, gss_tau=Real, gss_candidates=Integral)
        for name, low in (("gss_n_sim", 1), ("gss_candidates", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if np.isnan(self.gss_tau):
            raise ValueError("gss_tau must be a number, got nan")
        self._inputs: list[np.ndarray] = []
        self._labels: list[int] = []
        self._scores: list[float] = []

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> np.ndarray:
        return np.asarray(self._labels, dtype=np.int64)

    def _check_capacity(self) -> None:
        if len(self) > self.capacity:
            raise RuntimeError(
                f"buffer invariant broken: {len(self)} entries > capacity {self.capacity}"
            )

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """n stored pairs; drawn with replacement only when n exceeds the fill."""
        if len(self) == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.choice(len(self), size=n, replace=n > len(self))
        inputs = np.stack([self._inputs[i] for i in idx])
        labels = np.asarray([self._labels[i] for i in idx], dtype=np.int64)
        return inputs, labels

    def rebalance(self, dataset: LabeledDataset, rng: np.random.Generator) -> None:
        """Experience-boundary refill for the class-balanced policy."""
        if self.policy != "class_balanced":
            raise RuntimeError(f"rebalance is undefined for policy {self.policy!r}")
        pools: dict[int, list[np.ndarray]] = {}
        for x, y in zip(self._inputs, self._labels):
            pools.setdefault(int(y), []).append(x)
        for class_id in np.unique(dataset.labels):
            pools.setdefault(int(class_id), []).extend(
                dataset.inputs[dataset.class_indices(int(class_id))]
            )
        slots = self.capacity // len(pools)
        self._inputs, self._labels = [], []
        for class_id in sorted(pools):
            pool = pools[class_id]
            keep = rng.choice(len(pool), size=min(slots, len(pool)), replace=False)
            for i in sorted(keep):
                self._inputs.append(np.array(pool[i]))
                self._labels.append(class_id)
        self._check_capacity()

    def consider(self, x: np.ndarray, y: int, model: Model,
                 rng: np.random.Generator) -> bool:
        """Per-step GSS admission; returns whether the candidate was stored."""
        if self.policy != "gss_greedy":
            raise RuntimeError(f"consider is undefined for policy {self.policy!r}")
        admitted = gss_admit(self, x, y, model, rng)
        self._check_capacity()
        return admitted


def _cosine(a: np.ndarray, norm_a: float, b: np.ndarray) -> float:
    denom = norm_a * np.linalg.norm(b)
    return float(a @ b / denom) if denom > 0 else 0.0


def gss_admit(buffer: ReplayBuffer, x: np.ndarray, y: int, model: Model,
              rng: np.random.Generator) -> bool:
    """Gradient-similarity admission.

    The candidate's score is its maximum cosine similarity against the
    gradients (at current weights) of up to ``gss_n_sim`` stored entries.
    The candidate's and the sampled entries' gradients come from one
    ``model.example_gradients`` call: one batched pass for an MLP, one
    batch-1 pass per row for the other architectures. A non-full buffer
    always admits; a full one admits only scores below ``gss_tau`` and
    evicts the stored entry with the highest score.
    """
    if len(buffer) == 0:
        score = 0.0
    else:
        sample = rng.choice(len(buffer), size=min(buffer.gss_n_sim, len(buffer)),
                            replace=False)
        grads = model.example_gradients(
            np.stack([x] + [buffer._inputs[i] for i in sample]),
            np.asarray([y] + [buffer._labels[i] for i in sample], dtype=np.int64))
        norm_c = np.linalg.norm(grads[0])
        score = max(_cosine(grads[0], norm_c, g) for g in grads[1:])
    if len(buffer) < buffer.capacity:
        buffer._inputs.append(np.array(x))
        buffer._labels.append(int(y))
        buffer._scores.append(score)
        return True
    if score < buffer.gss_tau:
        victim = int(np.argmax(buffer._scores))
        buffer._inputs[victim] = np.array(x)
        buffer._labels[victim] = int(y)
        buffer._scores[victim] = score
        return True
    return False


# -- the shared SGD loop and the strategies built on it ------------------------------------


def _run_epochs(model: Model, inputs: np.ndarray, labels: np.ndarray,
                opt: OptConfig, rng: np.random.Generator, stage: str,
                replay: ReplayBuffer | None = None) -> float:
    """Mini-batch SGD for opt.epochs passes; returns the last epoch's mean loss.

    With a replay buffer attached, every batch is extended 1:1 with memory
    samples, and a gss_greedy buffer additionally screens a few candidates
    from each fresh batch after the step. ``stage`` names the strategy and
    experience in the ``TrainingDiverged`` message.
    """
    final_loss = float("nan")
    for epoch in range(opt.epochs):
        order = rng.permutation(len(inputs))
        losses = []
        for lo in range(0, len(order), opt.batch_size):
            idx = order[lo:lo + opt.batch_size]
            bx, by = inputs[idx], labels[idx]
            if replay is not None and len(replay) > 0:
                mx, my = replay.sample(len(idx), rng)
                bx = np.concatenate([bx, mx])
                by = np.concatenate([by, my])
            loss = softmax_cross_entropy(model.forward(Tensor(bx)), by)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDiverged(f"loss became {value} during training "
                                       f"({stage}, epoch {epoch + 1} of {opt.epochs})")
            loss.backward()
            sgd_step(model, opt.lr)
            losses.append(value)
            if replay is not None and replay.policy == "gss_greedy":
                for i in idx[:replay.gss_candidates]:
                    replay.consider(inputs[i], int(labels[i]), model, rng)
        final_loss = float(np.mean(losses))
    return final_loss


@dataclass
class TrainLog:
    """Per-experience record of one training run.

    ``accuracy[i, j]`` is test accuracy on experience j after finishing the
    i-th training stage; ``snapshots`` holds the matching weight copies.
    """

    strategy: str
    experience_classes: list[tuple]
    final_losses: list[float] = field(default_factory=list)
    accuracy: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    snapshots: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "experience_classes": [list(c) for c in self.experience_classes],
            "final_losses": self.final_losses,
            "accuracy": self.accuracy.tolist(),
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)


def _snapshot(model: Model, log: TrainLog, stream: ExperienceStream) -> None:
    log.snapshots.append(model.state_dict())
    row = [evaluate(model, exp.test) for exp in stream.experiences]
    log.accuracy = np.vstack([log.accuracy.reshape(-1, len(stream)), [row]])


def train_naive(model: Model, stream: ExperienceStream, opt: OptConfig,
                seed: int = 0) -> TrainLog:
    """Sequential fine-tuning with no memory: the forgetting baseline."""
    log = TrainLog("naive", [exp.classes for exp in stream.experiences])
    for e, exp in enumerate(stream.experiences):
        rng = np.random.default_rng(np.random.SeedSequence([seed, e]))
        log.final_losses.append(_run_epochs(
            model, exp.train.inputs, exp.train.labels, opt, rng,
            f"naive, experience {e + 1} of {len(stream)}"))
        _snapshot(model, log, stream)
    return log


def train_replay(model: Model, stream: ExperienceStream, opt: OptConfig,
                 buffer: ReplayBuffer, seed: int = 0) -> TrainLog:
    """Replay training; the buffer policy selects plain ER or GSS-greedy."""
    strategy = "er" if buffer.policy == "class_balanced" else "gss"
    log = TrainLog(strategy, [exp.classes for exp in stream.experiences])
    for e, exp in enumerate(stream.experiences):
        rng = np.random.default_rng(np.random.SeedSequence([seed, e]))
        log.final_losses.append(_run_epochs(
            model, exp.train.inputs, exp.train.labels, opt, rng,
            f"{strategy}, experience {e + 1} of {len(stream)}", replay=buffer))
        if buffer.policy == "class_balanced":
            buffer.rebalance(exp.train, rng)
        _snapshot(model, log, stream)
    return log


def train_joint(model: Model, stream: ExperienceStream, opt: OptConfig,
                seed: int = 0) -> TrainLog:
    """One pass over the union of all experiences: the drift-free reference.

    On a single-experience stream this is the same computation as
    train_naive, batch for batch.
    """
    log = TrainLog("joint", [exp.classes for exp in stream.experiences])
    inputs = np.concatenate([exp.train.inputs for exp in stream.experiences])
    labels = np.concatenate([exp.train.labels for exp in stream.experiences])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    log.final_losses.append(_run_epochs(model, inputs, labels, opt, rng,
                                        f"joint, all {len(stream)} experiences"))
    _snapshot(model, log, stream)
    return log
