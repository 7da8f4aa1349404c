"""Training strategies for class-incremental streams.

Naive fine-tuning, experience replay with a class-balanced buffer,
gradient-similarity (GSS-greedy) replay, and a jointly trained reference.
All strategies share one SGD loop so that differences between them are the
memory policy and nothing else.

Naive and ER run the same first stage bit for bit: ER's class-balanced
buffer stays empty until the refill that ends the stage, so both start from
the same weights, draw the same batch orders and take the same steps. An ER
run can therefore start from a naive run's first stage (``first=``). GSS
cannot: it admits and replays from its first batch.
"""

from __future__ import annotations

import json
import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .data import ExperienceStream, LabeledDataset, require_count, require_real, write_atomically
from .models import Model
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
        require_real("lr", self.lr)
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr!r}")
        require_count("batch_size", self.batch_size)
        require_count("epochs", self.epochs)


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
    ``Model.example_gradients`` call per candidate (see ``gss_admit``); an
    unscored entry (``scored=False``) holds NaN.
    """

    def __init__(self, capacity: int, policy: str = "class_balanced",
                 gss_n_sim: int = 10, gss_tau: float = 0.95, gss_candidates: int = 2):
        if policy not in ("class_balanced", "gss_greedy"):
            raise ValueError(f"unknown buffer policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self.gss_n_sim = gss_n_sim
        self.gss_tau = gss_tau
        self.gss_candidates = gss_candidates
        for name, lowest in (("capacity", 1), ("gss_n_sim", 1), ("gss_candidates", 0)):
            require_count(name, getattr(self, name), lowest)
        require_real("gss_tau", gss_tau)
        # entries are rows [0, _n); _inputs and (GSS only) _scores appear at the first store
        self._inputs = self._scores = None
        self._labels, self._n = np.empty(0, dtype=np.int64), 0

    def __len__(self) -> int:
        return self._n

    @property
    def labels(self) -> np.ndarray:
        return self._labels[:self._n].copy()

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
        return self._inputs[idx], self._labels[idx]

    def rebalance(self, dataset: LabeledDataset, rng: np.random.Generator) -> None:
        """Experience-boundary refill for the class-balanced policy."""
        if self.policy != "class_balanced":
            raise RuntimeError(f"rebalance is undefined for policy {self.policy!r}")
        # each class's pool: its held rows, then its rows of the new experience
        held = self._inputs[:self._n] if self._n else dataset.inputs[:0]
        labels = np.concatenate([self.labels, dataset.labels])
        # not np.unique: its first call imports numpy.ma, 1.3 MB of resident memory
        classes = np.flatnonzero(np.bincount(labels))
        slots = self.capacity // len(classes)
        kept = []
        for class_id in classes:
            pool = np.flatnonzero(labels == class_id)
            keep = rng.choice(len(pool), size=min(slots, len(pool)), replace=False)
            kept.append(pool[np.sort(keep)])
        rows = np.concatenate(kept)
        # gathered straight from both sources: a joined copy would add to the peak RSS
        inputs = np.empty((len(rows),) + dataset.inputs.shape[1:])
        old = rows < len(held)
        inputs[old], inputs[~old] = held[rows[old]], dataset.inputs[rows[~old] - len(held)]
        self._inputs, self._labels, self._n = inputs, labels[rows], len(rows)
        self._check_capacity()

    def consider(self, x: np.ndarray, y: int, model: Model,
                 rng: np.random.Generator, scored: bool = True) -> bool:
        """Per-step GSS admission; returns whether the candidate was stored."""
        if self.policy != "gss_greedy":
            raise RuntimeError(f"consider is undefined for policy {self.policy!r}")
        admitted = gss_admit(self, x, y, model, rng, scored)
        self._check_capacity()
        return admitted


def _untouched_block(shape: tuple) -> np.ndarray:
    """float64 array on fresh pages that become resident only when written. A heap
    block would take over memory that freed training temporaries left resident."""
    return np.frombuffer(mmap.mmap(-1, 8 * int(np.prod(shape))), np.float64).reshape(shape)


def _similarities(grads: np.ndarray) -> np.ndarray:
    """Cosine similarity of row 0 of ``grads`` with each later row; 0.0 where
    either norm is zero. Each dot product is a (1, P) @ (P, 1) product, which
    gives the bits of ``a @ b`` on two vectors, and each norm is the sqrt of
    that self product, as in ``np.linalg.norm``; so every value equals the
    one-pair formula bit for bit."""
    dots = np.matmul(grads[1:, None, :], grads[0][:, None])[:, 0, 0]
    norms = np.sqrt(np.matmul(grads[:, None, :], grads[:, :, None])[:, 0, 0])
    denom = norms[0] * norms[1:]
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)


def gss_admit(buffer: ReplayBuffer, x: np.ndarray, y: int, model: Model,
              rng: np.random.Generator, scored: bool = True) -> bool:
    """Gradient-similarity admission.

    The candidate's score is its maximum cosine similarity against the
    gradients (at current weights) of up to ``gss_n_sim`` stored entries,
    all scored in one stacked product.
    The candidate's and the sampled entries' gradients come from one
    ``model.example_gradients`` call: one taped pass over all rows in the
    tape's per-example mode, for every architecture. A non-full buffer always
    admits; a full one admits only scores below ``gss_tau`` and evicts the
    stored entry with the highest score. Entries are written in place into
    (capacity, ...) arrays allocated at the first admission.

    ``scored=False`` is for a candidate that no eviction can read: the sample
    is still drawn, so that ``rng`` moves as it would, but no gradient is
    computed and the stored score is NaN.
    """
    n = len(buffer)
    if n == 0:
        score = 0.0
        buffer._inputs = _untouched_block((buffer.capacity,) + np.shape(x))
        buffer._labels = np.empty(buffer.capacity, dtype=np.int64)
        buffer._scores = np.empty(buffer.capacity)
    else:
        sample = rng.choice(n, size=min(buffer.gss_n_sim, n), replace=False)
        score = math.nan
        if scored:
            grads = model.example_gradients(
                np.concatenate([np.asarray(x)[None], buffer._inputs[sample]]),
                np.concatenate([[y], buffer._labels[sample]]))
            score = max(_similarities(grads).tolist())
    if n < buffer.capacity:
        slot, buffer._n = n, n + 1
    elif score < buffer.gss_tau:
        slot = int(np.argmax(buffer._scores))
    else:
        return False
    buffer._inputs[slot], buffer._labels[slot], buffer._scores[slot] = x, y, score
    return True


# -- the shared SGD loop and the strategies built on it ------------------------------------


@dataclass
class TrainLog:
    """Per-experience record of one training run.

    ``accuracy[i, j]`` is test accuracy on experience j after finishing the
    i-th training stage; ``snapshots`` holds the matching weight copies.
    """

    strategy: str
    experience_classes: list[tuple]
    accuracy: np.ndarray
    final_losses: list[float] = field(default_factory=list)
    snapshots: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "experience_classes": [list(c) for c in self.experience_classes],
            "final_losses": self.final_losses,
            "accuracy": self.accuracy.tolist(),
        }

    def save_json(self, path) -> None:
        write_atomically(path, json.dumps(self.to_json(), indent=2).encode("utf-8"))


def _train(model: Model, stream: ExperienceStream, opt: OptConfig, seed: int,
           strategy: str, buffer: ReplayBuffer | None = None,
           stages: list | None = None, first: TrainLog | None = None) -> TrainLog:
    """The SGD loop of every strategy, over ``stages``: (training set, its name in
    a ``TrainingDiverged`` message) pairs, one per experience by default.

    Stage i draws from ``SeedSequence([seed, i])``. A replay buffer extends each
    batch 1:1 with memory samples; a gss_greedy one then screens a few of the
    batch's rows, and a class_balanced one is refilled from the stage's set after
    its epochs. Each stage ends with a loss, a weight snapshot and an accuracy row.

    ``first`` is the log of a naive run on the same model spec, stream, ``opt``
    and ``seed``, given to an ER run with an empty buffer. Its first stage is
    this run's first stage, so that stage is not trained again: its loss,
    snapshot and accuracy row are copied, and the model loads the snapshot.
    The stage's generator still draws the epoch orders, the only draws of a
    stage with an empty buffer, so the ER refill draws what it would draw
    after training.

    Only an eviction reads a GSS score, and only a full buffer evicts. So when
    the buffer has room for every candidate the run will consider, no
    candidate is scored; and a buffer holding unscored entries cannot go into
    a run that may evict.
    """
    if first is not None and not (strategy == "er" and first.strategy == "naive"
                                  and len(buffer) == 0):
        raise ValueError(f"only an ER run with an empty buffer can start from a naive "
                         f"first stage, not strategy {strategy!r} from a {first.strategy!r} log")
    if stages is None:
        stages = [(exp.train, f"experience {e + 1} of {len(stream)}")
                  for e, exp in enumerate(stream.experiences)]
    gss = buffer is not None and buffer.policy == "gss_greedy"
    if gss:
        # per epoch, the first gss_candidates rows of each batch, as sliced below
        candidates = opt.epochs * sum(
            min(buffer.gss_candidates, opt.batch_size, len(train) - lo)
            for train, _ in stages for lo in range(0, len(train), opt.batch_size))
        scored = len(buffer) + candidates > buffer.capacity
        unscored = int(np.isnan(buffer._scores[:len(buffer)]).sum()) if len(buffer) else 0
        if scored and unscored:
            raise ValueError(f"a {strategy} run can fill this buffer and evict, but "
                             f"{unscored} of its entries were never scored")
    log = TrainLog(strategy, [exp.classes for exp in stream.experiences],
                   np.empty((len(stages), len(stream))))
    for i, (train, where) in enumerate(stages):
        shared = i == 0 and first is not None
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        for epoch in range(opt.epochs):
            order = rng.permutation(len(train))
            if shared:
                continue
            losses = []
            for lo in range(0, len(order), opt.batch_size):
                idx = order[lo:lo + opt.batch_size]
                bx, by = train.inputs[idx], train.labels[idx]
                if buffer is not None and len(buffer) > 0:
                    mx, my = buffer.sample(len(idx), rng)
                    bx, by = np.concatenate([bx, mx]), np.concatenate([by, my])
                loss = softmax_cross_entropy(model.forward(Tensor(bx)), by)
                value = float(loss.data)
                if not math.isfinite(value):
                    raise TrainingDiverged(f"loss became {value} during training ({strategy}, "
                                           f"{where}, epoch {epoch + 1} of {opt.epochs})")
                loss.backward()
                sgd_step(model, opt.lr)
                losses.append(value)
                if gss:
                    for j in idx[:buffer.gss_candidates]:
                        buffer.consider(train.inputs[j], int(train.labels[j]), model, rng,
                                        scored)
        # the last batch, its memory sample and its loss would otherwise stay
        # alive through the refill and add to its peak RSS
        bx = by = mx = my = idx = order = loss = None
        if shared:
            model.load_state_dict(first.snapshots[0])
        log.final_losses.append(first.final_losses[0] if shared else float(np.mean(losses)))
        if buffer is not None and buffer.policy == "class_balanced":
            buffer.rebalance(train, rng)
        log.snapshots.append(model.state_dict())
        log.accuracy[i] = (first.accuracy[0] if shared else
                           [evaluate(model, exp.test) for exp in stream.experiences])
    return log


def train_naive(model: Model, stream: ExperienceStream, opt: OptConfig,
                seed: int = 0) -> TrainLog:
    """Sequential fine-tuning with no memory: the forgetting baseline."""
    return _train(model, stream, opt, seed, "naive")


def train_replay(model: Model, stream: ExperienceStream, opt: OptConfig,
                 buffer: ReplayBuffer, seed: int = 0,
                 first: TrainLog | None = None) -> TrainLog:
    """Replay training; the buffer policy selects plain ER or GSS-greedy.
    ``first``: a naive log whose first stage an ER run takes (see ``_train``)."""
    strategy = "er" if buffer.policy == "class_balanced" else "gss"
    return _train(model, stream, opt, seed, strategy, buffer, first=first)


def train_joint(model: Model, stream: ExperienceStream, opt: OptConfig,
                seed: int = 0) -> TrainLog:
    """One pass over the union of all experiences: the drift-free reference.

    On a single-experience stream this is the same computation as
    train_naive, batch for batch.
    """
    union = LabeledDataset(np.concatenate([exp.train.inputs for exp in stream.experiences]),
                           np.concatenate([exp.train.labels for exp in stream.experiences]),
                           stream.num_classes)
    return _train(model, stream, opt, seed, "joint",
                  stages=[(union, f"all {len(stream)} experiences")])
