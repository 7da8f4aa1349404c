"""Explanation-drift metrics and the end-to-end evaluation protocol.

After each experience of each strategy, per-class attribution maps are
computed on a fixed probe set from the first experience and compared against
the maps of a jointly trained reference model:

  M       = (1/K) * (sum(S) - sum(J))^2          on positive-clamped maps
  M_pool  = (1/P) * sum_i (pool(S)_i - pool(J)_i)^2   on z-scored, clamped,
            4x4/stride-4 average-pooled maps (image inputs only)
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .data import EvaluationSlice, ExperienceStream, require_count, require_real, write_atomically
from .explainers import ShapConfig, explain_all_classes, per_example_config
from .models import ModelSpec, build_model
from .strategies import (
    STRATEGIES,
    OptConfig,
    ReplayBuffer,
    train_joint,
    train_naive,
    train_replay,
)
from .tensor import Tensor, avgpool2d, normalize_zscore, relu

POOL_KERNEL = 4
POOL_ORDERS = ("normalize_then_clamp", "clamp_then_normalize")
METRIC_CSV_HEADER = ["strategy", "experience", "class", "metric_name", "value",
                     "is_target_class"]
ACCURACY_CSV_HEADER = ["strategy", "experience_trained", "experience_evaluated",
                       "accuracy"]


# -- metrics ---------------------------------------------------------------------


# Each formula below scores a stack of map pairs at once: maps lie along the
# trailing axes and pairs along the leading ones, one value per pair. The
# single-pair metrics are the same formulas on a stack of one.


def _mass_drift(s: np.ndarray, j: np.ndarray) -> np.ndarray:
    """(1/K)(sum S - sum J)^2 for maps flattened along the last axis."""
    diff = s.sum(axis=-1) - j.sum(axis=-1)
    return diff * diff / s.shape[-1]


def _check_pool_order(order: str) -> None:
    if order not in POOL_ORDERS:
        raise ValueError(f"pool_order: unknown pool order {order!r}, "
                         f"expected one of {POOL_ORDERS}")


def _pooled(maps: np.ndarray, order: str) -> np.ndarray:
    """z-score each map over its trailing two axes, clamp at zero (``order``
    says which comes first), then average-pool."""
    _check_pool_order(order)
    x = Tensor(maps)
    if order == "normalize_then_clamp":
        x = relu(normalize_zscore(x))
    else:
        x = normalize_zscore(relu(x))
    return avgpool2d(x, POOL_KERNEL).data


def _pooled_drift(ps: np.ndarray, pj: np.ndarray) -> np.ndarray:
    """Mean squared difference over the pooled cells of each map pair."""
    return ((ps - pj) ** 2).mean(axis=(-2, -1))


def metric_m(s_map, j_map) -> float:
    """Mean squared difference of summed attribution mass: (1/K)(sum S - sum J)^2.

    Both maps must hold K values each; they are expected to be positive-clamped
    already (the metric itself is defined on any values and just uses sums).
    """
    s = np.asarray(s_map, dtype=np.float64)
    j = np.asarray(j_map, dtype=np.float64)
    if s.size != j.size:
        raise ValueError(f"map sizes differ: {s.size} != {j.size}")
    return float(_mass_drift(s.ravel(), j.ravel()))


def metric_m_pool(s_map, j_map, order: str = "normalize_then_clamp") -> float:
    """Spatial drift between two raw signed 2D maps.

    Each map is z-score normalized (zero mean, unit population variance),
    clamped at zero, average-pooled with a POOL_KERNEL-square window at stride
    POOL_KERNEL, and the pooled grids are compared by mean squared difference.
    ``order`` flips to clamping before normalization.
    """
    s = np.asarray(s_map, dtype=np.float64)
    j = np.asarray(j_map, dtype=np.float64)
    if s.ndim != 2 or j.ndim != 2:
        raise ValueError(f"maps must be 2D, got shapes {s.shape} and {j.shape}")
    if s.shape != j.shape:
        raise ValueError(f"map shapes differ: {s.shape} != {j.shape}")
    if min(s.shape) < POOL_KERNEL:
        raise ValueError(f"map extents {s.shape} smaller than pooling kernel {POOL_KERNEL}")
    return float(_pooled_drift(_pooled(s, order), _pooled(j, order)))


def _is_spatial(inputs: np.ndarray) -> bool:
    return (inputs.ndim == 4 and inputs.shape[1] == 1
            and min(inputs.shape[2:]) >= POOL_KERNEL)


def score_snapshot(maps, joint_maps, pool_order: str = "normalize_then_clamp") -> dict:
    """Each class's probe-mean drift of one snapshot's raw (classes, probes,
    *input shape) maps from the joint ones, as ``{metric: (classes,) array}``:
    "m" is ``metric_m`` on positive-clamped maps, and single-channel images add
    "m_pool", ``metric_m_pool`` under ``pool_order``. Each class's probes lie
    along one contiguous axis, so each mean sums as one over per-probe values.
    """
    _check_pool_order(pool_order)
    s = np.asarray(maps, dtype=np.float64)
    j = np.asarray(joint_maps, dtype=np.float64)
    if s.shape != j.shape:
        raise ValueError(f"map stack shapes differ: {s.shape} != {j.shape}")
    stack = s.shape[:2] + (-1,)
    scores = {"m": _mass_drift(np.maximum(s, 0.0).reshape(stack),
                               np.maximum(j, 0.0).reshape(stack)).mean(axis=-1)}
    if _is_spatial(s[0]):
        scores["m_pool"] = _pooled_drift(_pooled(s[:, :, 0], pool_order),
                                         _pooled(j[:, :, 0], pool_order)).mean(axis=-1)
    return scores


# -- report rows and CSV schema -----------------------------------------------------


def _write_csv(path, header: list, records) -> None:
    """Write ``header`` and then ``records`` in the one dialect of the report CSVs."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    write_atomically(path, text.getvalue().encode("utf-8"))


def _parse_field(name: str, text: str):
    """One report CSV field, converted by its column name."""
    if name in ("strategy", "metric_name"):
        return text
    if name in ("value", "accuracy"):
        value = float(text)
        require_real(name, value)  # a drift value or accuracy is finite
        return value
    if name == "is_target_class":
        if text.lower() not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text.lower() == "true"
    value = int(text)  # a class id, or an experience, which counts from 1
    require_count(name, value, lowest=0 if name == "class" else 1)
    return value


def _read_csv(path, header: list) -> list:
    """The records after the first line of a UTF-8 report CSV, which must be
    ``header``, each converted field by field; an empty file, a wrong header
    or a malformed record raises a ValueError that names the file, the line
    and (for a record) the field."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        reader = csv.reader(io.StringIO(raw.decode("utf-8"), newline=""))
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: not UTF-8 text: {exc.reason}") from None
    records = []
    found = next(reader, None)
    if found is None:
        raise ValueError(f"{path}, line 1: empty file, expected the CSV header {header}")
    if found != header:
        raise ValueError(f"{path}, line 1: unexpected CSV header {found}, expected {header}")
    for record in reader:
        where = f"{path}, line {reader.line_num}"
        if len(record) != len(header):
            raise ValueError(f"{where}: {len(record)} fields, expected {len(header)}")
        records.append([])
        for name, text in zip(header, record):
            try:
                records[-1].append(_parse_field(name, text))
            except ValueError as exc:
                raise ValueError(f"{where}, field {name}: {exc}") from None
    return records


@dataclass(frozen=True)
class MetricRow:
    strategy: str
    experience: int      # 1-based training-progress index
    class_id: int
    metric: str          # "m" | "m_pool"
    value: float
    is_target: bool      # class belongs to the first experience


@dataclass(frozen=True)
class AccuracyRow:
    strategy: str
    experience_trained: int
    experience_evaluated: int
    accuracy: float


@dataclass
class DriftReport:
    """Grid of drift values: every (strategy, experience, class, metric) cell.

    ``train_logs`` and ``saliency`` are in-memory extras for plotting and are
    not part of the CSV contract. ``saliency[strategy]`` pairs the first probes'
    inputs with their final maps, clamped at zero, as a (classes, probes, H, W) stack.
    """

    rows: list
    accuracy_rows: list
    num_classes: int
    num_experiences: int
    target_classes: tuple
    train_logs: dict = field(default_factory=dict, repr=False, compare=False)
    saliency: dict = field(default_factory=dict, repr=False, compare=False)

    def _distinct(self, attr: str) -> list:
        """Values of one row field, each once, in order of first appearance."""
        return list(dict.fromkeys(getattr(row, attr) for row in self.rows))

    def strategies(self) -> list:
        return self._distinct("strategy")

    def metrics(self) -> list:
        return self._distinct("metric")

    def to_csv(self, path) -> None:
        _write_csv(path, METRIC_CSV_HEADER, (
            [r.strategy, r.experience, r.class_id, r.metric, repr(float(r.value)),
             "true" if r.is_target else "false"] for r in self.rows))

    def accuracy_to_csv(self, path) -> None:
        _write_csv(path, ACCURACY_CSV_HEADER, (
            [r.strategy, r.experience_trained, r.experience_evaluated,
             repr(float(r.accuracy))] for r in self.accuracy_rows))

    @classmethod
    def from_csv(cls, path) -> "DriftReport":
        rows = [MetricRow(*record) for record in _read_csv(path, METRIC_CSV_HEADER)]
        if not rows:
            raise ValueError(f"no data rows in {path}")
        if not any(r.is_target for r in rows):
            raise ValueError(f"{path}: no row has is_target_class true")
        return cls(
            rows=rows,
            accuracy_rows=[],
            num_classes=max(r.class_id for r in rows) + 1,
            num_experiences=max(r.experience for r in rows),
            target_classes=tuple(sorted({r.class_id for r in rows if r.is_target})),
        )


def load_accuracy_csv(path) -> list:
    return [AccuracyRow(*record) for record in _read_csv(path, ACCURACY_CSV_HEADER)]


# -- protocol orchestration -----------------------------------------------------------


def check_settings(strategies, pool_order: str, saliency_probes: int) -> None:
    """Raise an error naming the first of run_protocol's own settings that it
    cannot run; run_protocol calls this before any training."""
    if not isinstance(strategies, (list, tuple)) or not strategies:
        raise ValueError(f"strategies: must be a nonempty list, got {strategies!r}")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ValueError(f"strategies: unknown strategies {unknown}, expected among {STRATEGIES}")
    if len(set(strategies)) != len(strategies):
        raise ValueError(f"strategies: duplicate names in {list(strategies)}")
    _check_pool_order(pool_order)
    require_count("saliency_probes", saliency_probes, lowest=0)


def _snapshot_maps(model, probes, background: np.ndarray,
                   shap: ShapConfig) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unclamped) per-class maps for every probe under one weight snapshot.

    Returns phi shaped (classes, probes, *input shape), so each class's probes
    are contiguous for scoring, and phi0 shaped (classes,).
    """
    seeds = [per_example_config(shap, p).seed for p in range(len(probes.inputs))]
    return explain_all_classes(model, probes.inputs, background, shap, seeds)


def _train_strategy(strategy: str, spec: ModelSpec, stream: ExperienceStream,
                    opt: OptConfig, train_seed: int, buffer: ReplayBuffer | None = None,
                    first=None):
    """A fresh model trained by ``strategy``; the replay strategies fill ``buffer``.
    ``first`` is the naive log whose first stage an ER run takes. A parameter
    that does not train must leave training bit for bit as it was built."""
    model = build_model(spec)
    frozen = {name: p.data.copy() for name, p in model.params.items() if not p.requires_grad}
    if strategy == "naive":
        log = train_naive(model, stream, opt, train_seed)
    elif strategy == "joint":
        log = train_joint(model, stream, opt, train_seed)
    else:
        log = train_replay(model, stream, opt, buffer, train_seed, first=first)
    for name, data in frozen.items():
        if not np.array_equal(model.params[name].data, data):
            raise RuntimeError(f"frozen parameter {name} changed during {strategy} training")
    return model, log


def run_protocol(
    stream: ExperienceStream,
    eval_slice: EvaluationSlice,
    model_spec: ModelSpec,
    strategies: list,
    *,
    opt: OptConfig | None = None,
    shap: ShapConfig | None = None,
    buffer_capacity: int = 2000,
    gss_n_sim: int = 10,
    gss_tau: float = 0.95,
    gss_candidates: int = 2,
    pool_order: str = "normalize_then_clamp",
    seed: int = 0,
    saliency_probes: int = 0,
) -> DriftReport:
    """Train every strategy plus the joint reference, attribute after each
    experience, and assemble the full drift grid.

    All randomness (weight init, batch order, estimator draws) derives from
    ``seed``; identical arguments reproduce the report bit for bit. Strategies
    are compared against joint maps computed once from the joint snapshot, so
    joint-vs-joint rows are exactly zero.

    Joint trains first, then the other strategies in ``STRATEGIES`` order; the
    report lists them in the caller's order. Each snapshot is scored by
    ``score_snapshot`` as soon as it is attributed. ER's first stage is naive's
    bit for bit (see ``strategies``), so when both run, ER starts from naive's
    log and takes its experience-1 scores. The report is the one each would
    give on its own.
    """
    check_settings(strategies, pool_order, saliency_probes)
    opt = opt or OptConfig()
    shap = shap or ShapConfig()

    # built before any training, so a bad buffer setting fails at once
    replay_settings = {"er": {}, "gss": {"policy": "gss_greedy", "gss_n_sim": gss_n_sim,
                                         "gss_tau": gss_tau, "gss_candidates": gss_candidates}}
    buffers = {s: ReplayBuffer(buffer_capacity, **replay_settings[s])
               for s in strategies if s in replay_settings}

    state = np.random.SeedSequence(seed).generate_state(3)
    model_seed, train_seed, shap_seed = (int(x) for x in state)
    spec = replace(model_spec, seed=model_seed)
    shap = replace(shap, seed=shap_seed)

    probes, background = eval_slice.probes, eval_slice.background.inputs
    num_classes, num_experiences = stream.num_classes, len(stream)
    target_classes = tuple(stream.experiences[0].classes)
    keep_saliency = saliency_probes > 0 and _is_spatial(probes.inputs)

    def saliency_of(maps):
        return (probes.inputs[:saliency_probes].copy(),
                np.maximum(maps[:, :saliency_probes, 0], 0.0)) if keep_saliency else None

    joint_model, joint_log = _train_strategy("joint", spec, stream, opt, train_seed)
    joint_maps = _snapshot_maps(joint_model, probes, background, shap)[0]
    # per strategy: its log, its scores after each experience, its final saliency stack
    logs, stacks = {"joint": joint_log}, {"joint": saliency_of(joint_maps)}
    scores = {"joint": [score_snapshot(joint_maps, joint_maps, pool_order)] * num_experiences}
    for strategy in (s for s in STRATEGIES if s in strategies and s != "joint"):
        # ER takes naive's first stage, experience-1 scores and, on a one-experience
        # stream, saliency; buffers are popped, so none outlives its training
        shared = strategy == "er" and "naive" in logs
        model, logs[strategy] = _train_strategy(strategy, spec, stream, opt, train_seed,
                                                buffers.pop(strategy, None),
                                                logs["naive"] if shared else None)
        scores[strategy] = scores["naive"][:1] if shared else []
        stacks[strategy] = stacks["naive"] if shared else None
        for e in range(len(scores[strategy]), num_experiences):
            model.load_state_dict(logs[strategy].snapshots[e])
            maps = _snapshot_maps(model, probes, background, shap)[0]
            scores[strategy].append(score_snapshot(maps, joint_maps, pool_order))
            if e == num_experiences - 1:
                stacks[strategy] = saliency_of(maps)

    rows, accuracy_rows = [], []
    for strategy in strategies:
        for e, values in enumerate(scores[strategy]):
            rows.extend(MetricRow(strategy, e + 1, c, metric, float(values[metric][c]),
                                  c in target_classes)
                        for c in range(num_classes) for metric in values)
        # a run's last stage ends the stream, so joint's one stage is experience N
        accuracy = logs[strategy].accuracy
        first_trained = num_experiences - len(accuracy) + 1
        accuracy_rows.extend(AccuracyRow(strategy, first_trained + i, j + 1, float(a))
                             for (i, j), a in np.ndenumerate(accuracy))
    return DriftReport(rows, accuracy_rows, num_classes, num_experiences, target_classes,
                       train_logs={s: logs[s] for s in strategies},
                       saliency={s: stacks[s] for s in strategies if stacks[s] is not None})


# -- aggregation ----------------------------------------------------------------------


@dataclass
class AggregateResult:
    """Per-strategy drift curves plus the target-class summary table.

    ``curves[strategy, metric]`` has shape (experiences, classes); row e is
    the drift curve over class index after training stage e+1.
    ``target_table[strategy, metric]`` is the per-experience mean over target
    classes, and ``final_target`` its value at the last experience.
    """

    curves: dict
    target_table: dict
    final_target: dict


def aggregate(report: DriftReport) -> AggregateResult:
    """The report's grids; a missing or repeated cell raises a ValueError naming it."""
    if not report.rows:
        raise ValueError("cannot aggregate an empty report")
    cells: dict = {}
    for row in report.rows:
        key = (row.strategy, row.metric, row.experience, row.class_id)
        if key in cells:
            raise ValueError(f"report repeats the {row.metric} value for strategy "
                             f"{row.strategy!r}, experience {row.experience}, "
                             f"class {row.class_id}")
        cells[key] = row.value
    n_exp, n_cls = report.num_experiences, report.num_classes
    curves: dict = {}
    for strategy in report.strategies():
        for metric in report.metrics():
            grid = np.empty((n_exp, n_cls))
            for e in range(1, n_exp + 1):
                for c in range(n_cls):
                    key = (strategy, metric, e, c)
                    if key not in cells:
                        raise ValueError(f"report incomplete: no {metric} value for strategy "
                                         f"{strategy!r}, experience {e}, class {c}")
                    grid[e - 1, c] = cells[key]
            curves[(strategy, metric)] = grid

    target = list(report.target_classes)
    target_table = {key: grid[:, target].mean(axis=1) for key, grid in curves.items()}
    final_target = {key: float(col[-1]) for key, col in target_table.items()}
    return AggregateResult(curves, target_table, final_target)
