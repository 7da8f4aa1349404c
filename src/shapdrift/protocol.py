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
from dataclasses import dataclass, field, replace

import numpy as np

from .data import EvaluationSlice, ExperienceStream
from .explainers import (
    AttributionMap,
    ShapConfig,
    expected_gradients,
    explain_all_classes,
    per_example_config,
)
from .models import ModelSpec, build_model, reservoir_checksum
from .strategies import (
    STRATEGIES,
    OptConfig,
    ReplayBuffer,
    train_joint,
    train_naive,
    train_replay,
)
from .tensor import Tensor, avgpool2d, no_grad, normalize_zscore, relu

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


def _pooled(maps: np.ndarray, order: str) -> np.ndarray:
    """z-score each map over its trailing two axes, clamp at zero (``order``
    says which comes first), then average-pool."""
    if order not in POOL_ORDERS:
        raise ValueError(f"unknown pool order {order!r}, expected one of {POOL_ORDERS}")
    with no_grad():
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


# -- report rows and CSV schema -----------------------------------------------------


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
    not part of the CSV contract.
    """

    rows: list
    accuracy_rows: list
    num_classes: int
    num_experiences: int
    target_classes: tuple
    train_logs: dict = field(default_factory=dict, repr=False, compare=False)
    saliency: dict = field(default_factory=dict, repr=False, compare=False)

    def strategies(self) -> list:
        out = []
        for row in self.rows:
            if row.strategy not in out:
                out.append(row.strategy)
        return out

    def metrics(self) -> list:
        out = []
        for row in self.rows:
            if row.metric not in out:
                out.append(row.metric)
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(METRIC_CSV_HEADER)
            for r in self.rows:
                writer.writerow([r.strategy, r.experience, r.class_id, r.metric,
                                 repr(float(r.value)),
                                 "true" if r.is_target else "false"])

    def accuracy_to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(ACCURACY_CSV_HEADER)
            for r in self.accuracy_rows:
                writer.writerow([r.strategy, r.experience_trained,
                                 r.experience_evaluated, repr(float(r.accuracy))])

    @classmethod
    def from_csv(cls, path) -> "DriftReport":
        rows = []
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != METRIC_CSV_HEADER:
                raise ValueError(f"unexpected CSV header {header}, "
                                 f"expected {METRIC_CSV_HEADER}")
            for rec in reader:
                strategy, experience, class_id, metric, value, target = rec
                rows.append(MetricRow(strategy, int(experience), int(class_id),
                                      metric, float(value),
                                      target.lower() == "true"))
        if not rows:
            raise ValueError(f"no data rows in {path}")
        return cls(
            rows=rows,
            accuracy_rows=[],
            num_classes=max(r.class_id for r in rows) + 1,
            num_experiences=max(r.experience for r in rows),
            target_classes=tuple(sorted({r.class_id for r in rows if r.is_target})),
        )


def load_accuracy_csv(path) -> list:
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ACCURACY_CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}, "
                             f"expected {ACCURACY_CSV_HEADER}")
        for strategy, trained, evaluated, accuracy in reader:
            out.append(AccuracyRow(strategy, int(trained), int(evaluated),
                                   float(accuracy)))
    return out


# -- protocol orchestration -----------------------------------------------------------


def _is_spatial(inputs: np.ndarray) -> bool:
    return (inputs.ndim == 4 and inputs.shape[1] == 1
            and min(inputs.shape[2:]) >= POOL_KERNEL)


def _snapshot_maps(model, probes, background: np.ndarray,
                   shap: ShapConfig) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unclamped) per-class maps for every probe under one weight snapshot.

    Returns phi shaped (classes, probes, *input shape), so each class's probes
    are contiguous for scoring, and phi0 shaped (classes,). Probe p is seeded
    by ``per_example_config(shap, p)`` whatever the engine.
    """
    num_classes = model.spec.num_classes
    configs = [per_example_config(shap, p) for p in range(len(probes.inputs))]
    if shap.engine == "gradient":
        return expected_gradients(model, probes.inputs, background, shap,
                                  [c.seed for c in configs], range(num_classes))
    per_probe = [explain_all_classes(model, x, background, cfg)
                 for x, cfg in zip(probes.inputs, configs)]
    phi = np.stack([np.stack([m.phi for m in maps]) for maps in per_probe], axis=1)
    return phi, np.array([m.phi0 for m in per_probe[0]])


def _train_strategy(strategy: str, spec: ModelSpec, stream: ExperienceStream,
                    opt: OptConfig, train_seed: int, buffer_capacity: int,
                    gss_n_sim: int, gss_tau: float, gss_candidates: int):
    model = build_model(spec)
    frozen = reservoir_checksum(model) if spec.architecture == "esn" else None
    if strategy == "naive":
        log = train_naive(model, stream, opt, train_seed)
    elif strategy == "er":
        buffer = ReplayBuffer(buffer_capacity)
        log = train_replay(model, stream, opt, buffer, train_seed)
    elif strategy == "gss":
        buffer = ReplayBuffer(buffer_capacity, policy="gss_greedy",
                              gss_n_sim=gss_n_sim, gss_tau=gss_tau,
                              gss_candidates=gss_candidates)
        log = train_replay(model, stream, opt, buffer, train_seed)
    else:
        log = train_joint(model, stream, opt, train_seed)
    if frozen is not None and reservoir_checksum(model) != frozen:
        raise RuntimeError(f"frozen reservoir changed during {strategy} training")
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
    """
    opt = opt or OptConfig()
    shap = shap or ShapConfig()
    if not strategies:
        raise ValueError("strategy list is empty")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategies {unknown}, expected among {STRATEGIES}")
    if len(set(strategies)) != len(strategies):
        raise ValueError(f"duplicate strategies in {strategies}")
    if pool_order not in POOL_ORDERS:
        raise ValueError(f"unknown pool order {pool_order!r}, expected one of {POOL_ORDERS}")

    state = np.random.SeedSequence(seed).generate_state(3)
    model_seed, train_seed, shap_seed = (int(x) for x in state)
    spec = replace(model_spec, seed=model_seed)
    shap = replace(shap, seed=shap_seed)

    probes = eval_slice.probes
    background = eval_slice.background.inputs
    num_classes = stream.num_classes
    num_experiences = len(stream)
    target_classes = tuple(stream.experiences[0].classes)
    spatial = _is_spatial(probes.inputs)

    joint_model, joint_log = _train_strategy(
        "joint", spec, stream, opt, train_seed,
        buffer_capacity, gss_n_sim, gss_tau, gss_candidates)
    joint_maps, joint_phi0 = _snapshot_maps(joint_model, probes, background, shap)
    n_probes = len(probes.inputs)
    joint_mass = np.maximum(joint_maps, 0.0).reshape(num_classes, n_probes, -1)
    if spatial:
        joint_pooled = _pooled(joint_maps[:, :, 0], pool_order)

    rows: list = []
    accuracy_rows: list = []
    train_logs: dict = {}
    saliency: dict = {}

    for strategy in strategies:
        if strategy == "joint":
            model, log = joint_model, joint_log
        else:
            model, log = _train_strategy(
                strategy, spec, stream, opt, train_seed,
                buffer_capacity, gss_n_sim, gss_tau, gss_candidates)
        train_logs[strategy] = log

        for e in range(num_experiences):
            if strategy == "joint":
                maps, phi0 = joint_maps, joint_phi0
            else:
                model.load_state_dict(log.snapshots[e])
                maps, phi0 = _snapshot_maps(model, probes, background, shap)
            # probes are the contiguous last axis, so each probe mean sums in the
            # same order as a mean over a list of per-probe values

            scores = {"m": _mass_drift(np.maximum(maps, 0.0).reshape(joint_mass.shape),
                                       joint_mass).mean(axis=-1)}
            if spatial:
                scores["m_pool"] = _pooled_drift(_pooled(maps[:, :, 0], pool_order),
                                                 joint_pooled).mean(axis=-1)
            for class_id in range(num_classes):
                is_target = class_id in target_classes
                for metric, values in scores.items():
                    rows.append(MetricRow(strategy, e + 1, class_id, metric,
                                          float(values[class_id]), is_target))
            if e == num_experiences - 1 and saliency_probes > 0 and spatial:
                keep = min(saliency_probes, n_probes)
                saliency[strategy] = (
                    probes.inputs[:keep].copy(),
                    [[AttributionMap(np.maximum(maps[c, p], 0.0), float(phi0[c]), c)
                      for c in range(num_classes)] for p in range(keep)],
                )

        for i in range(log.accuracy.shape[0]):
            trained = num_experiences if strategy == "joint" else i + 1
            for j in range(log.accuracy.shape[1]):
                accuracy_rows.append(AccuracyRow(strategy, trained, j + 1,
                                                 float(log.accuracy[i, j])))

    return DriftReport(rows=rows, accuracy_rows=accuracy_rows,
                       num_classes=num_classes, num_experiences=num_experiences,
                       target_classes=target_classes, train_logs=train_logs,
                       saliency=saliency)


# -- aggregation ----------------------------------------------------------------------


@dataclass
class AggregateResult:
    """Per-strategy drift curves plus the target-class summary table.

    ``curves[strategy, metric]`` has shape (experiences, classes); row e is
    the drift curve over class index after training stage e+1.
    ``target_table[strategy, metric]`` is the per-experience mean over target
    classes, and ``final_target`` its value at the last experience.
    """

    strategies: tuple
    metrics: tuple
    num_experiences: int
    num_classes: int
    target_classes: tuple
    curves: dict
    target_table: dict
    final_target: dict


def aggregate(report: DriftReport) -> AggregateResult:
    if not report.rows:
        raise ValueError("cannot aggregate an empty report")
    strategies = tuple(report.strategies())
    metrics = tuple(report.metrics())
    n_exp, n_cls = report.num_experiences, report.num_classes

    cells: dict = {}
    for row in report.rows:
        cells[(row.strategy, row.metric, row.experience, row.class_id)] = row.value
    curves: dict = {}
    for strategy in strategies:
        for metric in metrics:
            grid = np.empty((n_exp, n_cls))
            for e in range(1, n_exp + 1):
                for c in range(n_cls):
                    key = (strategy, metric, e, c)
                    if key not in cells:
                        raise ValueError(
                            f"report incomplete: no {metric} value for "
                            f"strategy {strategy!r}, experience {e}, class {c}"
                        )
                    grid[e - 1, c] = cells[key]
            curves[(strategy, metric)] = grid

    target = list(report.target_classes)
    target_table = {
        key: grid[:, target].mean(axis=1) for key, grid in curves.items()
    }
    final_target = {key: float(col[-1]) for key, col in target_table.items()}
    return AggregateResult(
        strategies=strategies, metrics=metrics,
        num_experiences=n_exp, num_classes=n_cls,
        target_classes=tuple(target),
        curves=curves, target_table=target_table, final_target=final_target,
    )
