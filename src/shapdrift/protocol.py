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
import os
import pickle
import select
import signal
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .data import EvaluationSlice, ExperienceStream, require_count, require_real, write_atomically
from .explainers import ShapConfig, explain_all_classes, per_example_config
from .models import ModelSpec, build_model
from .strategies import (
    STRATEGIES,
    OptConfig,
    ReplayBuffer,
    TrainLog,
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


def _mass_drift(s_mass: np.ndarray, j_mass: np.ndarray, k: int) -> np.ndarray:
    """(1/K)(sum S - sum J)^2 from the sums of maps of K values each."""
    diff = s_mass - j_mass
    return diff * diff / k


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
    return float(_mass_drift(s.ravel().sum(), j.ravel().sum(), s.size))


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


def _summary(maps: np.ndarray, pool_order: str) -> dict:
    """All that scoring reads of raw (classes, probes, *input shape) maps: each
    map's positive mass and, for single-channel images, its pooled map."""
    summary = {"m": np.maximum(maps, 0.0).reshape(maps.shape[:2] + (-1,)).sum(axis=-1)}
    if _is_spatial(maps[0]):
        summary["m_pool"] = _pooled(maps[:, :, 0], pool_order)
    return summary


def _drift(summary: dict, joint: dict, k: int) -> dict:
    """Each class's probe-mean drift from joint's summary, for maps of k values."""
    scores = {"m": _mass_drift(summary["m"], joint["m"], k).mean(axis=-1)}
    if "m_pool" in summary:
        scores["m_pool"] = _pooled_drift(summary["m_pool"], joint["m_pool"]).mean(axis=-1)
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
    cannot run; a SeedPlan calls this when it is made."""
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


def tasks_of(strategies) -> tuple:
    """One seed's tasks in run_protocol's order: joint, requested or not, then the rest."""
    return ("joint",) + tuple(s for s in STRATEGIES if s in strategies and s != "joint")


@dataclass(frozen=True)
class SeedPlan:
    """run_protocol's arguments, checked when the plan is made, so a bad setting
    raises before any training. All randomness (weight init, batch order,
    estimator draws) derives from ``seed``."""

    stream: ExperienceStream
    eval_slice: EvaluationSlice
    model_spec: ModelSpec
    strategies: list
    opt: OptConfig = field(default_factory=OptConfig)
    shap: ShapConfig = field(default_factory=ShapConfig)
    buffer_capacity: int = 2000
    gss_n_sim: int = 10
    gss_tau: float = 0.95
    gss_candidates: int = 2
    pool_order: str = "normalize_then_clamp"
    seed: int = 0
    saliency_probes: int = 0

    def __post_init__(self):
        check_settings(self.strategies, self.pool_order, self.saliency_probes)
        for strategy in self.strategies:
            self.buffer(strategy)

    def buffer(self, strategy: str) -> ReplayBuffer | None:
        """A fresh replay buffer for ``strategy``; None for the others."""
        if strategy == "gss":
            return ReplayBuffer(self.buffer_capacity, "gss_greedy", self.gss_n_sim,
                                self.gss_tau, self.gss_candidates)
        return ReplayBuffer(self.buffer_capacity) if strategy == "er" else None


class StrategyRun(NamedTuple):
    log: TrainLog
    summaries: list                # a score summary per snapshot
    saliency: np.ndarray | None    # the last snapshot's first maps, clamped at zero


def run_strategy(plan: SeedPlan, strategy: str, first: StrategyRun | None = None) -> StrategyRun:
    """One strategy's task, which needs no other: a fresh model, trained and
    attributed after each experience. ER takes the first stage, summary and (on
    a one-experience stream) saliency of ``first``, naive's run: ER's first
    stage is naive's bit for bit (see ``strategies``)."""
    model_seed, train_seed, shap_seed = (
        int(x) for x in np.random.SeedSequence(plan.seed).generate_state(3))
    probes, background = plan.eval_slice.probes, plan.eval_slice.background.inputs
    keep_saliency = plan.saliency_probes > 0 and _is_spatial(probes.inputs)
    model, log = _train_strategy(strategy, replace(plan.model_spec, seed=model_seed),
                                 plan.stream, plan.opt, train_seed, plan.buffer(strategy),
                                 first and first.log)
    summaries, saliency = (first.summaries[:1], first.saliency) if first else ([], None)
    for snapshot in log.snapshots[len(summaries):]:
        model.load_state_dict(snapshot)
        maps = _snapshot_maps(model, probes, background, replace(plan.shap, seed=shap_seed))[0]
        summaries.append(_summary(maps, plan.pool_order))
        if keep_saliency and snapshot is log.snapshots[-1]:
            saliency = np.maximum(maps[:, :plan.saliency_probes, 0], 0.0)
    return StrategyRun(log, summaries, saliency)


def assemble(plan: SeedPlan, runs: dict) -> DriftReport:
    """One seed's report from the StrategyRun of each of its ``tasks_of``; each
    snapshot is scored against joint's, so joint rows are exactly zero."""
    stream, probes = plan.stream, plan.eval_slice.probes
    num_classes, num_experiences = stream.num_classes, len(stream)
    target_classes = tuple(stream.experiences[0].classes)
    joint = runs["joint"].summaries[0]
    rows, accuracy_rows = [], []
    for strategy in plan.strategies:
        log, summaries, _ = runs[strategy]
        # joint's one stage ends the stream, and its snapshot scores every experience
        for e, summary in enumerate(summaries * (num_experiences if strategy == "joint" else 1)):
            values = _drift(summary, joint, probes.inputs[0].size)
            rows.extend(MetricRow(strategy, e + 1, c, metric, float(values[metric][c]),
                                  c in target_classes)
                        for c in range(num_classes) for metric in values)
        first_trained = num_experiences - len(log.accuracy) + 1
        accuracy_rows.extend(AccuracyRow(strategy, first_trained + i, j + 1, float(a))
                             for (i, j), a in np.ndenumerate(log.accuracy))
    return DriftReport(rows, accuracy_rows, num_classes, num_experiences, target_classes,
                       train_logs={s: runs[s].log for s in plan.strategies},
                       saliency={s: (probes.inputs[:plan.saliency_probes].copy(),
                                     runs[s].saliency)
                                 for s in plan.strategies if runs[s].saliency is not None})


def _usable_cpus() -> int:
    """The CPUs this process may run on; all of them where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _fork(plan: SeedPlan, strategy: str):
    """Fork a helper that runs one task and pickles its StrategyRun, or its
    exception, into a pipe; return the pipe's read end and the helper's pid.
    The helper exits 0 only once the whole result is sent."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return os.fdopen(read, "rb"), pid
    code = 1
    try:
        os.close(read)
        try:
            outcome = run_strategy(plan, strategy)
        except Exception as exc:
            outcome = exc
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(outcome, pipe)
        code = 0
    finally:
        os._exit(code)


def _run_tasks(workers: int, seeds: list, order: tuple, plans: dict, plan_of,
               on_report) -> None:
    """Run every (seed, strategy) task in a forked helper of its own, at most
    ``workers`` at once, seed by seed and each seed's in ``order``, and call
    ``on_report(seed, report)`` as soon as a seed's tasks are done. This process
    only makes each seed's plan, which the helpers inherit, and waits on their
    results. ER trains its own first stage, naive's bit for bit. A helper that
    exits without sending its result fails its task, and a seed with failed
    tasks raises the error a serial run meets first. Every helper is reaped here.
    """
    tasks = [(seed, strategy) for seed in seeds for strategy in order]
    running, outcomes = {}, {}  # a helper's result pipe: (its pid, its task's index)

    def wait() -> None:  # collect the first helper to finish, and report its seed if done
        pipe = select.select(list(running), [], [])[0][0]
        with pipe:
            result = pipe.read()
            pid, i = running.pop(pipe)
        if os.waitpid(pid, 0)[1]:
            outcomes[i] = RuntimeError("a worker process exited before sending its "
                                       "task's result")
        else:
            outcomes[i] = pickle.loads(result)
        first = i - i % len(order)
        if all(j in outcomes for j in range(first, first + len(order))):
            runs = {strategy: outcomes.pop(first + k) for k, strategy in enumerate(order)}
            failed = [runs[s] for s in order[::-1] if isinstance(runs[s], Exception)]
            if failed:
                raise failed[0]
            seed = tasks[i][0]
            on_report(seed, assemble(plans.pop(seed), runs))

    try:
        for i, (seed, strategy) in enumerate(tasks):
            if len(running) == workers:
                wait()
            if seed not in plans:
                plans[seed] = plan_of(seed)
            pipe, pid = _fork(plans[seed], strategy)
            running[pipe] = pid, i
        while running:
            wait()
    finally:
        for pipe, (pid, _) in running.items():
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
            pipe.close()


def run_seeds(seeds: list, plan_of, on_report, *, workers: int | None = None) -> None:
    """Run every (seed, strategy) task of ``seeds``, ``plan_of(seed)`` making a
    seed's SeedPlan, and call ``on_report(seed, report)`` as soon as a seed's
    tasks are done. At most ``workers`` tasks run at once (default: the usable
    CPUs), at most one per task. With one worker the tasks run here in
    ``tasks_of`` order, ER taking naive's first stage; with more, this process
    forks a helper per task and runs none itself. Helpers are forked, so only
    on Linux (Windows cannot fork, and macOS system libraries may break in a
    forked child) and only while this process has one thread (a forked child
    has no copy of the others, so a lock one of them holds stays held);
    otherwise one worker runs everything. Reports are the same bytes whatever
    the worker count.
    """
    if workers is not None:
        require_count("workers", workers)
    plans = {seeds[0]: plan_of(seeds[0])}
    order = tasks_of(plans[seeds[0]].strategies)
    forks = sys.platform == "linux" and threading.active_count() == 1
    workers = min(workers or _usable_cpus(), len(seeds) * len(order)) if forks else 1
    if workers > 1:
        _run_tasks(workers, seeds, order[::-1], plans, plan_of, on_report)  # longest first
        return
    for seed in seeds:
        plan, runs = plans.pop(seed, None) or plan_of(seed), {}
        for strategy in order:
            runs[strategy] = run_strategy(plan, strategy, runs.get("naive") if strategy == "er"
                                          else None)
        on_report(seed, assemble(plan, runs))


def run_protocol(stream: ExperienceStream, eval_slice: EvaluationSlice,
                 model_spec: ModelSpec, strategies: list, *, workers: int | None = None,
                 **settings) -> DriftReport:
    """Train every strategy plus the joint reference, attribute after each
    experience, and assemble the full drift grid; ``settings`` are the rest of
    ``SeedPlan``'s fields, and ``workers`` is ``run_seeds``'s, so on Linux
    each task runs in a forked helper and ``workers=1`` keeps them all in this
    process. Identical arguments reproduce the report bit for bit, at any worker
    count; each strategy's rows are the ones it gives alone."""
    plan = SeedPlan(stream, eval_slice, model_spec, strategies, **settings)
    reports: dict = {}
    run_seeds([plan.seed], lambda seed: plan, reports.__setitem__, workers=workers)
    return reports[plan.seed]


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
