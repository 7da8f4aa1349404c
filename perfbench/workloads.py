"""The benchmark's three workloads and the check on every run's outputs.

Each workload is one seed of the train -> explain -> score protocol. The
protocol seed is a benchmark argument; the data seed stays 0, as in the
acceptance tests. Every workload has a full size (the measured one) and a
tiny size (for the self-test).

Calls into the package go through module attributes at call time, so the
tracer in ``tracing.py`` sees them when it has patched those attributes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

NUM_CLASSES = 10
EXPERIENCES = 5
OUTPUT_FILES = ("drift.csv", "accuracy.csv")
HARD_LIMIT_S = 150.0   # start no seed that could end past this; a run must end by 180 s


@dataclass(frozen=True)
class ProtocolWorkload:
    """One seed through ``protocol.run_protocol`` in a long-lived process."""

    name: str
    generator: str          # "synth_images" | "synth_sequences"
    data: dict              # generator arguments besides the class count and seed
    model: dict             # ModelSpec arguments besides shapes and class count
    strategies: tuple
    opt: tuple              # OptConfig(lr, batch_size, epochs)
    n_samples: int          # gradient-engine samples per probe
    background_n: int
    probes_per_class: int
    kind = "protocol"

    @property
    def metrics(self) -> tuple:
        return ("m", "m_pool") if self.generator == "synth_images" else ("m",)

    def prepare(self, seed: int):
        """Everything before the first training step: data, stream, slice."""
        from shapdrift import data

        generate = getattr(data, self.generator)
        dataset = generate(NUM_CLASSES, seed=0, **self.data)
        stream = data.build_stream(dataset, EXPERIENCES)
        eval_slice = data.make_slice(stream, background_n=self.background_n,
                                     probes_per_class=self.probes_per_class, seed=seed)
        return dataset, stream, eval_slice

    def run(self, seed: int):
        """One full seed; returns the DriftReport."""
        from shapdrift import explainers, models, protocol, strategies

        dataset, stream, eval_slice = self.prepare(seed)
        spec = models.ModelSpec(input_shape=dataset.inputs.shape[1:],
                                num_classes=NUM_CLASSES, **self.model)
        return protocol.run_protocol(
            stream, eval_slice, spec, list(self.strategies),
            opt=strategies.OptConfig(*self.opt),
            shap=explainers.ShapConfig("gradient", n_samples=self.n_samples),
            buffer_capacity=2000, seed=seed)

    def write(self, report, seed_dir: Path) -> None:
        seed_dir.mkdir(parents=True, exist_ok=True)
        report.to_csv(seed_dir / "drift.csv")
        report.accuracy_to_csv(seed_dir / "accuracy.csv")


# ``shapdrift run`` as its console script calls it, with the calibration
# sampler of calib.py running beside it.
CLI_MAIN = ("import sys, calib; sampler = calib.Sampler(); sampler.start(); "
            "from shapdrift.cli import main; code = main(); sampler.stop(); "
            "sampler.emit(); sys.exit(code)")


@dataclass(frozen=True)
class CliWorkload:
    """One seed through ``shapdrift run`` in a fresh interpreter."""

    name: str
    config: dict
    kind = "cli"

    @property
    def strategies(self) -> tuple:
        return tuple(self.config["strategies"])

    @property
    def metrics(self) -> tuple:
        return ("m", "m_pool")

    def write_config(self, path: Path) -> Path:
        path.write_text(json.dumps(self.config, indent=1), encoding="utf-8")
        return path

    @staticmethod
    def argv(config_path: Path, seed: int, outdir: Path) -> list:
        return ["run", str(config_path), "--seed", str(seed), "--output-dir", str(outdir)]

    @staticmethod
    def prepare(config_path: Path, seed: int):
        """What ``shapdrift run`` does before its first training step."""
        from shapdrift import cli, data

        cfg = cli.load_config(config_path)
        dataset = cli.load_benchmark(cfg)
        stream = data.build_stream(dataset, cfg["experiences"],
                                   class_order=cfg["class_order"])
        return data.make_slice(stream, background_n=cfg["shap"]["background_n"],
                               probes_per_class=cfg["shap"]["probes_per_class"],
                               seed=seed)


def _cli_config(side, per_class, epochs, n_samples, background_n, saliency_probes):
    return {
        "benchmark": "synth-images",
        "data": {"classes": NUM_CLASSES, "per_class": per_class, "side": side, "seed": 0},
        "experiences": EXPERIENCES,
        "model": {"architecture": "cnn2d"},
        "strategies": ["naive", "gss", "joint"],
        "optimizer": {"lr": 0.1, "batch_size": 100, "epochs": epochs},
        "shap": {"engine": "sampling", "n_samples": n_samples,
                 "background_n": background_n, "probes_per_class": 1},
        "saliency_probes": saliency_probes,
    }


# name -> (full size, tiny size)
WORKLOADS = {
    "image-mlp-gss": (
        ProtocolWorkload("image-mlp-gss", "synth_images",
                         {"per_class": 60, "side": 12},
                         {"architecture": "mlp", "hidden": (32,)},
                         ("naive", "er", "gss", "joint"), (0.2, 100, 60), 16, 48, 4),
        ProtocolWorkload("image-mlp-gss", "synth_images",
                         {"per_class": 12, "side": 8},
                         {"architecture": "mlp", "hidden": (8,)},
                         ("naive", "er", "gss", "joint"), (0.2, 20, 2), 4, 8, 1),
    ),
    "seq-lstm": (
        ProtocolWorkload("seq-lstm", "synth_sequences",
                         {"per_class": 60, "steps": 30, "features": 12},
                         {"architecture": "lstm", "hidden_size": 32},
                         ("naive", "er", "joint"), (0.05, 32, 15), 16, 48, 4),
        ProtocolWorkload("seq-lstm", "synth_sequences",
                         {"per_class": 12, "steps": 6, "features": 4},
                         {"architecture": "lstm", "hidden_size": 4},
                         ("naive", "er", "joint"), (0.05, 8, 2), 4, 8, 1),
    ),
    "cli-cnn-sampling": (
        CliWorkload("cli-cnn-sampling", _cli_config(12, 60, 8, 8, 48, 3)),
        CliWorkload("cli-cnn-sampling", _cli_config(10, 12, 1, 2, 8, 1)),
    ),
}


def get(name: str, tiny: bool = False):
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}, expected one of {sorted(WORKLOADS)}")
    return WORKLOADS[name][1 if tiny else 0]


# -- output check --------------------------------------------------------------------


def file_hashes(seed_dir: Path) -> dict:
    return {name: hashlib.sha256((seed_dir / name).read_bytes()).hexdigest()
            for name in OUTPUT_FILES}


def check_outputs(seed_dir: Path, workload) -> list:
    """Problems with one seed's drift.csv and accuracy.csv; empty when correct.

    Drift values are finite, every joint row is exactly 0.0, the grid covers
    every (strategy, experience, class, metric) cell, and accuracies lie in
    [0, 1].
    """
    from shapdrift import protocol

    problems = []
    try:
        report = protocol.DriftReport.from_csv(seed_dir / "drift.csv")
        accuracy = protocol.load_accuracy_csv(seed_dir / "accuracy.csv")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    for row in report.rows:
        cell = f"{row.strategy} e{row.experience} c{row.class_id} {row.metric}"
        if not math.isfinite(row.value):
            problems.append(f"non-finite drift value at {cell}: {row.value!r}")
        elif row.strategy == "joint" and row.value != 0.0:
            problems.append(f"joint row is not exactly 0.0 at {cell}: {row.value!r}")
    expected = (set(workload.strategies), set(workload.metrics),
                NUM_CLASSES, EXPERIENCES)
    found = (set(report.strategies()), set(report.metrics()),
             report.num_classes, report.num_experiences)
    if found != expected:
        problems.append(f"grid is (strategies, metrics, classes, experiences) = "
                        f"{found}, expected {expected}")
    try:
        protocol.aggregate(report)
    except ValueError as exc:
        problems.append(f"aggregate failed: {exc}")
    if not accuracy:
        problems.append("accuracy.csv has no rows")
    for row in accuracy:
        if not 0.0 <= row.accuracy <= 1.0:
            problems.append(f"accuracy {row.accuracy!r} outside [0, 1] for "
                            f"{row.strategy} trained {row.experience_trained} "
                            f"evaluated {row.experience_evaluated}")
    return problems
