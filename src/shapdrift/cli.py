"""Experiment runner: config validation, seeded end-to-end runs, artifacts.

Verbs:
  run       execute the protocol for every seed and write all artifacts
  validate  parse and check a config without running anything
  report    re-emit the drift-curve plot from an existing drift CSV

Configs are JSON with strict unknown-key rejection; every run directory gets
a manifest recording the config hash, the seeds, and completion status, and
rerunning the same config byte-reproduces the CSV outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import BLAS_THREADS
from .data import (
    LabeledDataset,
    build_stream,
    load_idx,
    load_sequences,
    make_slice,
    require_count,
    synth_images,
    synth_sequences,
    write_atomically,
)
from .explainers import EXACT_MAX_FEATURES, ShapConfig
from .models import ModelSpec
from .protocol import DriftReport, aggregate, check_settings, run_protocol
from .strategies import OptConfig, ReplayBuffer

# benchmark -> the name of its loader in this module, looked up at call time so
# that a wrapped loader (the benchmark's tracer wraps them) is the one called;
# the data section is passed to it as keyword arguments
_LOADERS = {"synth-images": "synth_images", "synth-sequences": "synth_sequences",
            "mnist-idx": "load_idx", "user-sequences": "load_sequences"}
BENCHMARKS = tuple(_LOADERS)


class ConfigError(ValueError):
    """A configuration problem, reported before any compute starts."""


# -- configuration schema ----------------------------------------------------------

_DATA_DEFAULTS = {
    "synth-images": {"classes": 10, "per_class": 60, "side": 14, "seed": 0},
    "synth-sequences": {"classes": 10, "per_class": 60, "steps": 101,
                        "features": 40, "seed": 0},
    "mnist-idx": {"images": None, "labels": None},
    "user-sequences": {"path": None},
}


def _field_defaults(cls) -> dict:
    """The defaults of the fields of dataclass ``cls`` that have one, seed excepted."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING and f.name != "seed"}


# input_shape and num_classes come from the data; the run seed sets the model seed
_MODEL_DEFAULTS = {"architecture": "mlp", **_field_defaults(ModelSpec)}

_TOP_DEFAULTS = {
    "benchmark": "synth-images",
    "data": None,
    "experiences": 5,
    "class_order": None,
    "model": None,
    "strategies": ["naive", "er", "gss", "joint"],
    "buffer_capacity": 2000,
    "optimizer": _field_defaults(OptConfig),
    "shap": {**_field_defaults(ShapConfig), "background_n": 100, "probes_per_class": 10},
    "gss": {"n_sim": 10, "tau": 0.95, "candidates": 2},
    "pool_order": "normalize_then_clamp",
    "seeds": [0],
    "output_dir": "runs/out",
    "saliency_probes": 3,
}


def _merge_section(raw: dict, defaults: dict, section: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{section}' must be an object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in section '{section}'")
    merged = dict(defaults)
    merged.update(raw)
    return merged


def _check_section(name: str, build, *args, **kwargs):
    """Return ``build(*args, **kwargs)``; its errors become a ConfigError naming ``name``."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def validate_config(raw: dict) -> dict:
    """Check a parsed config against the schema; returns it with defaults filled.

    Unknown keys anywhere are rejected by name; value errors name the field.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - set(_TOP_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' at config top level")
    cfg = dict(_TOP_DEFAULTS)
    cfg.update(raw)

    if cfg["benchmark"] not in BENCHMARKS:
        raise ConfigError(
            f"benchmark: unknown value {cfg['benchmark']!r}, expected one of {BENCHMARKS}")
    cfg["data"] = _merge_section(cfg["data"] or {},
                                 _DATA_DEFAULTS[cfg["benchmark"]], "data")
    synthetic = cfg["benchmark"].startswith("synth-")
    for key, value in cfg["data"].items():
        if value is None:
            raise ConfigError(f"data.{key}: required for benchmark {cfg['benchmark']!r}")
        if synthetic:
            lowest = {"classes": 2, "seed": 0}.get(key, 1)
            _check_section("data", require_count, key, value, lowest)
        elif not (isinstance(value, str) and Path(value).exists()):
            raise ConfigError(f"data.{key}: must be an existing path, got {value!r}")

    cfg["model"] = _merge_section(cfg["model"] or {}, _MODEL_DEFAULTS, "model")
    cfg["optimizer"] = _merge_section(cfg["optimizer"], _TOP_DEFAULTS["optimizer"],
                                      "optimizer")
    cfg["shap"] = _merge_section(cfg["shap"], _TOP_DEFAULTS["shap"], "shap")
    cfg["gss"] = _merge_section(cfg["gss"], _TOP_DEFAULTS["gss"], "gss")

    # the checks of the code that consumes these values; experiences, the
    # optimizer, shap and model sections are checked in _prepare
    gss = cfg["gss"]
    _check_section("buffer_capacity", ReplayBuffer, cfg["buffer_capacity"])
    _check_section("gss", ReplayBuffer, cfg["buffer_capacity"], policy="gss_greedy",
                   gss_n_sim=gss["n_sim"], gss_tau=gss["tau"], gss_candidates=gss["candidates"])
    _check_section("protocol", check_settings, cfg["strategies"], cfg["pool_order"],
                   cfg["saliency_probes"])
    if not isinstance(cfg["seeds"], list) or not cfg["seeds"]:
        raise ConfigError("seeds: must be a nonempty list of integers")
    for seed in cfg["seeds"]:
        _check_section("seeds", require_count, "every seed", seed, lowest=0)
    if len(set(cfg["seeds"])) != len(cfg["seeds"]):
        raise ConfigError(f"seeds: duplicate seeds in {cfg['seeds']}")
    if not isinstance(cfg["output_dir"], str):
        raise ConfigError(f"output_dir: must be a string, got {cfg['output_dir']!r}")
    return cfg


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return validate_config(raw)


def config_hash(cfg: dict) -> str:
    """Digest of the normalized config; stable under key order and formatting.
    ``output_dir`` says where a run goes, not what it computes, so it is left out."""
    canon = json.dumps({k: v for k, v in cfg.items() if k != "output_dir"},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# -- benchmark assembly ------------------------------------------------------------


def load_benchmark(cfg: dict) -> LabeledDataset:
    return globals()[_LOADERS[cfg["benchmark"]]](**cfg["data"])


def _prepare(cfg: dict, seed: int) -> tuple:
    """Everything ``run`` builds before training one seed of a validated config:
    (OptConfig, ShapConfig, stream, evaluation slice, ModelSpec). A bad value
    raises a ConfigError that names its section."""
    shap = cfg["shap"]
    opt = _check_section("optimizer", OptConfig, **cfg["optimizer"])
    shap_config = _check_section("shap", ShapConfig, engine=shap["engine"],
                                 n_samples=shap["n_samples"], noise_std=shap["noise_std"])
    data = load_benchmark(cfg)
    features = int(np.prod(data.inputs.shape[1:]))
    if shap["engine"] == "exact" and features > EXACT_MAX_FEATURES:
        raise ConfigError(f"shap: the exact engine takes at most {EXACT_MAX_FEATURES} "
                          f"input features, got {features}; use 'sampling' or 'gradient'")
    stream = _check_section("stream", build_stream, data, cfg["experiences"],
                            class_order=cfg["class_order"])
    slice_ = _check_section("shap", make_slice, stream, background_n=shap["background_n"],
                            probes_per_class=shap["probes_per_class"], seed=seed)
    spec = _check_section("model", ModelSpec, input_shape=data.inputs.shape[1:],
                          num_classes=data.num_classes, **cfg["model"])
    return opt, shap_config, stream, slice_, spec


# -- artifact writers --------------------------------------------------------------


def _tile_u8(tile: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if hi <= lo:
        return np.zeros(tile.shape, dtype=np.uint8)
    return np.clip((tile - lo) / (hi - lo) * 255.0, 0, 255).astype(np.uint8)


def emit_saliency_grid(inputs: np.ndarray, maps: np.ndarray, path) -> None:
    """Composite PGM (P5) of (probes, 1, H, W) inputs and (classes, probes, H, W)
    maps: one row per probe — the input tile followed by one tile per class
    map, min-max scaled per tile, separated by 1-pixel white lines."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 4 or inputs.shape[1] != 1:
        raise ValueError(
            f"saliency grids are image-only; got input batch shape {inputs.shape}")
    n_probes, _, h, w = inputs.shape

    cols = len(maps) + 1
    grid = np.full((n_probes * h + (n_probes - 1), cols * w + (cols - 1)),
                   255, dtype=np.uint8)
    for p in range(n_probes):
        for t, tile in enumerate([inputs[p, 0], *maps[:, p]]):
            grid[p * (h + 1):p * (h + 1) + h, t * (w + 1):t * (w + 1) + w] = _tile_u8(
                tile, float(tile.min()), float(tile.max()))

    write_atomically(path, f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii")
                     + grid.tobytes())


def load_pgm(path) -> np.ndarray:
    """Read back a binary PGM written by emit_saliency_grid."""
    with open(path, "rb") as fh:
        payload = fh.read()
    header, rest = payload.split(b"\n", 1)
    if header != b"P5":
        raise ValueError(f"not a binary PGM file: {path}")
    dims, rest = rest.split(b"\n", 1)
    _, rest = rest.split(b"\n", 1)
    w, h = (int(x) for x in dims.split())
    return np.frombuffer(rest, dtype=np.uint8, count=w * h).reshape(h, w)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def emit_curves(report: DriftReport, path, metric: str = "m") -> None:
    """Standalone SVG: one panel per strategy, drift vs class index, one
    polyline per experience, dots marking target classes."""
    agg = aggregate(report)
    if metric not in agg.metrics:
        raise ValueError(f"metric {metric!r} not in report (has {agg.metrics})")
    pw, ph, margin = 240, 170, 42
    width = margin + len(agg.strategies) * (pw + margin)
    height = ph + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    xs = np.arange(agg.num_classes)
    for s_idx, strategy in enumerate(agg.strategies):
        grid = agg.curves[(strategy, metric)]
        top = float(grid.max())
        scale = top if top > 0 else 1.0
        x0 = margin + s_idx * (pw + margin)
        y0 = margin
        parts.append(f'<rect x="{x0}" y="{y0}" width="{pw}" height="{ph}" '
                     f'fill="none" stroke="black"/>')
        parts.append(f'<text x="{x0}" y="{y0 - 8}">{strategy} '
                     f'({metric}, max={top:.3g})</text>')
        denom = max(agg.num_classes - 1, 1)
        for e in range(agg.num_experiences):
            color = _PALETTE[e % len(_PALETTE)]
            px = x0 + xs / denom * pw
            py = y0 + ph - grid[e] / scale * (ph - 10)
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            for c in agg.target_classes:
                parts.append(f'<circle cx="{px[c]:.2f}" cy="{py[c]:.2f}" r="3" '
                             f'fill="{color}"/>')
        parts.append(f'<text x="{x0}" y="{y0 + ph + 14}">class index 0..'
                     f'{agg.num_classes - 1}; one line per experience</text>')
    parts.append("</svg>")
    write_atomically(path, "\n".join(parts).encode("utf-8"))


# -- run orchestration ---------------------------------------------------------------


def _run_single_seed(cfg: dict, seed: int, outdir: str, prepared: tuple | None = None) -> list:
    """Full protocol for one seed; returns the relative paths written.
    ``prepared`` is ``_prepare(cfg, seed)`` when the caller already has it."""
    opt, shap, stream, slice_, spec = prepared or _prepare(cfg, seed)
    report = run_protocol(
        stream, slice_, spec, list(cfg["strategies"]), opt=opt, shap=shap,
        buffer_capacity=cfg["buffer_capacity"],
        gss_n_sim=cfg["gss"]["n_sim"], gss_tau=cfg["gss"]["tau"],
        gss_candidates=cfg["gss"]["candidates"],
        pool_order=cfg["pool_order"], seed=seed,
        saliency_probes=cfg["saliency_probes"],
    )

    seed_dir = Path(outdir) / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    written = []

    report.to_csv(seed_dir / "drift.csv")
    written.append(f"seed_{seed}/drift.csv")
    report.accuracy_to_csv(seed_dir / "accuracy.csv")
    written.append(f"seed_{seed}/accuracy.csv")
    for strategy, log in report.train_logs.items():
        log.save_json(seed_dir / f"trainlog_{strategy}.json")
        written.append(f"seed_{seed}/trainlog_{strategy}.json")
    for strategy, (inputs, maps) in report.saliency.items():
        emit_saliency_grid(inputs, maps, seed_dir / f"saliency_{strategy}.pgm")
        written.append(f"seed_{seed}/saliency_{strategy}.pgm")
    emit_curves(report, seed_dir / "curves.svg")
    written.append(f"seed_{seed}/curves.svg")
    return written


def _write_manifest(outdir: Path, cfg: dict, status: str, files: list) -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "config_hash": config_hash(cfg),
        "seeds": cfg["seeds"],
        "status": status,
        "files": sorted(files),
        "blas": {"name": blas["name"], "version": blas["version"], "threads": BLAS_THREADS},
    }
    write_atomically(outdir / "manifest.json", json.dumps(manifest, indent=2).encode("utf-8"))


def _libc():
    return ctypes.CDLL(None)


def _steady_allocator() -> None:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    With glibc's dynamic thresholds, whether a temporary above 128 KiB (im2col
    windows, sampling row blocks) reuses heap pages or is mapped and faulted in
    afresh depends on allocation history, which makes run times swing. Output
    bytes do not depend on it. Nothing happens without glibc's ``mallopt``.
    """
    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError):
        return
    # M_MMAP_THRESHOLD at 32 MiB, the highest value glibc's own dynamic
    # adjustment reaches on 64-bit systems, and M_TRIM_THRESHOLD at 64 MiB
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


def cmd_run(args) -> int:
    _steady_allocator()  # here, not at import: a library leaves its host's allocator alone
    cfg = load_config(args.config)
    if args.output_dir:
        cfg["output_dir"] = args.output_dir
    if args.seed is not None:  # checked as the config's own seeds are
        cfg = validate_config(dict(cfg, seeds=[args.seed]))
    # every check validate makes, before anything is written; a sequential run reuses it
    first = _prepare(cfg, cfg["seeds"][0])
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(outdir, cfg, "incomplete", [])

    written: list = []
    # a pool starts all its workers at once, so at most one per seed
    workers = min(args.workers, len(cfg["seeds"]))
    try:
        if workers > 1:
            # imported here: the import costs every single-process run about 20 ms
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=_steady_allocator) as pool:
                futures = [pool.submit(_run_single_seed, cfg, s, str(outdir))
                           for s in cfg["seeds"]]
                for future in futures:
                    written.extend(future.result())
        else:
            for s in cfg["seeds"]:
                written.extend(_run_single_seed(cfg, s, str(outdir), first))
                first = None  # later seeds prepare their own; the first seed's data can go
    except Exception as exc:
        _write_manifest(outdir, cfg, f"incomplete: {type(exc).__name__}", written)
        raise
    _write_manifest(outdir, cfg, "complete", written)
    print(f"run complete: {len(cfg['seeds'])} seed(s), artifacts in {outdir}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    _prepare(cfg, cfg["seeds"][0])  # no check depends on the seed
    print(f"config OK: benchmark={cfg['benchmark']} "
          f"strategies={cfg['strategies']} seeds={cfg['seeds']} "
          f"hash={config_hash(cfg)[:12]}")
    return 0


def cmd_report(args) -> int:
    report = DriftReport.from_csv(args.csv)
    out = args.out or str(Path(args.csv).with_name("curves.svg"))
    emit_curves(report, out, metric=args.metric)
    print(f"wrote {out}")
    return 0


def _worker_count(text: str) -> int:
    try:
        require_count("the worker count", int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shapdrift",
        description="Continual-learning explanation-drift laboratory",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a config end to end")
    p_run.add_argument("config", help="path to a JSON run config")
    p_run.add_argument("--output-dir", help="override the config's output directory")
    p_run.add_argument("--seed", type=int, help="run only this seed")
    p_run.add_argument("--workers", type=_worker_count, default=1,
                       help="parallel worker processes over seeds")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config", help="path to a JSON run config")
    p_val.set_defaults(func=cmd_validate)

    p_rep = sub.add_parser("report", help="re-emit curves from a drift CSV")
    p_rep.add_argument("csv", help="path to an existing drift.csv")
    p_rep.add_argument("--out", help="output SVG path")
    p_rep.add_argument("--metric", default="m", help="metric to plot")
    p_rep.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
