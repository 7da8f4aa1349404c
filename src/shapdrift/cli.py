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
import dataclasses
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .data import (
    LabeledDataset,
    build_stream,
    load_idx,
    load_sequences,
    make_slice,
    synth_images,
    synth_sequences,
)
from .explainers import ShapConfig
from .models import ModelSpec
from .protocol import POOL_ORDERS, DriftReport, aggregate, run_protocol
from .strategies import STRATEGIES, OptConfig, ReplayBuffer

BENCHMARKS = ("synth-images", "synth-sequences", "mnist-idx", "user-sequences")


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

# input_shape and num_classes come from the data; the run seed sets the model seed
_MODEL_DEFAULTS = {"architecture": "mlp", **{
    f.name: f.default for f in dataclasses.fields(ModelSpec)
    if f.default is not dataclasses.MISSING and f.name != "seed"}}

_TOP_DEFAULTS = {
    "benchmark": "synth-images",
    "data": None,
    "experiences": 5,
    "class_order": None,
    "model": None,
    "strategies": ["naive", "er", "gss", "joint"],
    "buffer_capacity": 2000,
    "optimizer": {"lr": 0.05, "batch_size": 64, "epochs": 4},
    "shap": {"engine": "gradient", "n_samples": 200, "noise_std": 0.0,
             "background_n": 100, "probes_per_class": 10},
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


def _is_int(value, lowest: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= lowest


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
        lowest = {"classes": 2, "seed": 0}.get(key, 1)
        if synthetic and not _is_int(value, lowest):
            raise ConfigError(f"data.{key}: must be an integer >= {lowest}, got {value!r}")
        if not synthetic and not isinstance(value, str):
            raise ConfigError(f"data.{key}: must be a path string, got {value!r}")
    if cfg["benchmark"] == "mnist-idx":
        for key in ("images", "labels"):
            if not Path(cfg["data"][key]).exists():
                raise ConfigError(f"data.{key}: path does not exist: {cfg['data'][key]}")
    if cfg["benchmark"] == "user-sequences" and not Path(cfg["data"]["path"]).exists():
        raise ConfigError(f"data.path: path does not exist: {cfg['data']['path']}")

    cfg["model"] = _merge_section(cfg["model"] or {}, _MODEL_DEFAULTS, "model")
    cfg["optimizer"] = _merge_section(cfg["optimizer"], _TOP_DEFAULTS["optimizer"],
                                      "optimizer")
    cfg["shap"] = _merge_section(cfg["shap"], _TOP_DEFAULTS["shap"], "shap")
    cfg["gss"] = _merge_section(cfg["gss"], _TOP_DEFAULTS["gss"], "gss")

    gss = cfg["gss"]
    _check_section("gss", ReplayBuffer, 1, policy="gss_greedy", gss_n_sim=gss["n_sim"],
                   gss_tau=gss["tau"], gss_candidates=gss["candidates"])
    if cfg["pool_order"] not in POOL_ORDERS:
        raise ConfigError(
            f"pool_order: unknown value {cfg['pool_order']!r}, expected one of {POOL_ORDERS}")
    if not isinstance(cfg["strategies"], list) or not cfg["strategies"]:
        raise ConfigError("strategies: must be a nonempty list")
    for name in cfg["strategies"]:
        if name not in STRATEGIES:
            raise ConfigError(
                f"strategies: unknown strategy name {name!r}, expected among {STRATEGIES}")
    if len(set(cfg["strategies"])) != len(cfg["strategies"]):
        raise ConfigError(f"strategies: duplicate names in {cfg['strategies']}")
    if not isinstance(cfg["seeds"], list) or not cfg["seeds"]:
        raise ConfigError("seeds: must be a nonempty list of integers")
    if not all(_is_int(s, 0) for s in cfg["seeds"]):
        raise ConfigError("seeds: every entry must be a non-negative integer")
    if not _is_int(cfg["experiences"], 1):
        raise ConfigError("experiences: must be a positive integer")
    if not _is_int(cfg["buffer_capacity"], 1):
        raise ConfigError("buffer_capacity: must be a positive integer")
    if not _is_int(cfg["saliency_probes"], 0):
        raise ConfigError("saliency_probes: must be a non-negative integer")
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
    """Digest of the normalized config; stable under key order and formatting."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# -- benchmark assembly ------------------------------------------------------------


def load_benchmark(cfg: dict) -> LabeledDataset:
    d = cfg["data"]
    if cfg["benchmark"] == "synth-images":
        return synth_images(d["classes"], d["per_class"], side=d["side"], seed=d["seed"])
    if cfg["benchmark"] == "synth-sequences":
        return synth_sequences(d["classes"], d["per_class"], steps=d["steps"],
                               features=d["features"], seed=d["seed"])
    if cfg["benchmark"] == "mnist-idx":
        return load_idx(d["images"], d["labels"])
    return load_sequences(d["path"])


def _prepare(cfg: dict, seed: int) -> tuple:
    """Everything ``run`` builds before training one seed of a validated config:
    (OptConfig, ShapConfig, stream, evaluation slice, ModelSpec). A bad value
    raises a ConfigError that names its section."""
    shap = cfg["shap"]
    opt = _check_section("optimizer", OptConfig, **cfg["optimizer"])
    shap_config = _check_section("shap", ShapConfig, engine=shap["engine"],
                                 n_samples=shap["n_samples"], noise_std=shap["noise_std"])
    data = load_benchmark(cfg)
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


def emit_saliency_grid(inputs: np.ndarray, maps, path) -> None:
    """Composite PGM (P5): one row per probe — the input tile followed by one
    tile per class map, min-max scaled per tile, separated by 1-pixel white
    lines."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 4 or inputs.shape[1] != 1:
        raise ValueError(
            f"saliency grids are image-only; got input batch shape {inputs.shape}")
    n_probes, _, h, w = inputs.shape
    n_classes = len(maps[0])

    def map_2d(m):
        phi = m.phi
        return phi[0] if phi.ndim == 3 else phi

    cols = n_classes + 1
    grid = np.full((n_probes * h + (n_probes - 1), cols * w + (cols - 1)),
                   255, dtype=np.uint8)
    for p in range(n_probes):
        tiles = [inputs[p, 0]] + [map_2d(m) for m in maps[p]]
        for t, tile in enumerate(tiles):
            grid[p * (h + 1):p * (h + 1) + h, t * (w + 1):t * (w + 1) + w] = _tile_u8(
                tile, float(tile.min()), float(tile.max()))

    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii"))
        fh.write(grid.tobytes())


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
    Path(path).write_text("\n".join(parts), encoding="utf-8")


# -- run orchestration ---------------------------------------------------------------


def _run_single_seed(cfg: dict, seed: int, outdir: str) -> list:
    """Full protocol for one seed; returns the relative paths written."""
    opt, shap, stream, slice_, spec = _prepare(cfg, seed)
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
        grid_path = seed_dir / f"saliency_{strategy}.pgm"
        emit_saliency_grid(inputs, maps, grid_path)
        written.append(f"seed_{seed}/saliency_{strategy}.pgm")
    emit_curves(report, seed_dir / "curves.svg")
    written.append(f"seed_{seed}/curves.svg")
    return written


def _write_manifest(outdir: Path, cfg: dict, status: str, files: list) -> None:
    manifest = {
        "config_hash": config_hash(cfg),
        "seeds": cfg["seeds"],
        "status": status,
        "files": sorted(files),
    }
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.output_dir:
        cfg["output_dir"] = args.output_dir
    if args.seed is not None:
        cfg["seeds"] = [args.seed]
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(outdir, cfg, "incomplete", [])

    written: list = []
    try:
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                futures = [pool.submit(_run_single_seed, cfg, s, str(outdir))
                           for s in cfg["seeds"]]
                for future in futures:
                    written.extend(future.result())
        else:
            for s in cfg["seeds"]:
                written.extend(_run_single_seed(cfg, s, str(outdir)))
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
    p_run.add_argument("--workers", type=int, default=1,
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
