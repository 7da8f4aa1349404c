"""CLI tests: config schema enforcement, hashing, artifact emission
(PGM grids, SVG curves, CSVs, manifest), verbs, and reproducibility."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapdrift.cli import (
    ConfigError,
    _prepare,
    config_hash,
    emit_curves,
    emit_saliency_grid,
    load_config,
    load_pgm,
    main,
    validate_config,
)
from shapdrift.data import save_sequences, synth_sequences
from shapdrift.explainers import AttributionMap
from shapdrift.models import build_model


def tiny_config(**overrides):
    cfg = {
        "benchmark": "synth-images",
        "data": {"classes": 4, "per_class": 12, "side": 8, "seed": 0},
        "experiences": 2,
        "model": {"architecture": "mlp", "hidden": [8]},
        "strategies": ["naive", "er", "joint"],
        "buffer_capacity": 16,
        "optimizer": {"lr": 0.05, "batch_size": 16, "epochs": 1},
        "shap": {"engine": "gradient", "n_samples": 4,
                 "background_n": 12, "probes_per_class": 2},
        "seeds": [0],
        "saliency_probes": 1,
    }
    cfg.update(overrides)
    return cfg


# -- config validation -------------------------------------------------------------


def test_valid_config_fills_defaults():
    cfg = validate_config(tiny_config())
    assert cfg["pool_order"] == "normalize_then_clamp"
    assert cfg["gss"] == {"n_sim": 10, "tau": 0.95, "candidates": 2}
    assert cfg["model"]["activation"] == "tanh"


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="unknown key 'strategie'"):
        validate_config(tiny_config(strategie=["naive"]))
    with pytest.raises(ConfigError, match="unknown key 'samples' in section 'shap'"):
        validate_config(tiny_config(shap={"samples": 10}))
    with pytest.raises(ConfigError, match="unknown key 'widths' in section 'model'"):
        validate_config(tiny_config(model={"widths": [4]}))


def test_unknown_strategy_name_is_reported():
    with pytest.raises(ConfigError, match="unknown strategy name 'cumulative'"):
        validate_config(tiny_config(strategies=["naive", "cumulative"]))


def test_benchmark_and_seed_validation():
    with pytest.raises(ConfigError, match="benchmark"):
        validate_config(tiny_config(benchmark="cifar"))
    with pytest.raises(ConfigError, match="seeds"):
        validate_config(tiny_config(seeds=[]))
    with pytest.raises(ConfigError, match="seeds"):
        validate_config(tiny_config(seeds=[0, "one"]))
    with pytest.raises(ConfigError, match="seeds"):
        validate_config(tiny_config(seeds=[True]))


def test_missing_idx_paths_are_rejected():
    cfg = tiny_config(benchmark="mnist-idx",
                      data={"images": "/nonexistent/im.idx",
                            "labels": "/nonexistent/lb.idx"})
    with pytest.raises(ConfigError, match="data.images"):
        validate_config(cfg)


def test_config_hash_semantics():
    a = validate_config(tiny_config())
    b = validate_config(tiny_config(pool_order="normalize_then_clamp"))  # explicit default
    c = validate_config(tiny_config(buffer_capacity=17))
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


# -- saliency grids ----------------------------------------------------------------


def make_maps(n_classes, side=8, seed=0):
    rng = np.random.default_rng(seed)
    return [AttributionMap(rng.uniform(size=(1, side, side)), 0.0, class_id=c)
            for c in range(n_classes)]


def test_saliency_grid_geometry(tmp_path):
    x = np.random.default_rng(1).uniform(size=(1, 1, 8, 8))
    path = tmp_path / "grid.pgm"
    emit_saliency_grid(x, [make_maps(10)], path)
    grid = load_pgm(path)
    assert grid.shape == (8, 11 * 8 + 10)  # 11 tiles + 10 one-pixel separators


def test_saliency_grid_multiprobe_and_zero_map(tmp_path):
    inputs = np.random.default_rng(2).uniform(size=(2, 1, 8, 8))
    maps = [make_maps(3, seed=3), make_maps(3, seed=4)]
    maps[0][1] = AttributionMap(np.zeros((1, 8, 8)), 0.0, class_id=1)
    path = tmp_path / "grid.pgm"
    emit_saliency_grid(inputs, maps, path)
    grid = load_pgm(path)
    assert grid.shape == (2 * 8 + 1, 4 * 8 + 3)
    zero_tile = grid[0:8, 2 * 9:2 * 9 + 8]
    assert np.all(zero_tile == 0)  # all-zero map renders black


def test_saliency_grid_rejects_sequences(tmp_path):
    with pytest.raises(ValueError, match="image-only"):
        emit_saliency_grid(np.zeros((2, 10, 6)), [make_maps(2)] * 2,
                           tmp_path / "x.pgm")


# -- end-to-end verbs ---------------------------------------------------------------


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def test_validate_verb(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config())
    assert main(["validate", str(path)]) == 0
    assert "config OK" in capsys.readouterr().out
    bad = write_config(tmp_path, tiny_config(strategies=["naiv"]))
    assert main(["validate", str(bad)]) == 2
    shap = tiny_config()["shap"]
    seqs = {"benchmark": "synth-sequences",
            "data": {"classes": 4, "per_class": 12, "steps": 10, "features": 6, "seed": 0}}
    # values that run would reject: validate exits 2 and names the field
    for overrides, field in (({"pool_order": "sideways"}, "pool_order"),
                             ({"optimizer": {"lr": -1}}, "lr"),
                             ({"shap": {"n_samples": 0}}, "n_samples"),
                             ({"seeds": [True]}, "seeds"),
                             ({"shap": {"noise_std": -1.0}}, "noise_std"),
                             ({"optimizer": {"lr": "x"}}, "lr"),
                             ({"shap": {"n_samples": "x"}}, "n_samples"),
                             ({"optimizer": {"batch_size": 2.5}}, "batch_size"),
                             ({"optimizer": {"lr": float("nan")}}, "lr"),
                             ({"shap": {"noise_std": float("nan")}}, "noise_std"),
                             ({"optimizer": {"lr": float("inf")}}, "lr"),
                             ({"shap": {"noise_std": float("inf")}}, "noise_std"),
                             ({"shap": dict(shap, engine="sampling", noise_std=0.5)},
                              "noise_std"),
                             ({"model": {"esn_leak": "x"}}, "esn_leak"),
                             ({"model": {"hidden_size": 0}}, "hidden_size"),
                             ({"model": {"hidden_size": 2.5}}, "hidden_size"),
                             ({"model": {"hidden": [2.5]}}, "hidden"),
                             ({"model": {"activation": "sine"}}, "activation"),
                             ({"gss": {"n_sim": "x"}}, "n_sim"),
                             ({"gss": {"n_sim": 0}}, "n_sim"),
                             ({"gss": {"tau": "x"}}, "tau"),
                             ({"experiences": 3}, "experiences"),
                             ({"class_order": [0, 0, 1, 2]}, "class_order"),
                             ({"shap": dict(shap, background_n=1000)}, "background_n"),
                             ({"shap": dict(shap, probes_per_class=50)}, "probes_per_class"),
                             ({"shap": dict(shap, background_n=0)}, "background_n"),
                             ({"shap": dict(shap, probes_per_class=0)}, "probes_per_class"),
                             ({"model": {"architecture": "cnn2d", "conv_channels": [8]}},
                              "conv_channels"),
                             ({"model": {"architecture": "cnn2d", "conv_kernel": 7}},
                              "conv_kernel"),
                             ({"strategies": ["naive", "naive"]}, "strategies"),
                             (dict(seqs, model={"architecture": "conv1d", "conv1d_kernel": 500}),
                              "conv1d_kernel"),
                             ({"model": {"architecture": "lstm"}}, "architecture"),
                             (dict(seqs, model={"architecture": "cnn2d"}), "architecture"),
                             ({"data": {"classes": 4, "per_class": 12, "side": 0}}, "side"),
                             ({"output_dir": 5}, "output_dir"),
                             ({"seeds": [-1]}, "seeds")):
        capsys.readouterr()
        bad = write_config(tmp_path, tiny_config(**overrides))
        assert main(["validate", str(bad)]) == 2
        assert field in capsys.readouterr().err


def config_leaves(node, path=()):
    """Paths to every non-object value of a config, list entries included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from config_leaves(value, path + (key,))
        return
    yield path
    if isinstance(node, list):
        for i in range(len(node)):
            yield path + (i,)


FUZZ_VALUES = st.one_of(st.integers(-2, 20), st.sampled_from(
    [2.5, float("nan"), float("inf"), True, None, "x", [], [1]]))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(list(config_leaves(tiny_config()))), FUZZ_VALUES),
                min_size=1, max_size=2))
def test_validate_fuzz_exits_cleanly(tmp_path_factory, edits):
    cfg = tiny_config()
    # deepest paths first, so replacing a whole list overrides an edit to one entry
    for path, value in sorted(edits, key=lambda edit: -len(edit[0])):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    path = write_config(tmp_path_factory.mktemp("fuzz"), cfg)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["validate", str(path)])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error:")
    else:
        checked = load_config(path)
        build_model(_prepare(checked, checked["seeds"][0])[-1])


def test_run_verb_produces_all_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(output_dir=str(out))
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 0

    with open(out / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["status"] == "complete"
    assert manifest["seeds"] == [0]
    assert manifest["config_hash"] == config_hash(validate_config(cfg))
    seed_dir = out / "seed_0"
    for name in ("drift.csv", "accuracy.csv", "curves.svg",
                 "trainlog_naive.json", "trainlog_er.json", "trainlog_joint.json",
                 "saliency_naive.pgm", "saliency_er.pgm", "saliency_joint.pgm"):
        assert (seed_dir / name).exists(), name
    assert f"seed_0/drift.csv" in manifest["files"]


def test_default_config_runs(tmp_path):
    path = write_config(tmp_path, {})
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    with open(out / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["status"] == "complete"


def test_run_twice_byte_identical_csv(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"out{i}"
        path = write_config(tmp_path, tiny_config(output_dir=str(out)))
        assert main(["run", str(path)]) == 0
        outs.append(out)
    a = (outs[0] / "seed_0" / "drift.csv").read_bytes()
    b = (outs[1] / "seed_0" / "drift.csv").read_bytes()
    assert a == b


def test_run_seed_override(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(output_dir=str(out), seeds=[0, 1]))
    assert main(["run", str(path), "--seed", "5"]) == 0
    assert (out / "seed_5").exists()
    assert not (out / "seed_0").exists()
    with open(out / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["seeds"] == [5]


def test_parallel_workers_match_serial(tmp_path):
    serial_out = tmp_path / "serial"
    par_out = tmp_path / "par"
    cfg = tiny_config(seeds=[0, 1])
    p1 = write_config(tmp_path, dict(cfg, output_dir=str(serial_out)))
    assert main(["run", str(p1)]) == 0
    p2 = write_config(tmp_path, dict(cfg, output_dir=str(par_out)))
    assert main(["run", str(p2), "--workers", "2"]) == 0
    for seed in (0, 1):
        a = (serial_out / f"seed_{seed}" / "drift.csv").read_bytes()
        b = (par_out / f"seed_{seed}" / "drift.csv").read_bytes()
        assert a == b


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_reports_where_training_diverged(tmp_path, capsys):
    cfg = tiny_config(output_dir=str(tmp_path / "out"),
                      model={"architecture": "mlp", "hidden": [8], "activation": "relu"},
                      optimizer={"lr": 1e300, "batch_size": 16, "epochs": 1})
    assert main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == (
        "error: loss became nan during training (joint, all 2 experiences, epoch 1 of 1)\n")


def test_report_verb_reemits_curves(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(output_dir=str(out)))
    assert main(["run", str(path)]) == 0
    csv_path = out / "seed_0" / "drift.csv"
    svg_path = tmp_path / "replot.svg"
    assert main(["report", str(csv_path), "--out", str(svg_path)]) == 0
    text = svg_path.read_text(encoding="utf-8")
    assert text.startswith("<svg") and "polyline" in text
    assert main(["report", str(tmp_path / "missing.csv")]) == 1


def test_user_sequences_benchmark(tmp_path):
    data = synth_sequences(4, 12, steps=10, features=6, seed=0)
    seq_path = tmp_path / "seqs.bin"
    save_sequences(seq_path, data)
    out = tmp_path / "out"
    cfg = tiny_config(
        benchmark="user-sequences",
        data={"path": str(seq_path)},
        model={"architecture": "conv1d", "conv1d_channels": 6, "dense_width": 8},
        strategies=["naive", "joint"],
        output_dir=str(out),
    )
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 0
    assert (out / "seed_0" / "drift.csv").exists()
    # sequences produce no saliency grids
    assert not list((out / "seed_0").glob("*.pgm"))


def test_curves_svg_structure(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(output_dir=str(out)))
    assert main(["run", str(path)]) == 0
    from shapdrift.protocol import DriftReport
    report = DriftReport.from_csv(out / "seed_0" / "drift.csv")
    svg = tmp_path / "c.svg"
    emit_curves(report, svg)
    text = svg.read_text(encoding="utf-8")
    # 3 strategies x 2 experiences polylines; dots on 2 target classes per line
    assert text.count("<polyline") == 3 * 2
    assert text.count("<circle") == 3 * 2 * 2
    with pytest.raises(ValueError, match="metric"):
        emit_curves(report, tmp_path / "d.svg", metric="m_cubed")
