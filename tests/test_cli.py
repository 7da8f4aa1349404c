"""CLI tests: config schema enforcement, hashing, artifact emission
(PGM grids, SVG curves, CSVs, manifest), verbs, and reproducibility."""

import contextlib
import inspect
import io
import json
import os
import pickle
import re
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapdrift import cli, protocol
from shapdrift.cli import (
    ConfigError,
    _prepare,
    config_hash,
    emit_curves,
    emit_saliency_grid,
    load_config,
    main,
    validate_config,
)
from shapdrift.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    LabeledDataset,
    save_sequences,
    synth_images,
    synth_sequences,
)
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
    with pytest.raises(ConfigError, match=r"unknown strategies \['cumulative'\]"):
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
    # where a run is written does not change what it computes
    assert config_hash(a) == config_hash(validate_config(tiny_config(output_dir="elsewhere")))
    # the defaults read from OptConfig, ShapConfig and ModelSpec, without output_dir
    assert config_hash(validate_config({}))[:12] == "e8e16a72ffe6"


@pytest.mark.parametrize("section", ["data", "model", "optimizer", "shap", "gss"])
def test_a_null_section_means_its_defaults(tmp_path, section):
    assert config_hash(validate_config({section: None})) == config_hash(validate_config({}))
    # enough rows for the default shap section's background and probes
    data = {"classes": 4, "per_class": 80, "side": 8, "seed": 0}
    cfg = tiny_config(output_dir=str(tmp_path / "out"), **{"data": data, section: None})
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_hash"] == config_hash(validate_config(dict(cfg, **{section: {}})))


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_shows_the_defaults():
    block = README.read_text(encoding="utf-8").split("```jsonc\n", 1)[1].split("```", 1)[0]
    documented = json.loads(re.sub(r"//.*", "", block))
    # hashes, not dicts: ModelSpec's defaults are tuples, the README's are lists
    assert config_hash(validate_config(documented)) == config_hash(validate_config({}))


def test_readme_library_block_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    values = [float(v) for v in out.getvalue().split()]
    assert len(values) == 2 and all(np.isfinite(v) and v >= 0 for v in values), values


def test_load_config_errors(tmp_path, capsys):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    # a path that is not a readable UTF-8 file is a config error naming the path
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"output_dir": "caf\xe9"}'.encode("latin-1"))
    for path, message in ((tmp_path, "Is a directory"), (latin1, "is not UTF-8 text")):
        for verb in ("validate", "run"):
            assert main([verb, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and str(path) in err and message in err, err


# -- saliency grids ----------------------------------------------------------------


def make_maps(n_classes, n_probes=1, side=8, seed=0):
    """A (classes, probes, H, W) stack of random maps."""
    return np.random.default_rng(seed).uniform(size=(n_classes, n_probes, side, side))


def read_pgm(path, width, height):
    """The pixels of a binary PGM whose header is exactly that of a width x height grid."""
    payload = path.read_bytes()
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    assert payload[:len(header)] == header
    assert len(payload) == len(header) + width * height
    return np.frombuffer(payload[len(header):], dtype=np.uint8).reshape(height, width)


def test_saliency_grid_geometry(tmp_path):
    x = np.random.default_rng(1).uniform(size=(1, 1, 8, 8))
    path = tmp_path / "grid.pgm"
    emit_saliency_grid(x, make_maps(10), path)
    grid = read_pgm(path, 11 * 8 + 10, 8)  # 11 tiles + 10 one-pixel separators
    assert np.all(grid[:, 8::9] == 255)
    lo, hi = x.min(), x.max()  # each tile is min-max scaled on its own
    assert np.array_equal(grid[:, :8], ((x[0, 0] - lo) / (hi - lo) * 255.0).astype(np.uint8))
    for t in range(11):
        tile = grid[:, 9 * t:9 * t + 8]
        assert tile.min() == 0 and tile.max() == 255


def test_saliency_grid_multiprobe_and_zero_map(tmp_path):
    inputs = np.random.default_rng(2).uniform(size=(2, 1, 8, 8))
    maps = make_maps(3, n_probes=2, seed=3)
    maps[1, 0] = 0.0  # class 1 of probe 0
    path = tmp_path / "grid.pgm"
    emit_saliency_grid(inputs, maps, path)
    grid = read_pgm(path, 4 * 8 + 3, 2 * 8 + 1)
    assert np.all(grid[8] == 255) and np.all(grid[:, 8::9] == 255)
    zero_tile = grid[0:8, 2 * 9:2 * 9 + 8]
    assert np.all(zero_tile == 0)  # all-zero map renders black


def test_saliency_grid_rejects_sequences(tmp_path):
    with pytest.raises(ValueError, match="image-only"):
        emit_saliency_grid(np.zeros((2, 10, 6)), make_maps(2, n_probes=2),
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
                             ({"model": {"esn_spectral_radius": -0.5}}, "esn_spectral_radius"),
                             ({"model": {"esn_input_scale": -0.5}}, "esn_input_scale"),
                             ({"model": {"hidden_size": 0}}, "hidden_size"),
                             ({"model": {"hidden_size": 2.5}}, "hidden_size"),
                             ({"model": {"hidden": [2.5]}}, "hidden"),
                             ({"model": {"activation": "sine"}}, "activation"),
                             ({"model": {"activation": ["tanh"]}},
                              "unknown activation ['tanh']"),
                             ({"gss": {"n_sim": "x"}}, "n_sim"),
                             ({"gss": {"n_sim": 0}}, "n_sim"),
                             ({"gss": {"tau": "x"}}, "tau"),
                             ({"experiences": 3}, "experiences"),
                             ({"class_order": [0, 0, 1, 2]}, "class_order"),
                             ({"class_order": [True, False, 2, 3]}, "class_order"),
                             ({"class_order": [0.0, 1, 2, 3]}, "class_order"),
                             ({"class_order": [0, 1, 2, "3"]}, "class_order"),
                             ({"class_order": 3}, "class_order"),
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
                             ({"seeds": [-1]}, "seeds"),
                             ({"seeds": [0, 0]}, "seeds"),
                             ({"buffer_capacity": 2.5}, "buffer_capacity"),
                             ({"experiences": "x"}, "experiences"),
                             ({"saliency_probes": 2.5}, "saliency_probes"),
                             ({"data": {"per_class": 12, "side": 10},
                               "shap": dict(shap, engine="exact")}, "shap"),
                             # a directory is not a data file
                             ({"benchmark": "mnist-idx",
                               "data": {"images": str(tmp_path), "labels": str(tmp_path)}},
                              "data.images"),
                             ({"benchmark": "mnist-idx",
                               "data": {"images": str(tmp_path / "config.json"),
                                        "labels": str(tmp_path)}}, "data.labels"),
                             ({"benchmark": "user-sequences", "data": {"path": str(tmp_path)},
                               "model": {"architecture": "conv1d"}}, "data.path")):
        capsys.readouterr()
        bad = write_config(tmp_path, tiny_config(**overrides))
        assert main(["validate", str(bad)]) == 2
        assert field in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    ({"buffer_capacity": 2.5}, "buffer_capacity"),
    ({"experiences": "x"}, "experiences"),
    ({"experiences": 0}, "experiences"),
    ({"saliency_probes": 2.5}, "saliency_probes"),
    ({"saliency_probes": -1}, "saliency_probes"),
    ({"strategies": ["naive", "naive"]}, "strategies"),
    ({"pool_order": "x"}, "pool_order"),
    ({"experiences": 3}, "experiences"),
    ({"optimizer": {"lr": -1}}, "lr"),
    ({"model": {"hidden": [0]}}, "hidden"),
    ({"shap": dict(tiny_config()["shap"], background_n=1000)}, "background_n"),
    ({"benchmark": "user-sequences", "data": {"path": "."}}, "data.path"),
    # sizes numpy refuses to allocate (petabytes), so the check itself takes no memory
    ({"data": {"classes": 4, "per_class": 10 ** 12, "side": 8, "seed": 0}}, "data"),
    ({"data": {"classes": 4, "per_class": 12, "side": 10 ** 8, "seed": 0}}, "data"),
    # only null stands for a section's defaults
    ({"model": []}, "section 'model'"),
    ({"model": 0}, "section 'model'"),
    ({"data": False}, "section 'data'"),
    ({"data": ""}, "section 'data'"),
    ({"optimizer": []}, "section 'optimizer'"),
    ({"shap": 0}, "section 'shap'"),
    ({"gss": "x"}, "section 'gss'"),
])
def test_both_verbs_reject_a_bad_setting_by_name(tmp_path, capsys, overrides, field):
    path = write_config(tmp_path, tiny_config(output_dir=str(tmp_path / "out"), **overrides))
    for verb in ("validate", "run"):
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err, err
    assert not (tmp_path / "out").exists()


def test_every_loader_takes_the_keys_of_its_data_section():
    for loader, defaults in cli.BENCHMARKS.values():
        assert set(inspect.signature(getattr(cli, loader)).parameters) == set(defaults)


def test_validate_rejects_what_run_cannot_execute(tmp_path, capsys):
    # exact enumeration takes at most 20 features: 20 validates, 21 does not
    shap = dict(tiny_config()["shap"], engine="exact", background_n=8, probes_per_class=1)
    for steps, features, code in ((5, 4, 0), (7, 3, 2)):
        seqs = {"benchmark": "synth-sequences", "shap": shap,
                "data": {"classes": 4, "per_class": 6, "steps": steps,
                         "features": features, "seed": 0}}
        assert main(["validate", str(write_config(tmp_path, tiny_config(**seqs)))]) == code
    assert "shap: the exact engine takes at most 20 input features, got 21" in (
        capsys.readouterr().err)
    # a sequence file whose last two classes have one example each: no test split
    data = synth_sequences(8, 12, steps=6, features=4, seed=0)
    save_sequences(tmp_path / "seqs.bin", LabeledDataset(
        np.concatenate([data.inputs, data.inputs[:2]]),
        np.concatenate([data.labels, [8, 9]]), 10))
    cfg = tiny_config(benchmark="user-sequences", data={"path": str(tmp_path / "seqs.bin")},
                      experiences=5, model={"architecture": "conv1d"})
    assert main(["validate", str(write_config(tmp_path, cfg))]) == 2
    assert "stream: experience 5 of 5 (classes (8, 9)) has an empty test split" in (
        capsys.readouterr().err)
    # a file with no sequences and one with a NaN are data errors that name the file
    inputs = data.inputs.copy()
    inputs[3, 2, 1] = np.nan
    for name, dataset, message in (
            ("empty.bin", LabeledDataset(np.zeros((0, 6, 4)), np.zeros(0), 10),
             "holds no sequences"),
            ("nan.bin", LabeledDataset(inputs, data.labels, 8), "holds non-finite values")):
        save_sequences(tmp_path / name, dataset)
        cfg = tiny_config(benchmark="user-sequences", data={"path": str(tmp_path / name)},
                          experiences=4, model={"architecture": "conv1d"})
        assert main(["validate", str(write_config(tmp_path, cfg))]) == 1
        assert f"error: {tmp_path / name}: {message}" in capsys.readouterr().err
    # an IDX pair that holds no images is a data error that names the images file
    (tmp_path / "images.idx").write_bytes(idx_bytes(IDX_IMAGES_MAGIC, np.zeros((0, 4, 4))))
    (tmp_path / "labels.idx").write_bytes(idx_bytes(IDX_LABELS_MAGIC, np.zeros(0)))
    cfg = tiny_config(benchmark="mnist-idx", output_dir=str(tmp_path / "out"),
                      data={"images": str(tmp_path / "images.idx"),
                            "labels": str(tmp_path / "labels.idx")})
    for verb in ("validate", "run"):
        assert main([verb, str(write_config(tmp_path, cfg))]) == 1
        assert f"error: {tmp_path / 'images.idx'}: holds no images" in capsys.readouterr().err


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


def idx_bytes(magic, array):
    array = np.asarray(array, dtype=np.uint8)
    return struct.pack(f">{1 + array.ndim}I", magic, *array.shape) + array.tobytes()


_IMAGES = synth_images(4, 6, side=4, seed=0)
_SEQUENCES = synth_sequences(4, 6, steps=3, features=2, seed=0)
# valid tiny inputs for the loader fuzz: name -> (file bytes, header length); the
# sequence file is written in its documented layout, little-endian u32 count, steps,
# features, then the f64 values and the u32 labels
FUZZ_FILES = {
    "images": (idx_bytes(IDX_IMAGES_MAGIC, np.round(_IMAGES.inputs[:, 0] * 255)), 16),
    "labels": (idx_bytes(IDX_LABELS_MAGIC, _IMAGES.labels), 8),
    "sequences": (struct.pack("<3I", *_SEQUENCES.inputs.shape)
                  + _SEQUENCES.inputs.astype("<f8").tobytes()
                  + _SEQUENCES.labels.astype("<u4").tobytes(), 12),
}


@st.composite
def damaged_files(draw):
    """(name, bytes): one fuzz file truncated at any byte, or with 1-3 bits
    flipped, three in four of the flips inside the header."""
    name = draw(st.sampled_from(sorted(FUZZ_FILES)))
    blob, header = FUZZ_FILES[name]
    if draw(st.booleans()):
        return name, blob[:draw(st.integers(0, len(blob) - 1))]
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        end = header if draw(st.integers(0, 3)) else len(blob)
        bit = draw(st.integers(0, 8 * end - 1))
        data[bit // 8] ^= 1 << (bit % 8)
    return name, bytes(data)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(damaged_files())
def test_damaged_data_files_exit_cleanly(tmp_path_factory, damaged):
    name, damaged_blob = damaged
    tmp = tmp_path_factory.mktemp("files")
    files = {key: tmp / f"{key}.bin" for key in FUZZ_FILES}
    for key, (blob, _) in FUZZ_FILES.items():
        files[key].write_bytes(damaged_blob if key == name else blob)
    if name == "sequences":
        data = {"benchmark": "user-sequences", "data": {"path": str(files["sequences"])}}
    else:
        data = {"benchmark": "mnist-idx",
                "data": {"images": str(files["images"]), "labels": str(files["labels"])}}
    cfg = tiny_config(**data, model={"architecture": "mlp", "hidden": [4]},
                      strategies=["naive", "joint"], saliency_probes=0,
                      shap={"engine": "gradient", "n_samples": 2,
                            "background_n": 4, "probes_per_class": 1},
                      output_dir=str(tmp / "out"))
    path = write_config(tmp, cfg)
    codes = []
    for verb in ("validate", "run"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            codes.append(main([verb, str(path)]))
        assert codes[-1] in (0, 1, 2), err.getvalue()
        prefix = {1: "error:", 2: "config error:"}.get(codes[-1], "")
        assert err.getvalue().startswith(prefix), err.getvalue()
    # both verbs load and check the data alike; only training can fail after that
    assert codes[0] == 0 or codes[1] == codes[0]


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


def test_output_dir_does_not_change_the_manifest(tmp_path):
    path = write_config(tmp_path, tiny_config())
    manifests = []
    for name in ("a", "b"):
        assert main(["run", str(path), "--output-dir", str(tmp_path / name)]) == 0
        manifests.append((tmp_path / name / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_run_seed_override(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(output_dir=str(out), seeds=[0, 1]))
    assert main(["run", str(path), "--seed", "5"]) == 0
    assert (out / "seed_5").exists()
    assert not (out / "seed_0").exists()
    with open(out / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["seeds"] == [5]


def test_sequential_run_prepares_each_seed_once(tmp_path, monkeypatch):
    # the pre-write check's _prepare result serves the first seed
    calls = []
    prepare = cli._prepare

    def counting(cfg, seed):
        calls.append(seed)
        return prepare(cfg, seed)

    monkeypatch.setattr(cli, "_prepare", counting)
    path = write_config(tmp_path, tiny_config(output_dir=str(tmp_path / "out"), seeds=[3, 1]))
    assert main(["run", str(path)]) == 0
    assert calls == [3, 1]


@pytest.mark.parametrize("flags, named", [(["--seed", "-1"], "seeds"),
                                          (["--workers", "0"], "--workers"),
                                          (["--workers", "-1"], "--workers")])
def test_run_rejects_a_bad_override_before_writing(tmp_path, capsys, flags, named):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(output_dir=str(out)))
    try:
        code = main(["run", str(path), *flags])
    except SystemExit as exc:  # argparse rejects a bad flag value
        code = exc.code
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_parallel_workers_match_serial(tmp_path):
    # all four strategies, so that ER in a helper trains its own first stage
    # while the in-process run takes naive's, and two seeds; 8 workers, more
    # than the cores, run each of the 8 tasks once or the run fails
    cfg = tiny_config(seeds=[0, 1], strategies=["naive", "er", "gss", "joint"])
    trees = []
    for flags in ([], ["--workers", "1"], ["--workers", "3"], ["--workers", "8"]):
        out = tmp_path / f"out_{len(trees)}"
        assert main(["run", str(write_config(tmp_path, dict(cfg, output_dir=str(out)))),
                     *flags]) == 0
        trees.append({str(f.relative_to(out)): f.read_bytes()
                      for f in sorted(out.rglob("*")) if f.is_file()})
    names = {"manifest.json"} | {
        f"seed_{seed}/{name}" for seed in (0, 1)
        for name in ["drift.csv", "accuracy.csv", "curves.svg"]
        + [f"{kind}_{s}.{ext}" for s in ("naive", "er", "gss", "joint")
           for kind, ext in (("trainlog", "json"), ("saliency", "pgm"))]}
    assert set(trees[0]) == names
    assert trees[0] == trees[1] == trees[2] == trees[3]


@pytest.mark.parametrize("failure", ["raises", "exits", "killed"])
def test_a_task_that_fails_in_a_helper_fails_the_run(tmp_path, monkeypatch, capsys, failure):
    # every task runs in a helper of its own; a "killed" one sends half its result
    run_strategy, dump, parent = protocol.run_strategy, pickle.dump, os.getpid()

    def helpers_fail(plan, strategy):
        if failure == "raises":
            raise RuntimeError(f"{strategy} failed in a helper")
        if failure == "exits":
            os._exit(3)
        return run_strategy(plan, strategy)

    def killed_mid_result(outcome, pipe):
        if os.getpid() == parent:
            return dump(outcome, pipe)
        data = pickle.dumps(outcome)
        pipe.write(data[:len(data) // 2])
        pipe.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(protocol, "run_strategy", helpers_fail)
    if failure == "killed":
        monkeypatch.setattr(pickle, "dump", killed_mid_result)
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(output_dir=str(out)))
    assert main(["run", str(path), "--workers", "3"]) == 1
    named = "failed in a helper" if failure == "raises" else "exited before sending"
    assert named in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["files"]) == ("incomplete: RuntimeError", [])
    with pytest.raises(ChildProcessError):  # every helper was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seeds, flags, cpus, workers", [
    ([0, 1], ["--workers", "8"], 1, [6]),
    ([0, 1], ["--workers", "8", "--seed", "1"], 1, [3]),
    ([0], ["--workers", "3"], 1, [3]),
    ([0], ["--workers", "1"], 4, []),
    ([0], [], 4, [3]),
    ([0, 1], [], 2, [2]),
    ([0], [], 1, []),
], ids=["two-seeds", "seed-flag", "one-seed", "one-worker", "default-4-cpus",
        "default-2-cpus", "default-1-cpu"])
def test_workers_are_capped_at_the_task_count(tmp_path, monkeypatch, seeds, flags, cpus,
                                              workers):
    # three tasks per seed (naive, er, joint); the default is the usable CPUs,
    # and a one-worker run is the in-process serial one
    started, run_tasks = [], protocol._run_tasks

    def recording(count, *rest):
        started.append(count)
        run_tasks(count, *rest)

    monkeypatch.setattr(protocol, "_run_tasks", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(output_dir=str(out), seeds=seeds))
    assert main(["run", str(path), *flags]) == 0
    assert started == workers
    assert json.loads((out / "manifest.json").read_text())["status"] == "complete"


def test_runs_off_linux_use_one_process(tmp_path, monkeypatch):
    # helpers are forked, which is left to Linux
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(protocol, "_run_tasks", lambda *args: pytest.fail("forked helpers"))
    path = write_config(tmp_path, tiny_config(output_dir=str(tmp_path / "out")))
    assert main(["run", str(path), "--workers", "4"]) == 0


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, usable in ((3, 3), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert protocol._usable_cpus() == usable


def _no_libc():
    raise OSError("no C library")


class _LibcWithoutMallopt:
    """A C library without glibc's ``mallopt``."""


@pytest.mark.parametrize("libc", [_no_libc, _LibcWithoutMallopt],
                         ids=["no-libc", "no-mallopt"])
def test_the_allocator_hint_is_optional(tmp_path, monkeypatch, libc):
    cfg = tiny_config(data={"classes": 4, "per_class": 12, "side": 10, "seed": 0},
                      model={"architecture": "cnn2d", "conv_channels": [2, 3]},
                      strategies=["naive", "gss", "joint"])
    real_mallopt, calls = cli._libc().mallopt, []

    class Recorded:
        def mallopt(self, param, value):
            calls.append((param, value))
            return real_mallopt(param, value)

    outputs = []
    for stub in (Recorded, libc):
        monkeypatch.setattr(cli, "_libc", stub)
        out = tmp_path / stub.__name__
        assert main(["run", str(write_config(tmp_path, dict(cfg, output_dir=str(out))))]) == 0
        outputs.append([(out / "seed_0" / name).read_bytes()
                        for name in ("drift.csv", "accuracy.csv")])
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert outputs[0] == outputs[1]


# a small config whose drift.csv depends on the BLAS thread count when the
# package does not pin it; at batch_size 100 it stopped depending on it once
# cnn2d's training passes read only the input window
BLAS_SENSITIVE = {
    "benchmark": "synth-images", "data": {"classes": 10, "per_class": 60, "side": 12, "seed": 0},
    "experiences": 5, "model": {"architecture": "cnn2d"}, "strategies": ["naive", "joint"],
    "optimizer": {"lr": 0.1, "batch_size": 300, "epochs": 1},
    "shap": {"engine": "sampling", "n_samples": 2, "background_n": 8, "probes_per_class": 1},
    "saliency_probes": 0, "output_dir": "out"}


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """OpenBLAS caps its threads at the core count, so on a 1-core machine both
    runs use one thread and this test cannot fail."""
    src = str(Path(cli.__file__).resolve().parents[1])
    trees = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads_{threads}"
        cwd.mkdir()
        write_config(cwd, BLAS_SENSITIVE)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "shapdrift.cli", "run", "config.json"],
                              cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = cwd / "out"
        trees.append({str(f.relative_to(out)): f.read_bytes()
                      for f in sorted(out.rglob("*")) if f.is_file()})
    assert "seed_0/drift.csv" in trees[0]
    assert trees[0].keys() == trees[1].keys()
    for name in trees[0]:
        assert trees[0][name] == trees[1][name], name


def test_the_suite_runs_with_the_blas_pin():
    """The conftest imports shapdrift before numpy; a plugin or an earlier import
    that loaded numpy first would leave BLAS at its default thread count."""
    import conftest
    assert conftest.NUMPY_LOADED_BEFORE_PIN is False


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


DRIFT_HEADER = "strategy,experience,class,metric_name,value,is_target_class"


@pytest.mark.parametrize("lines, named", [
    ([DRIFT_HEADER, "naive,1,0,m,0.5,true", "naive,1,-1,m,0.5,false"],
     "line 3, field class: class must be an integer >= 0, got -1"),
    ([DRIFT_HEADER, "naive,1,0,m,0.5,true", "naive,1,1,m,0.5"], "line 3: 5 fields, expected 6"),
    ([DRIFT_HEADER, "naive,x,0,m,0.5,true"], "line 2, field experience: invalid literal"),
    ([DRIFT_HEADER, "naive,1,0,m,0.5,maybe"],
     "line 2, field is_target_class: expected true or false, got 'maybe'"),
    ([DRIFT_HEADER, "naive,1,0,m,0.5,true", "naive,1,1,m,nan,false"],
     "line 3, field value: value must be a finite real number, got nan"),
    ([DRIFT_HEADER, "naive,1,0,m,0.5,false", "naive,1,1,m,0.25,false"],
     "no row has is_target_class true"),
    ([DRIFT_HEADER, "naive,1,0,m,0.25,true", "naive,1,0,m,9.0,true"],
     "report repeats the m value for strategy 'naive', experience 1, class 0"),
    ([DRIFT_HEADER, "naive,1,0,m,0.5,true", "naive,1,0,café,0.5,true"],
     "line 3: not UTF-8 text: invalid continuation byte"),
    ([], "line 1: empty file"),
    ([DRIFT_HEADER.replace("metric_name", "metric"), "naive,1,0,m,0.5,true"],
     "line 1: unexpected CSV header"),
], ids=["negative-class", "five-fields", "bad-experience", "bad-flag", "nan-value",
        "no-target", "repeated-cell", "latin-1", "empty", "wrong-header"])
def test_report_rejects_a_malformed_drift_csv(tmp_path, capsys, lines, named):
    path = tmp_path / "drift.csv"
    # Latin-1, which is UTF-8 for every line but the one that spells café
    path.write_text("".join(line + "\n" for line in lines), encoding="latin-1")
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and named in err, err
    assert not (tmp_path / "curves.svg").exists()


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
