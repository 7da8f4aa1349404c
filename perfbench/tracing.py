"""Spans around calls into each shapdrift module, recorded from outside it.

The tracer replaces module and class attributes with timing wrappers; the
program's own code is not changed. Spans (name, start, end, parent) stay in
memory until the run ends. A span's layer is the part of its name before
the first dot; the layers are the package's modules plus ``bench`` for the
harness itself. A name that a later version of the package no longer has
is skipped and listed in ``Tracer.missing``, so the trace keeps working
while the metrics that depend on that name read 0.

Importing this module imports nothing from shapdrift or numpy, so a fresh
interpreter can time ``import shapdrift.cli`` after importing it.
"""

from __future__ import annotations

import time
from collections import Counter

LAYERS = ("tensor", "models", "data", "explainers", "strategies", "protocol", "cli",
          "bench")


class Tracer:
    def __init__(self):
        self.spans: list = []     # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list = []
        self._stack: list = []
        self._undo: list = []

    # -- spans -----------------------------------------------------------------------

    def open(self, name: str, start: float | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() if start is None else start,
                           None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, index, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; undone by ``restore``."""
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr)
        else:
            fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, fn, after))
        self._undo.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- the patch list --------------------------------------------------------------

    def install(self, with_cli: bool = False) -> None:
        """Patch the names that run_protocol, ReplayBuffer.consider and
        cmd_run look up at call time."""
        from shapdrift import data, explainers, models, protocol, strategies, tensor

        data_names = {"synth_images": "data.generate", "synth_sequences": "data.generate",
                      "build_stream": "data.build_stream", "make_slice": "data.make_slice"}
        for attr, name in data_names.items():
            self.patch(data, attr, name)

        self.patch(protocol, "run_protocol", "protocol.run_protocol")
        self.patch(protocol, "_snapshot_maps", "explainers.attribute")
        for attr in ("train_naive", "train_replay", "train_joint"):
            self.patch(protocol, attr, "strategies.train", after=_name_by_strategy)
        self.patch(protocol, "explain_all_classes", "explainers.explain_all_classes")
        self.patch(protocol, "metric_m", "protocol.metric_m")
        self.patch(protocol, "metric_m_pool", "protocol.metric_m_pool")

        self.patch(strategies, "gss_admit", "strategies.gss_admit", after=_count_admission)
        self.patch(strategies, "sgd_step", "strategies.sgd_step")
        self.patch(strategies, "evaluate", "strategies.evaluate")

        self.patch(explainers, "sampling_shapley", "explainers.sampling_shapley")
        self.patch(explainers, "gradient_shap", "explainers.gradient_shap")
        self.patch(explainers.ClassLogit, "gradient", "explainers.class_logit_gradient",
                   after=_count_rows("explainers.gradient_rows"))
        self.patch(explainers.ClassLogit, "__call__", "explainers.class_logit_call",
                   after=_count_rows("explainers.forward_rows"))

        self.patch(models.Model, "logits_np", "models.logits_np")
        for cls in _subclasses(models.Model):
            if "forward" in cls.__dict__:
                self.patch(cls, "forward", "models.forward")
        self.patch(tensor.Tensor, "backward", "tensor.backward")

        if with_cli:
            from shapdrift import cli
            for attr, name in data_names.items():
                self.patch(cli, attr, name)
            self.patch(cli, "run_protocol", "protocol.run_protocol")
            self.patch(cli, "load_config", "cli.load_config")
            self.patch(cli, "emit_saliency_grid", "cli.artifacts")
            self.patch(cli, "emit_curves", "cli.artifacts")
            self.patch(cli, "_write_manifest", "cli.artifacts")
            self.patch(protocol.DriftReport, "to_csv", "cli.artifacts")
            self.patch(protocol.DriftReport, "accuracy_to_csv", "cli.artifacts")
            self.patch(strategies.TrainLog, "save_json", "cli.artifacts")

    # -- summary ---------------------------------------------------------------------

    def summarize(self) -> dict:
        """Per-name and per-layer times, plus the traced per-layer metrics.

        A span's self time is its duration minus its children's; a name's
        inclusive time counts only its outermost occurrences.
        """
        spans = self.spans
        duration = [end - start for _, start, end, _ in spans]
        self_time = list(duration)
        above: list = []          # names of each span's ancestors
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                self_time[parent] -= duration[i]
                above.append(above[parent] | {spans[parent][0]})
            else:
                above.append(frozenset())

        by_name: dict = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (name, _, _, _) in enumerate(spans):
            entry = by_name.setdefault(name, {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["self_s"] += self_time[i]
            if name not in above[i]:
                entry["inclusive_s"] += duration[i]
            layer_self[_layer(name)] += self_time[i]
        wall = sum(duration[i] for i, span in enumerate(spans) if span[3] < 0)

        def total(name):
            return by_name.get(name, {}).get("inclusive_s", 0.0)

        def mean_ms(name):
            entry = by_name.get(name)
            return 1e3 * entry["inclusive_s"] / entry["count"] if entry else 0.0

        considered = self.counts["strategies.gss.considered"]
        admitted = self.counts["strategies.gss.admitted"]
        metrics = {
            "strategies.gss.grad_passes": sum(
                1 for i, span in enumerate(spans)
                if span[0] == "tensor.backward" and "strategies.gss_admit" in above[i]),
            "strategies.gss.considered": considered,
            "strategies.gss.admitted": admitted,
            "strategies.gss.admit_ratio": admitted / considered if considered else 0.0,
            "strategies.evaluate_ms": mean_ms("strategies.evaluate"),
            "explainers.attribute_s": sum(
                duration[i] for i, span in enumerate(spans)
                if _layer(span[0]) == "explainers"
                and not any(_layer(a) == "explainers" for a in above[i])),
            "explainers.class_logit_gradient_ms": mean_ms("explainers.class_logit_gradient"),
            "explainers.sampling_shapley_ms": mean_ms("explainers.sampling_shapley"),
            "explainers.gradient_rows": self.counts["explainers.gradient_rows"],
            "explainers.forward_rows": self.counts["explainers.forward_rows"],
            "protocol.score_s": total("protocol.metric_m") + total("protocol.metric_m_pool"),
            "protocol.run_protocol.self_s":
                by_name.get("protocol.run_protocol", {}).get("self_s", 0.0),
            "data.generate_ms": mean_ms("data.generate"),
            "data.build_stream_ms": mean_ms("data.build_stream"),
            "data.make_slice_ms": mean_ms("data.make_slice"),
            "cli.load_config_ms": mean_ms("cli.load_config"),
            "cli.artifacts_ms": 1e3 * total("cli.artifacts"),
            "trace.wall_s": wall,
        }
        for strategy in ("naive", "er", "gss", "joint"):
            metrics[f"strategies.train_s.{strategy}"] = total(f"strategies.train.{strategy}")
        for layer in LAYERS:
            metrics[f"layer.{layer}.self_s"] = layer_self[layer]
        table = {name: {**entry, "inclusive_share": entry["inclusive_s"] / wall}
                 for name, entry in sorted(by_name.items(),
                                           key=lambda kv: -kv[1]["inclusive_s"])}
        return {"metrics": metrics, "spans": table, "span_count": len(spans),
                "missing": self.missing}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _name_by_strategy(tracer, index, args, result):
    strategy = getattr(result, "strategy", None)
    if strategy:
        tracer.spans[index][0] = f"strategies.train.{strategy}"


def _count_admission(tracer, index, args, result):
    tracer.counts["strategies.gss.considered"] += 1
    tracer.counts["strategies.gss.admitted"] += int(bool(result))


def _count_rows(counter: str):
    def after(tracer, index, args, result):
        tracer.counts[counter] += len(args[1])
    return after
