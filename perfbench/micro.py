"""Layer microbenchmarks at the shapes the workloads use.

Each case warms up, then times calls one by one and reports the median, so
a stray slow call does not move it. Graph building for a backward timing,
model construction and buffer filling happen outside the timed calls.

Shapes:
  matmul        (32, 32) @ (32, 128)   LSTM recurrent step, seq-lstm batch 32
  time_slice    (32, 30, 12), step 15  LSTM input step
  col_slice     (32, 128) -> [32, 64)  LSTM gate block
  conv2d        (256, 1, 12, 12) * (8, 1, 3, 3) forward without tape (one
                ClassLogit chunk); (100, 1, 12, 12) backward (training batch)
  avgpool2d     (256, 8, 10, 10) forward without tape; (100, 8, 10, 10) backward
  normalize_zscore  one 12 x 12 map (m_pool scoring)
  train_step    mlp and cnn2d at batch 100 on 1x12x12; lstm (hidden 32) and
                esn (reservoir 64) at batch 32 on 30x12
  logits        256 rows through logits_np
  gss admit     one admission into a full buffer (capacity 20), n_sim 10
  replay sample 100 rows from a class-balanced buffer holding the image stream
  metric_m      two clamped 1x12x12 maps; metric_m_pool two 12 x 12 maps
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

from shapdrift import data, models, protocol, strategies, tensor


def timed(run, prepare=None, min_time: float = 0.15, warmup: int = 3,
          min_calls: int = 5) -> float:
    """Median seconds of ``run(prepare())``; only ``run`` is timed."""
    for _ in range(warmup):
        run(prepare() if prepare else None)
    samples = []
    stop = time.perf_counter() + min_time
    while len(samples) < min_calls or time.perf_counter() < stop:
        state = prepare() if prepare else None
        start = time.perf_counter()
        run(state)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _leaf(rng, shape, grad=True):
    return tensor.Tensor(rng.normal(size=shape), requires_grad=grad)


def _backward_of(build, *leaves):
    """run/prepare pair timing the backward pass of sum(build()), starting
    from cleared leaf gradients as a training step does."""
    def prepare():
        for leaf in leaves:
            leaf.grad = None
        return tensor.tsum(build())
    return (lambda loss: loss.backward()), prepare


def tape_nodes(root) -> int:
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, "_prev", ()))
    return len(seen)


def _spec(arch):
    if arch in ("mlp", "cnn2d"):
        return models.ModelSpec(arch, (1, 12, 12), 10, hidden=(32,))
    return models.ModelSpec(arch, (30, 12), 10, hidden_size=32 if arch == "lstm" else 64)


BATCH = {"mlp": 100, "cnn2d": 100, "lstm": 32, "esn": 32}


def run_all(min_time: float = 0.15) -> dict:
    rng = np.random.default_rng(0)
    out = {}

    def us(run, prepare=None):
        return 1e6 * timed(run, prepare, min_time)

    def ms(run, prepare=None):
        return 1e3 * timed(run, prepare, min_time)

    # tensor
    a, w = _leaf(rng, (32, 32)), _leaf(rng, (32, 128))
    out["tensor.matmul.fwd_us"] = us(lambda _: tensor.matmul(a, w))
    out["tensor.matmul.bwd_us"] = us(*_backward_of(lambda: tensor.matmul(a, w), a, w))
    seq = _leaf(rng, (32, 30, 12))
    out["tensor.time_slice.bwd_us"] = us(
        *_backward_of(lambda: tensor.time_slice(seq, 15), seq))
    gates = _leaf(rng, (32, 128))
    out["tensor.col_slice.bwd_us"] = us(
        *_backward_of(lambda: tensor.col_slice(gates, 32, 64), gates))
    img_chunk = tensor.Tensor(rng.uniform(size=(256, 1, 12, 12)))
    img_batch = tensor.Tensor(rng.uniform(size=(100, 1, 12, 12)))
    kern, bias = _leaf(rng, (8, 1, 3, 3)), _leaf(rng, (8,))

    def no_grad(fn):
        def run(_):
            with tensor.no_grad():
                fn()
        return run

    out["tensor.conv2d.fwd_us"] = us(no_grad(lambda: tensor.conv2d(img_chunk, kern, bias)))
    out["tensor.conv2d.bwd_us"] = us(
        *_backward_of(lambda: tensor.conv2d(img_batch, kern, bias), kern, bias))
    fmap_chunk = tensor.Tensor(rng.normal(size=(256, 8, 10, 10)))
    fmap = _leaf(rng, (100, 8, 10, 10))
    out["tensor.avgpool2d.fwd_us"] = us(no_grad(lambda: tensor.avgpool2d(fmap_chunk, 2)))
    out["tensor.avgpool2d.bwd_us"] = us(
        *_backward_of(lambda: tensor.avgpool2d(fmap, 2), fmap))
    attribution = tensor.Tensor(rng.normal(size=(12, 12)))
    out["tensor.normalize_zscore.fwd_us"] = us(
        no_grad(lambda: tensor.normalize_zscore(attribution)))

    # models
    batches = {
        arch: (rng.uniform(size=(BATCH[arch],) + _spec(arch).input_shape),
               rng.integers(10, size=BATCH[arch]))
        for arch in BATCH
    }
    for arch, (xb, yb) in batches.items():
        model = models.build_model(_spec(arch))

        def step(_, model=model, xb=xb, yb=yb):
            loss = tensor.softmax_cross_entropy(model.forward(tensor.Tensor(xb)), yb)
            loss.backward()
            strategies.sgd_step(model, 1e-3)

        out[f"models.{arch}.train_step_ms"] = ms(step)
        rows = rng.uniform(size=(256,) + _spec(arch).input_shape)
        out[f"models.{arch}.logits_ms"] = ms(lambda _, model=model, rows=rows:
                                             model.logits_np(rows))
        if arch == "lstm":
            out["tensor.tape_nodes.lstm"] = tape_nodes(
                tensor.softmax_cross_entropy(model.forward(tensor.Tensor(xb)), yb))

    # strategies
    images = data.synth_images(10, 60, side=12, seed=0)
    for arch in ("mlp", "cnn2d"):
        model = models.build_model(_spec(arch))
        buffer = strategies.ReplayBuffer(20, policy="gss_greedy", gss_n_sim=10)
        admit_rng = np.random.default_rng(1)
        for i in range(20):
            buffer.consider(images.inputs[i * 30], int(images.labels[i * 30]), model,
                            admit_rng)

        def admit(_, buffer=buffer, model=model, rng=admit_rng,
                  candidates=itertools.count()):
            i = next(candidates) % len(images)
            buffer.consider(images.inputs[i], int(images.labels[i]), model, rng)

        out[f"strategies.gss.admit_ms.{arch}"] = ms(admit)
    stream = data.build_stream(images, 5)
    replay = strategies.ReplayBuffer(2000)
    sample_rng = np.random.default_rng(2)
    for exp in stream.experiences:
        replay.rebalance(exp.train, sample_rng)
    out["strategies.replay.sample_us"] = us(lambda _: replay.sample(100, sample_rng))

    # protocol
    s_map, j_map = rng.normal(size=(2, 1, 12, 12))
    s_pos, j_pos = np.maximum(s_map, 0.0), np.maximum(j_map, 0.0)
    out["protocol.metric_m_us"] = us(lambda _: protocol.metric_m(s_pos, j_pos))
    out["protocol.metric_m_pool_us"] = us(
        lambda _: protocol.metric_m_pool(s_map[0], j_map[0]))
    return out
