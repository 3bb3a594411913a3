"""Spans around calls into each ``wavems`` module, recorded from outside.

A :class:`Tracer` replaces module attributes and methods with timing
wrappers for as long as it is installed, and restores them afterwards. A
function is rebound under every name that refers to it in any ``wavems``
module, so callers that imported it by name (``training.backward``,
``cli.load_checkpoint``) are traced too. Every graph node an op returns gets
its ``_backward`` closure wrapped, so backward time is charged to the layer
that recorded the node. Weight tensors of registered models map conv and
linear calls to parameter names (``conv3``, ``branch2.phase``).

Spans are ``[name, start, end, parent]`` rows kept in memory; ``parent`` is
the index of the enclosing span or -1. The wrappers only pass arguments and
results through, so a traced run computes exactly what an untraced one does.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict

#: Modules whose attributes are rebound; ``wavems`` itself re-exports names.
MODULES = ["wavems"] + [f"wavems.{m}" for m in (
    "analysis", "audio", "checkpoint", "cli", "datasets", "errors",
    "evaluation", "model", "ops", "optim", "tensor", "training")]

#: Ops traced per layer. Conv and linear calls take their layer's name from
#: the weight tensor; the others are named by op.
OPS = ("conv1d", "conv2d", "linear", "relu", "maxpool2d", "adaptive_maxpool",
       "concat", "reshape", "softmax_cross_entropy", "add", "scale")
WEIGHTED_OPS = {"conv1d", "conv2d", "linear"}
#: Span of the tracer's own graph walks around each backward call.
WALK = "tracer.graph_walk"

#: (module, function) -> span name for the non-op layer boundaries.
FUNCTIONS = {
    ("wavems.tensor", "backward"): "tensor.backward",
    ("wavems.optim", "sgd_step"): "optim.sgd_step",
    ("wavems.training", "train_epoch"): "training.train_epoch",
    ("wavems.evaluation", "evaluate"): "evaluation.evaluate",
    ("wavems.evaluation", "predict_clip"): "evaluation.predict_clip",
    ("wavems.audio", "random_crop"): "audio.random_crop",
    ("wavems.audio", "segment_for_voting"): "audio.segment_for_voting",
    ("wavems.audio", "load_clip_file"): "audio.load_clip_file",
    ("wavems.checkpoint", "load_checkpoint"): "checkpoint.load",
    ("wavems.datasets", "synth_dataset"): "datasets.synth",
    ("wavems.datasets", "load_manifest"): "datasets.load_manifest",
    ("wavems.cli", "main"): "cli.main",
}

#: (class, method) -> span name.
METHODS = {
    ("wavems.model", "Model", "forward"): "model.forward",
    ("wavems.model", "Model", "forward_frontend"): "model.frontend",
    ("wavems.model", "Model", "forward_backend"): "model.backend",
}


class Patches:
    """Replacements of program names by wrappers, undone by :meth:`close`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, fn, make_wrapper) -> None:
        """Point every ``wavems`` module attribute that is ``fn`` at
        ``make_wrapper(fn)``, so callers that imported it by name see it too."""
        wrapper = make_wrapper(fn)
        for name in MODULES:
            mod = importlib.import_module(name)
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name, make_wrapper) -> None:
        original = vars(cls)[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def close(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo = []


def _graph_nonleaf(loss) -> list:
    """Nodes reachable from ``loss`` that an op produced (they have parents)."""
    seen = {id(loss)}
    stack, nodes = [loss], []
    while stack:
        node = stack.pop()
        if node._parents:
            nodes.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._layer_of: dict[int, tuple[object, str]] = {}
        self._patches = Patches()

    # --- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span = self.spans[idx]
            span[1], span[2] = start, end

    def register(self, model) -> None:
        """Name conv and linear calls after the parameters they read."""
        for name, p in model.named_parameters():
            if name.endswith(".weight"):
                # keep the tensor so its id cannot be reused by another object
                self._layer_of[id(p.value)] = (p.value, name[:-len(".weight")])

    # --- wrappers ----------------------------------------------------------

    def _wrap_op(self, op_name, fn):
        tracer = self

        def op(*args, **kwargs):
            layer = op_name
            if op_name in WEIGHTED_OPS:
                weight = args[1] if len(args) > 1 else kwargs["weight"]
                layer = tracer._layer_of.get(id(weight), (None, op_name))[1]
                if op_name == "conv2d":
                    x = args[0] if args else kwargs["x"]
                    c, h, w = x.shape
                    tracer.counts["conv2d.mac"] += weight.shape[0] * c * 9 * h * w
            out = tracer.call(f"ops.{layer}.fwd", fn, *args, **kwargs)
            tracer.counts["ops.calls"] += 1
            bw = out._backward
            if bw is not None:
                out._backward = lambda g: tracer.call(f"ops.{layer}.bwd", bw, g)
            return out
        return op

    def _wrap_backward(self, fn):
        tracer = self

        def measure_graph(loss):
            nodes = _graph_nonleaf(loss)
            tracer.counts["tensor.steps"] += 1
            tracer.counts["tensor.graph_nodes"] += len(nodes)
            tracer.counts["tensor.graph_bytes"] += sum(n.data.nbytes for n in nodes)
            return nodes

        def measure_retained(nodes):
            tracer.counts["tensor.retained_grad_bytes"] += sum(
                n.grad.nbytes for n in nodes if n.grad is not None)

        def backward(loss):
            # the graph walks get spans of their own, so no layer is charged
            nodes = tracer.call(WALK, measure_graph, loss)
            tracer.call("tensor.backward", fn, loss)
            tracer.call(WALK, measure_retained, nodes)
        return backward

    def _wrap(self, span_name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            out = tracer.call(span_name, fn, *args, **kwargs)
            if span_name == "audio.segment_for_voting":
                tracer.counts["windows_voted"] += len(out)
            elif span_name == "checkpoint.load":
                path = args[0] if args else kwargs["path"]
                tracer.counts["checkpoint.bytes"] += os.path.getsize(path)
            return out
        return wrapper

    def install(self) -> None:
        """Rebind every traced name; undone by :meth:`uninstall`."""
        ops = importlib.import_module("wavems.ops")
        for op_name in OPS:
            self._patches.function(getattr(ops, op_name),
                                   lambda fn, op_name=op_name: self._wrap_op(op_name, fn))
        for (mod_name, attr), span_name in FUNCTIONS.items():
            fn = getattr(importlib.import_module(mod_name), attr)
            if span_name == "tensor.backward":
                self._patches.function(fn, self._wrap_backward)
            else:
                self._patches.function(fn, lambda fn, name=span_name: self._wrap(name, fn))
        for (mod_name, cls_name, attr), span_name in METHODS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._patches.method(cls, attr, lambda fn, name=span_name: self._wrap(name, fn))

        # models restored inside the CLI are registered as they are built
        def restore_and_register(restore_model):
            def restore(ckpt):
                model = restore_model(ckpt)
                self.register(model)
                return model
            return restore
        checkpoint = importlib.import_module("wavems.checkpoint")
        self._patches.method(checkpoint.Checkpoint, "restore_model", restore_and_register)

    def uninstall(self) -> None:
        self._patches.close()

    # --- summaries ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: total duration, call count and total self time."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_time[name] += end - start - inner
        return total, calls, self_time

    def child_total(self, parent_name: str, child_names: set[str]) -> float:
        """Time of spans named in ``child_names`` directly under ``parent_name``."""
        return sum(end - start for name, start, end, parent in self.spans
                   if parent >= 0 and name in child_names
                   and self.spans[parent][0] == parent_name)

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts), **extra}, f)


#: Layers whose forward and backward op time is reported: parameter layers
#: by name, the rest by op.
LAYERS = ([f"branch{i}.{part}" for i in (1, 2, 3) for part in ("conv", "phase")]
          + ["conv1", "conv2", "conv3", "conv4", "fc1", "fc2", "relu", "maxpool2d",
             "adaptive_maxpool", "concat", "reshape", "softmax_cross_entropy",
             "add", "scale"])


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures from one traced run, as name -> (value, unit).

    Op and model times are per window, tensor, optim and training figures
    per optimizer step, voting figures per clip, and the rest per call. A
    layer that did not run reports 0.
    """
    total, calls, self_time = tracer.totals()
    c = tracer.counts

    def per(amount, n):
        return amount / n if n else 0.0

    windows = calls["model.forward"]
    steps = c["tensor.steps"]
    clips = calls["evaluation.predict_clip"]
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"ops.{layer}.fwd_s"] = (per(total[f"ops.{layer}.fwd"], windows), "s")
        m[f"ops.{layer}.bwd_s"] = (per(total[f"ops.{layer}.bwd"], windows), "s")
    m["ops.calls"] = (per(c["ops.calls"], windows), "count")
    conv2d_s = sum(total[f"ops.conv{l}.fwd"] for l in (1, 2, 3, 4))
    m["ops.conv2d.gmac_per_s"] = (per(c["conv2d.mac"] / 1e9, conv2d_s), "GMAC/s")

    m["tensor.backward_self_s"] = (per(self_time["tensor.backward"], steps), "s")
    m["tensor.graph_nodes"] = (per(c["tensor.graph_nodes"], steps), "count")
    m["tensor.graph_mib"] = (per(c["tensor.graph_bytes"] / 2 ** 20, steps), "MiB")
    m["tensor.retained_grad_mib"] = (
        per(c["tensor.retained_grad_bytes"] / 2 ** 20, steps), "MiB")
    m["model.frontend_s"] = (per(total["model.frontend"], windows), "s")
    m["model.backend_s"] = (per(total["model.backend"], windows), "s")
    m["optim.sgd_step_s"] = (per(total["optim.sgd_step"], steps), "s")
    outside = tracer.child_total("training.train_epoch", {
        "model.forward", "tensor.backward", "optim.sgd_step", WALK})
    m["training.glue_s"] = (per(total["training.train_epoch"] - outside, steps), "s")
    m["evaluation.predict_clip_s"] = (per(total["evaluation.predict_clip"], clips), "s")
    m["evaluation.windows_per_clip"] = (per(c["windows_voted"], clips), "count")
    for name in ("audio.random_crop", "audio.segment_for_voting", "audio.load_clip_file",
                 "checkpoint.load", "datasets.synth", "datasets.load_manifest"):
        m[f"{name}_s"] = (per(total[name], calls[name]), "s")
    m["checkpoint.mib"] = (per(c["checkpoint.bytes"] / 2 ** 20, calls["checkpoint.load"]),
                           "MiB")
    inside = tracer.child_total("cli.main", {"evaluation.evaluate"})
    m["cli.eval_overhead_s"] = (per(total["cli.main"] - inside, calls["cli.main"]), "s")
    return m
