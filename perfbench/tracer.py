"""Span tracer that wraps causaltraj's public functions and methods from outside.

Nothing under ``src/`` is changed. ``Tracer.install`` swaps each traced
function or method for a wrapper that records a span (key, layer, start,
end, parent) and ``uninstall`` puts the original objects back. Spans are
recorded only inside ``Tracer.recording()``; outside it the wrappers call
straight through.

* Tensor ops: every public op function of ``causaltraj.tensor`` is replaced
  on the module, which also catches the calls made by ``nn``, by other
  modules through ``T.<op>`` and by the ``Tensor`` operators. When an op
  records a graph node, the node's backward closure is wrapped too, so
  backward time is attributed to the op and to the module that created it.
* Modules: ``__call__``/``step`` are wrapped on the class (Python looks them
  up on the type) and a span is opened only for instances given a label by
  ``label_model``: the temporal encoder, the relation stack and its blocks,
  the embeddings and the scene head.
* Functions: the loss, ``Tensor.backward``, ``AdamW.step``, the epoch
  batcher, container and checkpoint I/O, ``evaluate_batch``, ``rollout`` and
  ``cli.entrypoint``.

A span's self time is its duration minus the time its child spans cover;
traced wall time not covered by any span is ``other``.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import statistics
import time
import weakref

from causaltraj import cli, data, encoders, mdn, metrics, nn, relation, tensor, trainer
from causaltraj import model as model_mod
from causaltraj.tensor import Tensor

clock = time.perf_counter

LAYERS = ("tensor", "encoders", "relation", "mdn", "model", "trainer", "data", "metrics", "cli")

# Ops reported one by one; every op still counts towards the tensor totals.
REPORTED_OPS = (
    "linear", "matmul", "gelu", "softmax_lastdim", "layer_norm", "reduce_sum",
    "mul", "broadcast_to", "transpose", "concat", "max_pool_window", "ssm_scan",
)
GEMM_OPS = ("linear", "matmul")
_NOT_OPS = {"as_tensor", "no_grad", "grad_enabled", "grad_check"}

# Module labels whose forward spans also own the backward time of the nodes
# created inside them.
CONTEXT_LABELS = (
    "encoders", "relation.std", "relation.mesh", "model.embed", "model.head", "mdn.loss",
)

_MARK = "__perfbench_wrapped__"

# Every per-layer metric a traced run prints, with its unit.
UNITS = {
    "tensor.fwd_ms": "ms", "tensor.bwd_ms": "ms", "tensor.walk_ms": "ms",
    "tensor.nodes": "count", "tensor.tape_mb": "MB", "tensor.gemm_gflop": "GFLOP",
    "tensor.gemm_gflops": "GFLOP/s",
    **{f"tensor.op.{op}.{m}": u for op in REPORTED_OPS
       for m, u in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"))},
    "encoders.fwd_ms": "ms", "encoders.bwd_ms": "ms", "encoders.step_ms": "ms",
    "encoders.step_calls": "count",
    "relation.std.fwd_ms": "ms", "relation.std.bwd_ms": "ms",
    "relation.mesh.fwd_ms": "ms", "relation.mesh.bwd_ms": "ms", "relation.mesh.mesh_mb": "MB",
    "mdn.loss.fwd_ms": "ms", "mdn.loss.bwd_ms": "ms",
    "model.embed.fwd_ms": "ms", "model.embed.bwd_ms": "ms",
    "model.head.fwd_ms": "ms", "model.head.bwd_ms": "ms",
    "model.rollout_ms": "ms", "model.rollout.self_ms": "ms",
    "model.ckpt_save_ms": "ms", "model.ckpt_load_ms": "ms", "model.ckpt_mb": "MB",
    "trainer.forward_ms": "ms", "trainer.backward_ms": "ms", "trainer.adamw_ms": "ms",
    "trainer.step_ms_p50": "ms", "trainer.skipped": "count",
    "data.batch_ms": "ms", "data.read_ms": "ms", "data.write_ms": "ms", "data.mb": "MB",
    "metrics.eval_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "other_ms": "ms", "trace.wall_ms": "ms",
    "trace.scenes_per_s": "scenes/s", "trace.untraced_scenes_per_s": "scenes/s",
    "trace_overhead_pct": "%",
}


def op_names() -> list[str]:
    return sorted(
        name for name, fn in vars(tensor).items()
        if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
        and not name.startswith("_") and name not in _NOT_OPS
    )


# (owner, attribute, span key, layer). Module-class methods are listed
# separately because they open spans only for labelled instances.
FUNCTION_TARGETS = (
    (Tensor, "backward", "tensor.backward", "tensor"),
    (mdn, "sequence_loss", "mdn.loss", "mdn"),
    (trainer.AdamW, "step", "trainer.adamw", "trainer"),
    (trainer, "train", "trainer.train", "trainer"),
    (trainer, "epoch_batches", "data.batch", "data"),
    (model_mod.TrajectoryModel, "loss", "model.loss", "model"),
    (model_mod.TrajectoryModel, "rollout", "model.rollout", "model"),
    (model_mod, "save_checkpoint", "model.ckpt_save", "model"),
    (model_mod, "load_checkpoint", "model.ckpt_load", "model"),
    (data, "read_trajectories", "data.read", "data"),
    (data, "write_trajectories", "data.write", "data"),
    (data, "read_sidecar", "data.read", "data"),
    (data, "write_sidecar", "data.write", "data"),
    (metrics, "evaluate_batch", "metrics.eval", "metrics"),
    (cli, "entrypoint", "cli.entrypoint", "cli"),
)
MODULE_TARGETS = (
    (encoders.PointNetEncoder, "__call__", "fwd"),
    (encoders.PointNetEncoder, "step", "step"),
    (encoders.SSMEncoder, "__call__", "fwd"),
    (encoders.SSMEncoder, "step", "step"),
    (relation.RelationEncoder, "__call__", "fwd"),
    (relation.AgentAttentionBlock, "__call__", "fwd"),
    (relation.PairMeshBlock, "__call__", "fwd"),
    (nn.Dense, "__call__", "fwd"),
    (nn.MLP, "__call__", "fwd"),
    (nn.EmbeddingTable, "__call__", "fwd"),
)
FILE_KEYS = ("data.read", "data.write", "model.ckpt_save", "model.ckpt_load")


def _all_targets():
    yield from ((owner, attr) for owner, attr, _, _ in FUNCTION_TARGETS)
    yield from ((owner, attr) for owner, attr, _ in MODULE_TARGETS)
    yield from ((tensor, name) for name in op_names())


def _current(owner, attr):
    return vars(owner)[attr]


# Taken when this module is first imported, before any wrapper exists.
_ORIGINALS = {(owner, attr): _current(owner, attr) for owner, attr in _all_targets()}


def assert_untouched() -> None:
    """Raise unless every traced public function is the original object."""
    for (owner, attr), orig in _ORIGINALS.items():
        cur = _current(owner, attr)
        if cur is not orig or hasattr(cur, _MARK):
            raise AssertionError(f"{getattr(owner, '__name__', owner)}.{attr} is still wrapped")
    if trainer.epoch_batches is not data.epoch_batches:
        raise AssertionError("trainer.epoch_batches is not data.epoch_batches")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Records spans from wrappers installed around causaltraj's public calls."""

    def __init__(self):
        self.spans: list[list] = []      # [key, layer, t0, t1, parent index, ctx]
        self.stack: list[int] = []
        self.ctx: list[str] = []
        self.on = False
        self.wall = 0.0
        self.nodes = 0
        self.tape_bytes = 0
        self.gemm_flop = 0.0
        self.mesh_bytes = 0
        self.file_bytes = {k: 0 for k in FILE_KEYS}
        self.last_ckpt_bytes = 0
        self.labels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.labelled: weakref.WeakSet = weakref.WeakSet()
        self._installed: list[tuple[object, str, object]] = []

    # -- span primitives ------------------------------------------------------

    def _open(self, key: str, layer: str, ctx=None) -> int:
        i = len(self.spans)
        self.spans.append([key, layer, clock(), 0.0, self.stack[-1] if self.stack else -1, ctx])
        self.stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.spans[i][3] = clock()
        self.stack.pop()

    @contextlib.contextmanager
    def recording(self):
        """Record spans inside the block; its wall time is the traced wall time."""
        self.on = True
        t0 = clock()
        try:
            yield
        finally:
            self.wall += clock() - t0
            self.on = False

    def label_model(self, model) -> None:
        """Give the model's encoder, relation blocks and head their span labels."""
        self.labelled.add(model)
        self.labels[model.temporal] = "encoders"
        self.labels[model.relation] = "relation"
        for block in model.relation.blocks:
            mesh = isinstance(block, relation.PairMeshBlock)
            self.labels[block] = "relation.mesh" if mesh else "relation.std"
        for part in (model.category_embed, model.relation_input):
            self.labels[part] = "model.embed"
        for part in (model.agent_proj, model.scene_mlp, model.head):
            self.labels[part] = "model.head"

    # -- wrappers ---------------------------------------------------------------

    def _wrap_op(self, name: str, fn):
        tr = self
        key = f"op.{name}"
        bkey = f"op.{name}.bwd"
        gemm = name in GEMM_OPS

        def traced_op(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            i = tr._open(key, "tensor")
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._close(i)
            flop = 0.0
            if gemm:
                inner = (args[1] if len(args) > 1 else kwargs["weight"]).shape[0] \
                    if name == "linear" else args[0].shape[-1]
                flop = 2.0 * out.data.size * inner
                tr.gemm_flop += flop
            back = out._backward if isinstance(out, Tensor) else None
            if back is not None and not hasattr(back, _MARK):
                ctx = tr.ctx[-1] if tr.ctx else None
                bflop = 2.0 * flop  # both operand gradients are GEMMs of the same size

                def traced_backward(g):
                    if not tr.on:
                        return back(g)
                    j = tr._open(bkey, "tensor", ctx)
                    try:
                        return back(g)
                    finally:
                        tr._close(j)
                        tr.gemm_flop += bflop

                setattr(traced_backward, _MARK, True)
                out._backward = traced_backward
                tr.nodes += 1
                tr.tape_bytes += out.data.nbytes
            return out

        return traced_op

    def _wrap_function(self, fn, key: str, layer: str):
        tr = self
        ctx = key if key in CONTEXT_LABELS else None
        model_entry = key in ("model.loss", "model.rollout")
        file_key = key if key in FILE_KEYS else None

        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            if model_entry and args[0] not in tr.labelled:
                tr.label_model(args[0])
            i = tr._open(key, layer)
            if ctx:
                tr.ctx.append(ctx)
            try:
                return fn(*args, **kwargs)
            finally:
                if ctx:
                    tr.ctx.pop()
                tr._close(i)
                if file_key:
                    size = _file_size(args[0])
                    tr.file_bytes[file_key] += size
                    if file_key.startswith("model.ckpt"):
                        tr.last_ckpt_bytes = size

        return traced

    def _wrap_generator(self, fn, key: str, layer: str):
        tr = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = tr._open(key, layer) if tr.on else None
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if i is not None:
                        tr._close(i)
                yield item

        return traced

    def _wrap_module(self, fn, kind: str):
        tr = self
        labels = self.labels

        def traced(module, *args, **kwargs):
            label = labels.get(module) if tr.on else None
            if label is None:
                return fn(module, *args, **kwargs)
            if label == "relation.mesh":
                B, Tlen, N, d = args[0].shape
                tr.mesh_bytes += B * Tlen * N * N * (2 * d + 4) * 4
            layer = label.split(".", 1)[0]
            i = tr._open(f"{label}.{kind}", layer)
            tr.ctx.append(label)
            try:
                return fn(module, *args, **kwargs)
            finally:
                tr.ctx.pop()
                tr._close(i)

        return traced

    def install(self) -> None:
        assert_untouched()
        for owner, attr, key, layer in FUNCTION_TARGETS:
            orig = _current(owner, attr)
            if inspect.isgeneratorfunction(orig):
                wrapped = self._wrap_generator(orig, key, layer)
            else:
                wrapped = self._wrap_function(orig, key, layer)
            self._swap(owner, attr, wrapped)
        for owner, attr, kind in MODULE_TARGETS:
            self._swap(owner, attr, self._wrap_module(_current(owner, attr), kind))
        for name in op_names():
            self._swap(tensor, name, self._wrap_op(name, _current(tensor, name)))

    def _swap(self, owner, attr, wrapped) -> None:
        setattr(wrapped, _MARK, True)
        self._installed.append((owner, attr, _current(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)
        assert_untouched()

    # -- aggregation --------------------------------------------------------------

    def summary(self, units: int) -> dict:
        """Per-unit layer numbers (a unit is a training step or a sample pass)."""
        if self.stack:
            raise RuntimeError("summary() with spans still open")
        n = len(self.spans)
        dur = [s[3] - s[2] for s in self.spans]
        child = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[4] >= 0:
                child[s[4]] += dur[i]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        incl: dict[str, float] = {}
        excl: dict[str, float] = {}
        calls: dict[str, int] = {}
        bwd_by_ctx: dict[str, float] = {}
        covered = 0.0
        step_ms: list[float] = []
        loss_start = None
        for i, (key, layer, t0, t1, parent, ctx) in enumerate(self.spans):
            own = dur[i] - child[i]
            layer_self[layer] += own
            incl[key] = incl.get(key, 0.0) + dur[i]
            excl[key] = excl.get(key, 0.0) + own
            calls[key] = calls.get(key, 0) + 1
            if parent < 0:
                covered += dur[i]
            if ctx is not None:
                bwd_by_ctx[ctx] = bwd_by_ctx.get(ctx, 0.0) + dur[i]
            if key == "model.loss":
                loss_start = t0
            elif key == "trainer.adamw" and loss_start is not None:
                step_ms.append((t1 - loss_start) * 1e3)
                loss_start = None

        u = max(units, 1)

        def ms(seconds: float) -> float:
            return seconds * 1e3 / u

        op_fwd = sum(v for k, v in excl.items() if k.startswith("op.") and not k.endswith(".bwd"))
        op_bwd = sum(v for k, v in excl.items() if k.startswith("op.") and k.endswith(".bwd"))
        gemm_s = sum(incl.get(f"op.{o}", 0.0) + incl.get(f"op.{o}.bwd", 0.0) for o in GEMM_OPS)
        out = {
            "tensor.fwd_ms": ms(op_fwd),
            "tensor.bwd_ms": ms(op_bwd),
            "tensor.walk_ms": ms(excl.get("tensor.backward", 0.0)),
            "tensor.nodes": self.nodes / u,
            "tensor.tape_mb": self.tape_bytes / 1e6 / u,
            "tensor.gemm_gflop": self.gemm_flop / 1e9 / u,
            "tensor.gemm_gflops": self.gemm_flop / 1e9 / gemm_s if gemm_s > 0 else 0.0,
        }
        for op in REPORTED_OPS:
            out[f"tensor.op.{op}.fwd_ms"] = ms(excl.get(f"op.{op}", 0.0))
            out[f"tensor.op.{op}.bwd_ms"] = ms(excl.get(f"op.{op}.bwd", 0.0))
            out[f"tensor.op.{op}.calls"] = calls.get(f"op.{op}", 0) / u
        out.update({
            "encoders.fwd_ms": ms(incl.get("encoders.fwd", 0.0)),
            "encoders.bwd_ms": ms(bwd_by_ctx.get("encoders", 0.0)),
            "encoders.step_ms": ms(incl.get("encoders.step", 0.0)),
            "encoders.step_calls": calls.get("encoders.step", 0) / u,
            "relation.std.fwd_ms": ms(incl.get("relation.std.fwd", 0.0)),
            "relation.std.bwd_ms": ms(bwd_by_ctx.get("relation.std", 0.0)),
            "relation.mesh.fwd_ms": ms(incl.get("relation.mesh.fwd", 0.0)),
            "relation.mesh.bwd_ms": ms(bwd_by_ctx.get("relation.mesh", 0.0)),
            "relation.mesh.mesh_mb": self.mesh_bytes / 1e6 / u,
            "mdn.loss.fwd_ms": ms(incl.get("mdn.loss", 0.0)),
            "mdn.loss.bwd_ms": ms(bwd_by_ctx.get("mdn.loss", 0.0)),
            "model.embed.fwd_ms": ms(incl.get("model.embed.fwd", 0.0)),
            "model.embed.bwd_ms": ms(bwd_by_ctx.get("model.embed", 0.0)),
            "model.head.fwd_ms": ms(incl.get("model.head.fwd", 0.0)),
            "model.head.bwd_ms": ms(bwd_by_ctx.get("model.head", 0.0)),
            "model.rollout_ms": ms(incl.get("model.rollout", 0.0)),
            "model.rollout.self_ms": ms(excl.get("model.rollout", 0.0)),
            "model.ckpt_save_ms": ms(incl.get("model.ckpt_save", 0.0)),
            "model.ckpt_load_ms": ms(incl.get("model.ckpt_load", 0.0)),
            "model.ckpt_mb": self.last_ckpt_bytes / 1e6,
            "trainer.forward_ms": ms(incl.get("model.loss", 0.0)),
            "trainer.backward_ms": ms(incl.get("tensor.backward", 0.0)),
            "trainer.adamw_ms": ms(incl.get("trainer.adamw", 0.0)),
            "trainer.step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
            "data.batch_ms": ms(incl.get("data.batch", 0.0)),
            "data.read_ms": ms(incl.get("data.read", 0.0)),
            "data.write_ms": ms(incl.get("data.write", 0.0)),
            "data.mb": (self.file_bytes["data.read"] + self.file_bytes["data.write"]) / 1e6 / u,
            "metrics.eval_ms": ms(incl.get("metrics.eval", 0.0)),
        })
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = ms(layer_self[layer])
        out["other_ms"] = ms(self.wall - covered)
        out["trace.wall_ms"] = ms(self.wall)
        return out

    def write_spans(self, path) -> None:
        """One JSON list per span: key, layer, start s, end s, parent index, context."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
