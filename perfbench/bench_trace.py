"""Spans around the package's layers, recorded from outside the package.

The tracer rebinds the module-level names that callers look up at call time
(``layoutdiffusion.tensor.add`` for ``Tensor.__add__``,
``layoutdiffusion.denoiser.gelu`` for the transformer block, and so on) and
wraps each ``Tensor._backward`` closure that a wrapped op returns, so every
op's backward is timed too.  No file of the package changes; ``uninstall``
puts every original object back.

A span is ``(name, start, end, parent, op_id)``: ``parent`` is the index of
the enclosing span or -1, ``op_id`` the workload operation it ran in (-1
before the first).  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict

# Ops of the tape, timed forward and backward.
TENSOR_OPS = ("matmul", "gelu", "layer_norm", "masked_softmax", "add", "mul", "sub",
              "transpose", "reshape", "concat", "embedding", "tsum")

# (module, attribute, span name) for every other wrapped callable.
FUNCTIONS = (
    ("tensor", "collect_grads", "tensor.backward"),
    ("denoiser", "denoise", "denoiser.denoise"),
    ("optim", "adam_step", "optim.adam_step"),
    ("diffusion", "training_step", "diffusion.training_step"),
    ("diffusion", "q_sample", "diffusion.q_sample"),
    ("diffusion", "p_sample_step", "diffusion.p_sample_step"),
    ("diffusion", "posterior_mean", "diffusion.posterior_mean"),
    ("data", "pad_batch", "data.pad_batch"),
    ("data", "load_dataset", "data.load_dataset"),
    ("data", "save_dataset", "data.save_dataset"),
    ("data", "batch_to_layouts", "data.batch_to_layouts"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("metrics", "alignment_kikuchi", "metrics.alignment_kikuchi"),
    ("metrics", "alignment_blt", "metrics.alignment_blt"),
    ("metrics", "overlap_kikuchi", "metrics.overlap_kikuchi"),
    ("metrics", "overlap_blt", "metrics.overlap_blt"),
    ("metrics", "perceptual_iou", "metrics.perceptual_iou"),
    ("metrics", "max_iou", "metrics.max_iou"),
    ("metrics", "pair_max_iou", "metrics.pair_max_iou"),
    ("metrics", "max_weight_assignment", "metrics.assignment"),
)

# (class, method, span name); methods are looked up on the class.
METHODS = (
    ("rng", "RngStream", "gaussian", "rng.gaussian"),
    ("rng", "RngStream", "integers", "rng.integers"),
)


class Tracer:
    """Records spans and counts while installed; inert once uninstalled."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)

        wrapper.__wrapped__ = fn
        return wrapper

    def _tensor_op(self, op, fn):
        forward = self.timed(f"tensor.{op}.fwd", fn)
        backward_name = f"tensor.{op}.bwd"
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = forward(*args, **kwargs)
            if out._backward is not None:
                out._backward = self.timed(backward_name, out._backward)
                counts["tensor.tape_nodes"] += 1
            if op == "matmul":
                counts["tensor.matmul.flop"] += _matmul_flop(args[0], args[1], out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _words(self, fn):
        counts = self.counts

        def wrapper(stream, n):
            counts["rng.words"] += int(n)
            return fn(stream, n)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _rebind(self, home, attr, make):
        """Rebind ``home.attr`` in every package module that holds the same object,
        and in the default arguments of the package's functions
        (``training_step(..., denoise_fn=denoise)``)."""
        original = getattr(home, attr)
        wrapped = make(original)
        for module in self._modules():
            if module.__dict__.get(attr) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapped)
            for value in list(module.__dict__.values()):
                if not isinstance(value, types.FunctionType):
                    continue
                fn = inspect.unwrap(value)
                defaults = fn.__defaults__
                if defaults and any(d is original for d in defaults):
                    self._undo.append((fn, "__defaults__", defaults))
                    fn.__defaults__ = tuple(wrapped if d is original else d
                                            for d in defaults)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        pkg = self.package
        for op in TENSOR_OPS:
            self._rebind(pkg.tensor, op, lambda fn, op=op: self._tensor_op(op, fn))
        for module, attr, name in FUNCTIONS:
            self._rebind(getattr(pkg, module), attr, lambda fn, name=name: self.timed(name, fn))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(getattr(pkg, module), cls_name)
            self._undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self.timed(name, cls.__dict__[attr]))
        cls = pkg.rng.RngStream
        self._undo.append((cls, "words", cls.__dict__["words"]))
        cls.words = self._words(cls.__dict__["words"])

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write(self, path):
        """Spans as columns, so a large trace stays a compact JSON file."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "op_id"],
            "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _matmul_flop(a, b, out) -> int:
    """Forward multiply-adds times two, plus one GEMM per operand gradient."""
    a_data = getattr(a, "data", a)
    inner = a_data.shape[-1]
    flop = 2 * out.data.size * inner
    grads = sum(bool(getattr(x, "requires_grad", False)) for x in (a, b))
    return flop * (1 + grads)


def self_times(spans) -> list:
    """Per span, its duration minus the part of it that its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans, op_ids=None) -> dict:
    """Per span name: call count, total duration, total self time (seconds).

    ``op_ids`` keeps only spans of those operations; ``direct`` totals count
    only spans whose parent has a different layer prefix, so that a metric
    called from another metric of the same layer is not counted twice.
    """
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "direct": 0.0})
    for index, span in enumerate(spans):
        name, start, end, parent, op = span
        if op_ids is not None and op not in op_ids:
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += selfs[index]
        layer = name.split(".", 1)[0]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            entry["direct"] += end - start
    return dict(out)
