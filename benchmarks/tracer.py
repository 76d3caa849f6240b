"""Span tracer that wraps domainlm's public functions from outside the library.

Each traced function is rebound, in its defining module and in every
module that imported it by name, to a wrapper that records one span:
(name, start, end, parent span, step id). Spans stay in memory until the
run ends; per-layer metrics are derived from them, plus a few counts
computed from argument and result shapes at the same boundary.

The wrappers only observe: they pass arguments and results through
unchanged, so a traced run computes bit-for-bit what an untraced one does.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# layer (= module) -> traced public functions, keyed by metric name
LAYERS: dict[str, dict[str, str]] = {
    "tensor": {op: op for op in (
        "matmul", "add", "mul", "scale", "transpose", "reshape", "concat",
        "embedding", "softmax", "layer_norm", "gelu", "cross_entropy",
        "cosine_similarity")} | {"sum": "tensor_sum", "backward": "backward"},
    "encoder": {n: n for n in ("forward", "token_logits", "phrase_logits")},
    "training": {n: n for n in ("init_train_state", "adam_step", "save_checkpoint",
                                "load_checkpoint", "eval_reconstruction")},
    "masking": {n: n for n in ("mask_words", "mask_phrases", "collate")},
    "phrases": {n: n for n in ("detect", "sample_phrase_tokens")},
    "hybrid": {n: n for n in ("word_loss", "phrase_loss", "update_alpha")},
    "transport": {n: n for n in ("ipot", "cost_matrix", "cea_loss")},
    "crossattn": {n: n for n in ("triplet_loss", "cross_attention")},
    "corpus": {n: n for n in ("build_vocab", "load_corpus", "load_entity_pairs")},
}

# Autodiff primitives: each op call creates one tape node, and its backward
# closure is traced as "tensor.<op>.bwd".
PRIMITIVES = tuple(op for op in LAYERS["tensor"] if op != "backward")

# Spans whose self time (duration minus direct children) is reported.
SELF_TIMED = ("encoder.forward", "tensor.backward")


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.ms"]
    names += [f"tensor.{op}.bwd_ms" for op in PRIMITIVES]
    names += [f"{span}.self_ms" for span in SELF_TIMED]
    names += ["tensor.nodes", "tensor.matmul.flops", "encoder.forward.rows",
              "encoder.forward.pad_share", "hybrid.phrase_step_share",
              "transport.ipot.cells", "trace.spans", "trace.overhead"]
    return names


class Tracer:
    """Records spans around domainlm's public functions while installed."""

    def __init__(self, check=None):
        # check(span_name, ok: bool, detail: str) receives output checks made
        # at a traced boundary (transport plans inside training).
        self.check = check
        self.spans: list[list] = []   # [name, start, end, parent index, step]
        self.stack: list[int] = []
        self.step = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ installation

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "domainlm" or name.startswith("domainlm."))]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"domainlm.{layer}"]
            for metric, attr in fns.items():
                original = getattr(home, attr)
                name = f"{layer}.{metric}"
                wrapper = self._wrap(original, name, self._observer(original, name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---------------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str, observe=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _observer(self, fn, name: str):
        """Count hook for one boundary: shapes in, shapes out, checks."""
        layer, _, metric = name.partition(".")
        counts = self.counts
        if layer == "tensor" and metric in PRIMITIVES:
            bwd_name = f"{name}.bwd"

            def on_op(args, kwargs, out):
                counts["tensor.nodes"] += 1
                if metric == "matmul":
                    counts["tensor.matmul.flops"] += 2 * out.data.size * args[0].shape[-1]
                if out._grad_fn is not None:
                    out._grad_fn = self._wrap(out._grad_fn, bwd_name)
            return on_op
        if name == "encoder.forward":
            def on_forward(args, kwargs, out):
                mask = np.asarray(args[1], dtype=bool)
                counts["encoder.forward.rows"] += mask.size
                counts["encoder.forward.padded"] += mask.size - int(mask.sum())
            return on_forward
        if name == "transport.ipot":
            signature = inspect.signature(fn)

            def on_ipot(args, kwargs, out):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                m, n = out.values.shape
                counts["transport.ipot.cells"] += m * n * bound.arguments["outer_iters"]
                if self.check is not None:
                    err = float(np.abs(out.values.sum(axis=0) - 1.0 / n).max())
                    self.check(name, err <= 1e-12,
                               f"ipot column sums off 1/n by {err:.3e}")
            return on_ipot
        return None

    # ----------------------------------------------------------------- metrics

    def metrics(self, overhead: float) -> dict[str, float]:
        """Per-layer totals over every span recorded so far."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name in SELF_TIMED:
                self_ms[name] += end - start - child[i]

        out: dict[str, float] = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                span = f"{layer}.{fn}"
                out[f"{span}.calls"] = calls[span]
                out[f"{span}.ms"] = total[span] * 1e3
        for op in PRIMITIVES:
            out[f"tensor.{op}.bwd_ms"] = total[f"tensor.{op}.bwd"] * 1e3
        for span in SELF_TIMED:
            out[f"{span}.self_ms"] = self_ms[span] * 1e3
        c = self.counts
        loss_calls = calls["hybrid.word_loss"] + calls["hybrid.phrase_loss"]
        out.update({
            "tensor.nodes": c["tensor.nodes"],
            "tensor.matmul.flops": c["tensor.matmul.flops"],
            "encoder.forward.rows": c["encoder.forward.rows"],
            "encoder.forward.pad_share": (c["encoder.forward.padded"] / c["encoder.forward.rows"]
                                          if c["encoder.forward.rows"] else 0.0),
            "hybrid.phrase_step_share": (calls["hybrid.phrase_loss"] / loss_calls
                                         if loss_calls else 0.0),
            "transport.ipot.cells": c["transport.ipot.cells"],
            "trace.spans": len(self.spans),
            "trace.overhead": overhead,
        })
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start_us, end_us, parent, step."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_us\tend_us\tparent\tstep\n")
            for name, start, end, parent, step in self.spans:
                fh.write(f"{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}"
                         f"\t{parent}\t{step}\n")
