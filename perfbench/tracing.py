"""Per-layer tracing of scorealign from outside the package.

`Tracer.install` wraps the public functions of each module (cli calls are
spanned by the caller) and records one span per call in memory: name,
start, end and the index of the enclosing span. Every binding of a
wrapped function is replaced, so names imported with `from .x import y`
are traced where they are looked up. `Tracer.restore` puts the originals
back. No file of the package is changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

NET_LAYERS = ("Conv3x3", "GELU", "Dropout", "GlobalAvgPool", "Linear")
CLI_SUBCOMMANDS = ("gen", "fit-base", "score", "stats", "train-head", "align", "eval",
                   "report", "ablate")


def _conv_flops(layer, tensor, passes):
    """Multiply-adds x2 of one 3x3 conv pass over `tensor` ([N, C, H, W])."""
    n, _, h, w = tensor.shape
    out_c, in_c = layer.w.value.shape[:2]
    return passes * 2 * n * out_c * in_c * 9 * h * w


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = Counter()
        self.step_marks = []       # start times of train-mode Network.forward calls
        self._stack = []
        self._patches = []
        self._eval_keys = set()

    # -- recording -----------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, name, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def _patch_function(self, fn, name, after=None):
        """Replace every module-level binding of `fn` in the scorealign package."""
        traced = self._wrap(name, fn, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("scorealign"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, traced)

    def _patch_method(self, cls, method, name, after=None):
        fn = cls.__dict__[method]
        self._patches.append((cls, method, fn))
        setattr(cls, method, self._wrap(name, fn, after))

    def install(self):
        from scorealign import align, heads, metrics, net, synth, tensorio

        c = self.counts

        def file_bytes(key):
            def after(args, kwargs, result):
                c[key] += os.path.getsize(args[0])
            return after

        def elements(key):
            def after(args, kwargs, result):
                c[key] += int(np.size(args[0]))
            return after

        self._patch_function(tensorio.read_tensor, "tensorio.read_tensor",
                             file_bytes("tensorio.read_tensor.bytes"))
        self._patch_function(tensorio.write_tensor, "tensorio.write_tensor",
                             file_bytes("tensorio.write_tensor.bytes"))
        self._patch_function(tensorio.read_manifest, "tensorio.read_manifest")

        self._patch_function(synth.generate, "synth.generate")
        self._patch_function(synth.fit_coreset, "synth.fit_coreset")

        def knn_queries(args, kwargs, result):
            c["synth.score_knn.queries"] += int(np.size(result))
        self._patch_function(synth.score_knn, "synth.score_knn", knn_queries)

        self._patch_function(align.fit_class_stats, "align.fit_class_stats")
        meanmax_sig = inspect.signature(align.normalize_meanmax)

        def clamps(args, kwargs, result):
            # the documented clamp condition of normalize_meanmax
            bound = meanmax_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            c["align.degenerate_clamps"] += (a["gamma"] - a["u"]) < a["eps"]
        self._patch_function(align.normalize_meanmax, "align.normalize_meanmax", clamps)

        evaluate_sig = inspect.signature(metrics.evaluate)

        def evaluate_duplicates(args, kwargs, result):
            bound = evaluate_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            digest = hashlib.blake2b(repr(a["top_fraction"]).encode())
            digest.update(repr(sorted(a["masks"] or {})).encode())
            for e in a["manifest"].split("test"):
                digest.update(f"{e.image_id},{e.label},{e.class_id};".encode())
                digest.update(np.ascontiguousarray(a["score_maps"][e.image_id]).tobytes())
            key = digest.digest()
            c["metrics.evaluate.duplicates"] += key in self._eval_keys
            self._eval_keys.add(key)
        self._patch_function(metrics.evaluate, "metrics.evaluate", evaluate_duplicates)
        self._patch_function(metrics.auroc, "metrics.auroc", elements("metrics.auroc.elements"))
        self._patch_function(metrics.average_precision, "metrics.average_precision",
                             elements("metrics.average_precision.elements"))
        self._patch_function(metrics.image_score, "metrics.image_score")

        self._patch_function(heads.train_regressor, "heads.train")
        self._patch_function(heads.train_classifier, "heads.train")
        self._patch_function(heads.predict_stats, "heads.predict")
        self._patch_function(heads.predict_class, "heads.predict")

        for layer in NET_LAYERS:
            cls = getattr(net, layer)
            fwd_after = bwd_after = None
            if layer == "Conv3x3":
                def fwd_after(args, kwargs, result):
                    c["net.Conv3x3.flops"] += _conv_flops(args[0], args[1], 1)

                def bwd_after(args, kwargs, result):
                    # weight gradient and input gradient: two passes
                    c["net.Conv3x3.flops"] += _conv_flops(args[0], result, 2)
            self._patch_method(cls, "forward", f"net.{layer}.forward", fwd_after)
            self._patch_method(cls, "backward", f"net.{layer}.backward", bwd_after)
        self._patch_method(net.SGD, "step", "net.SGD.step")
        self._patch_function(net.smooth_l1, "net.smooth_l1")
        self._patch_function(net.cross_entropy, "net.cross_entropy")

        network_forward = net.Network.__dict__["forward"]
        marks = self.step_marks

        def forward_marked(network, x, mode="eval", rng=None):
            if mode == "train":
                marks.append(time.perf_counter())
            return network_forward(network, x, mode=mode, rng=rng)
        self._patches.append((net.Network, "forward", network_forward))
        net.Network.forward = forward_marked

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics ---------------------------------------------

    def layer_metrics(self, nonzero_exits: int) -> dict:
        total = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        c = self.counts
        m = {}
        for sub in CLI_SUBCOMMANDS:
            m[f"cli.{sub}.s"] = total[f"cli.{sub}"]
        m["cli.nonzero_exits"] = nonzero_exits

        for layer in NET_LAYERS:
            for phase in ("forward", "backward"):
                m[f"net.{layer}.{phase}.s"] = total[f"net.{layer}.{phase}"]
                m[f"net.{layer}.{phase}.calls"] = calls[f"net.{layer}.{phase}"]
        for name in ("net.SGD.step", "net.smooth_l1", "net.cross_entropy"):
            m[f"{name}.s"] = total[name]
        conv_s = total["net.Conv3x3.forward"] + total["net.Conv3x3.backward"]
        m["net.Conv3x3.flops"] = c["net.Conv3x3.flops"]
        m["net.Conv3x3.gflops_per_s"] = c["net.Conv3x3.flops"] / conv_s / 1e9 if conv_s else 0.0

        train = [i for i, s in enumerate(self.spans) if s[0] == "heads.train"]
        m["heads.train.calls"] = len(train)
        m["heads.train.s"] = total["heads.train"]
        m["heads.train.self_s"] = sum(self.spans[i][2] - self.spans[i][1] - child[i]
                                      for i in train)
        steps = []
        for i in train:
            _, start, end, _ = self.spans[i]
            inside = [t for t in self.step_marks if start <= t <= end]
            steps.extend(np.diff(inside) * 1e3)
        m["heads.train.steps"] = len(self.step_marks)
        m["heads.step_ms.count"] = len(steps)
        m["heads.step_ms.p50"] = float(np.percentile(steps, 50)) if steps else 0.0
        m["heads.step_ms.p99"] = float(np.percentile(steps, 99)) if steps else 0.0
        m["heads.predict.calls"] = calls["heads.predict"]
        m["heads.predict.s"] = total["heads.predict"]

        m["metrics.evaluate.calls"] = calls["metrics.evaluate"]
        m["metrics.evaluate.s"] = total["metrics.evaluate"]
        m["metrics.evaluate.duplicate_ratio"] = (
            c["metrics.evaluate.duplicates"] / calls["metrics.evaluate"]
            if calls["metrics.evaluate"] else 0.0)
        for name in ("metrics.auroc", "metrics.average_precision"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = total[name]
            m[f"{name}.elements"] = c[f"{name}.elements"]
        m["metrics.image_score.calls"] = calls["metrics.image_score"]
        m["metrics.image_score.s"] = total["metrics.image_score"]

        m["synth.generate.s"] = total["synth.generate"]
        m["synth.fit_coreset.s"] = total["synth.fit_coreset"]
        m["synth.score_knn.calls"] = calls["synth.score_knn"]
        m["synth.score_knn.s"] = total["synth.score_knn"]
        m["synth.score_knn.queries"] = c["synth.score_knn.queries"]

        for name in ("tensorio.read_tensor", "tensorio.write_tensor"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = total[name]
            m[f"{name}.bytes"] = c[f"{name}.bytes"]
        m["tensorio.read_manifest.s"] = total["tensorio.read_manifest"]

        m["align.fit_class_stats.s"] = total["align.fit_class_stats"]
        m["align.normalize_meanmax.calls"] = calls["align.normalize_meanmax"]
        m["align.normalize_meanmax.s"] = total["align.normalize_meanmax"]
        m["align.degenerate_clamps"] = c["align.degenerate_clamps"]
        m["align.clamp_ratio"] = (c["align.degenerate_clamps"] / calls["align.normalize_meanmax"]
                                  if calls["align.normalize_meanmax"] else 0.0)
        return m
