"""Spans around the public functions of each sublin module, patched from outside.

`Tracer.patch(modules)` replaces each traced function with a wrapper in every sublin
module (and the package namespace) that binds it, so calls made through any
import path are seen; `restore()` puts the originals back. Spans live in
memory as (name, start, end, parent span index, op id) and are written out by
`write_spans`. A span's self time is its duration minus that of its direct
children.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Functions that get a span, by module. Each reports calls, self time and errors.
SPANNED = {
    "data_io": ("generate_synthetic", "write_jsonl", "read_jsonl", "read_cxl_dataset"),
    "graphs": ("to_representation",),
    "matching": ("optimal_align", "sdp", "exact_sdp", "kernel_value", "induced_distance"),
    "model": ("evaluate", "classify", "predict_multiclass"),
    "learning": ("subgradient_step", "train_binary", "train_one_vs_all", "knn_classify"),
    "protocol": ("run_protocol",),
}
# Functions only counted (no span, so their time stays with the caller): each
# call reads one GXL or CXL file.
COUNTED = {"data_io": ("parse_gxl_file", "parse_cxl_file")}
# Per-order self-time buckets, keyed by max(order of both arguments).
BUCKETED = ("matching.optimal_align", "matching.exact_sdp")
ORDERS = range(2, 10)
TRAINERS = ("learning.train_binary", "learning.train_one_vs_all")


def metric_unit(name: str) -> str:
    if "self_s" in name or name.endswith("overhead_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "fraction"
    return "count"


class Tracer:
    def __init__(self):
        self.spans = []             # [name, start, end, parent, op]
        self.op = 0
        self._stack = []            # (span index, child time) of open spans
        self._active = defaultdict(int)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._densified = {}        # id -> graph, kept alive so ids stay unique
        self._patched = []

    # -- patching ----------------------------------------------------------
    def patch(self, modules=tuple(SPANNED)):
        for module in modules:
            for fn in SPANNED[module]:
                self._patch(module, fn, self._spanned)
            for fn in COUNTED.get(module, ()):
                self._patch(module, fn, self._counted)

    def _patch(self, module, fn, make):
        original = getattr(sys.modules[f"sublin.{module}"], fn)
        wrapper = make(f"{module}.{fn}", original)
        for mod in [m for name, m in sys.modules.items()
                    if m is not None and (name == "sublin" or name.startswith("sublin."))]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _counted(self, name, original):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def _spanned(self, name, original):
        def wrapper(*args, **kwargs):
            self._enter(name, args)
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.op])
            self._stack.append([index, 0.0])
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = time.perf_counter()
                self._active[name] -= 1
                _, child = self._stack.pop()
                span = self.spans[index]
                span[1], span[2] = start, end
                own = end - start - child
                self.self_s[name] += own
                if self._stack:
                    self._stack[-1][1] += end - start
                if name in BUCKETED:
                    order = max(args[0].order, args[1].order)
                    self.self_s[f"{name}.n{order}"] += own
            self._leave(name, result)
            return result
        return wrapper

    # -- counts taken at the boundaries ------------------------------------
    def _enter(self, name, args):
        self.calls[name] += 1
        if name == "graphs.to_representation":
            self._densified.setdefault(id(args[0]), args[0])
        elif name == "matching.sdp" and args[0] is args[1]:
            self.counts["sdp.self_calls"] += 1
        elif name == "matching.optimal_align" and self._active["learning.train_binary"]:
            self.counts["align.under_training"] += 1
            if not self._active["learning.subgradient_step"]:
                self.counts["align.split_pass"] += 1
        elif name in TRAINERS and not any(self._active[t] for t in TRAINERS):
            self.counts["fits"] += 1

    def _leave(self, name, result):
        if name == "learning.subgradient_step":
            self.counts["updates"] += bool(result[2])
        elif name == "learning.train_binary":
            self.counts["epochs"] += result[1].final_epoch

    # -- results -----------------------------------------------------------
    def metrics(self, protocol_ops: int, solver_calls: int, overhead_s: float):
        """Per-layer metrics. The data_io layer is traced over one set-up; the
        rest are per traced run_protocol call, averaged over `protocol_ops`."""
        out = {}
        per = lambda name, v: v if name.startswith("data_io.") else v / protocol_ops
        for module, fns in SPANNED.items():
            for fn in fns:
                name = f"{module}.{fn}"
                out[f"{name}.calls"] = per(name, self.calls[name])
                out[f"{name}.self_s"] = per(name, self.self_s[name])
                out[f"{name}.errors"] = per(name, self.errors[name])
        out["data_io.read_cxl_dataset.files"] = (self.counts["data_io.parse_gxl_file"]
                                                 + self.counts["data_io.parse_cxl_file"])
        reps = self.calls["graphs.to_representation"]
        out["graphs.to_representation.unique_ratio"] = len(self._densified) / reps if reps else 0.0
        for b in BUCKETED:
            for k in ORDERS:
                out[f"{b}.self_s.n{k}"] = self.self_s[f"{b}.n{k}"] / protocol_ops
        steps = self.calls["learning.subgradient_step"]
        aligned = self.counts["align.under_training"]
        out.update({
            "matching.sdp.self_calls": self.counts["sdp.self_calls"] / protocol_ops,
            "matching.solver_calls": solver_calls / protocol_ops,
            "learning.update_ratio": self.counts["updates"] / steps if steps else 0.0,
            "learning.epochs": self.counts["epochs"] / protocol_ops,
            "learning.split_pass_share": (self.counts["align.split_pass"] / aligned
                                          if aligned else 0.0),
            "protocol.fits": self.counts["fits"] / protocol_ops,
            "trace.overhead_s": overhead_s,
        })
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}))
                fh.write("\n")
