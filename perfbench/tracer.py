"""Span recorder that wraps the package's functions from outside the package.

The program has no tracing of its own, so a traced run patches each layer
function at the place it is looked up at call time.  Several modules import
functions by name (``fractal`` binds ``mlp_forward``, ``reverse_step`` and
the ``core`` helpers; ``bench`` binds ``generate``, ``fuse`` and
``train_step``), so those bindings are patched as well as the defining
module.  Spans live in memory and are written out once, after the run.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

# (module under fractaldepth, attribute, span name).  One span name may be
# bound in several modules; each binding wraps the original function.
PATCHES = [
    ("fractal", "mlp_forward", "nnet.mlp_forward"),
    ("fractal", "mlp_backward", "nnet.mlp_backward"),
    ("fractal", "adamw_step", "nnet.adamw_step"),
    ("fractal", "reverse_step", "diffusion.reverse_step"),
    ("fractal", "forward_noise", "diffusion.forward_noise"),
    ("fractal", "upsample_bilinear", "core.upsample_bilinear"),
    ("fractal", "split_patches_with_context", "core.split_patches_with_context"),
    ("fractal", "reassemble_patches", "core.reassemble_patches"),
    ("fractal", "denormalize", "core.denormalize"),
    ("fractal", "encode_targets", "fractal.encode_targets"),
    ("fractal", "generate", "fractal.generate"),
    ("fractal", "train_step", "fractal.train_step"),
    ("fractal", "save_trace", "fractal.save_trace"),
    ("fractal", "load_model", "fractal.load_model"),
    ("bench", "generate", "fractal.generate"),
    ("bench", "train_step", "fractal.train_step"),
    ("bench", "load_model", "fractal.load_model"),
    ("bench", "fuse", "urca.fuse"),
    ("bench", "gen_scene", "bench.gen_scene"),
    ("bench", "metrics", "bench.metrics"),
    ("bench", "multisample_scene", "bench.multisample_scene"),
    ("vcfr", "extract_features", "vcfr.extract_features"),
    ("vcfr", "extract_features_backward", "vcfr.extract_features_backward"),
    ("vcfr", "refine_condition", "vcfr.refine_condition"),
    ("vcfr", "refine_condition_backward", "vcfr.refine_condition_backward"),
    ("urca", "align_samples", "urca.align_samples"),
    ("urca", "fuse", "urca.fuse"),
    ("imgio", "write_pfm", "imgio.write_pfm"),
    ("imgio", "write_pgm16", "imgio.write_pgm16"),
]


def _mlp_cost(sizes, rows: int):
    """FLOPs and bytes of one forward pass, computed from the layer shapes."""
    flop = 0
    nbytes = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        flop += 2 * rows * fan_in * fan_out
        nbytes += 8 * (fan_in * fan_out + fan_out + rows * fan_in + rows * fan_out)
    return flop, nbytes


class Tracer:
    """In-memory spans: (name, start, end, parent id, op id, attrs)."""

    def __init__(self, fd):
        self.fd = fd          # the imported ``fractaldepth`` package
        self.model = None     # FractalModel whose MLPs tag the level
        self.spans = []
        self._stack = []
        self._op = None
        self._annotate = {
            "nnet.mlp_forward": self._ann_mlp_forward,
            "nnet.mlp_backward": self._ann_mlp_backward,
            "urca.align_samples": self._ann_align,
            "imgio.write_pfm": self._ann_file,
            "imgio.write_pgm16": self._ann_file,
        }

    # --- recording ---------------------------------------------------------

    def _wrap(self, fn, name):
        annotate = self._annotate.get(name)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self._op, None)
            if annotate is not None:
                self.spans[sid] = self.spans[sid][:5] + (annotate(args, kwargs, out),)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id):
        """Trace one op: patch every layer function, record a root span."""
        saved = []
        for mod_name, attr, name in PATCHES:
            mod = getattr(self.fd, mod_name)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))
        rng_cls = self.fd.rng.RngStream
        orig_normal = rng_cls.normal
        rng_cls.normal = self._wrap(orig_normal, "rng.normal")
        self._op = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = ("op", start, end, None, op_id, None)
            self._op = None
            rng_cls.normal = orig_normal
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    # --- annotations (run after the call, outside the timed interval) -------

    def _ann_mlp_forward(self, args, kwargs, out):
        params, x = args[0], args[1]
        rows = 1 if x.ndim == 1 else x.shape[0]
        level = next((i for i, m in enumerate(self.model.mlps) if m is params), None)
        return (level, rows) + _mlp_cost(params.sizes, rows)

    def _ann_mlp_backward(self, args, kwargs, out):
        params, cache = args[0], args[1]
        rows = cache[0][0].shape[0]
        flop, _ = _mlp_cost(params.sizes, rows)
        return (None, rows, 2 * flop, None)   # dW and dx: two matmuls per layer

    def _ann_align(self, args, kwargs, out):
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg", self.fd.urca.URCAConfig())
        iterations = len(out.objective_trace) - 1
        return (iterations, iterations >= cfg.max_iter)

    def _ann_file(self, args, kwargs, out):
        return (os.path.getsize(args[0]),)

    # --- reduction -----------------------------------------------------------

    def per_layer(self, n_ops: int, overhead_frac: float) -> dict:
        """Per-op layer metrics: inclusive ms, self ms, calls and counters.

        Spans of op ``"setup"`` (the traced model load) count per run, not
        per op.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = {}
        self_t = {}
        calls = {}
        level_ms = [0.0] * 4
        fwd = [0, 0, 0]              # rows, flop, bytes
        bwd_flop = 0
        align = [0, 0]               # iterations, capped calls
        written = 0
        load_model_s = 0.0
        for sid, (name, start, end, parent, op, attrs) in enumerate(self.spans):
            dur = end - start
            if op == "setup":
                if name == "fractal.load_model":
                    load_model_s += dur
                continue
            total[name] = total.get(name, 0.0) + dur
            self_t[name] = self_t.get(name, 0.0) + dur - child[sid]
            calls[name] = calls.get(name, 0) + 1
            if name == "nnet.mlp_forward":
                level, rows, flop, nbytes = attrs
                if level is not None and level < len(level_ms):
                    level_ms[level] += dur
                fwd[0] += rows
                fwd[1] += flop
                fwd[2] += nbytes
            elif name == "nnet.mlp_backward":
                bwd_flop += attrs[2]
            elif name == "urca.align_samples":
                align[0] += attrs[0]
                align[1] += attrs[1]
            elif name.startswith("imgio.write_"):
                written += attrs[0]

        n = max(n_ops, 1)

        def ms(name):
            return 1e3 * total.get(name, 0.0) / n

        def self_ms(name):
            return 1e3 * self_t.get(name, 0.0) / n

        def per_op(name):
            return calls.get(name, 0) / n

        fwd_calls = calls.get("nnet.mlp_forward", 0)
        align_calls = calls.get("urca.align_samples", 0)
        out = {f"nnet.mlp_forward.level{i}.ms": 1e3 * level_ms[i] / n for i in range(4)}
        out.update({
            "nnet.mlp_forward.calls": per_op("nnet.mlp_forward"),
            "nnet.mlp_forward.rows_per_call": fwd[0] / fwd_calls if fwd_calls else 0.0,
            "nnet.mlp_forward.gflop": fwd[1] / 1e9 / n,
            "nnet.mlp_forward.gbytes": fwd[2] / 1e9 / n,
            "nnet.mlp_backward.ms": ms("nnet.mlp_backward"),
            "nnet.mlp_backward.gflop": bwd_flop / 1e9 / n,
            "nnet.adamw_step.ms": ms("nnet.adamw_step"),
            "diffusion.reverse_step.ms": ms("diffusion.reverse_step"),
            "diffusion.reverse_step.calls": per_op("diffusion.reverse_step"),
            "diffusion.forward_noise.ms": ms("diffusion.forward_noise"),
            "vcfr.extract_features.ms": ms("vcfr.extract_features"),
            "vcfr.extract_features.calls": per_op("vcfr.extract_features"),
            "vcfr.refine_condition.ms": ms("vcfr.refine_condition"),
            "vcfr.extract_features_backward.ms": ms("vcfr.extract_features_backward"),
            "vcfr.refine_condition_backward.ms": ms("vcfr.refine_condition_backward"),
            "core.upsample_bilinear.ms": ms("core.upsample_bilinear"),
            "core.split_patches_with_context.ms": ms("core.split_patches_with_context"),
            "core.reassemble_patches.ms": ms("core.reassemble_patches"),
            "core.denormalize.ms": ms("core.denormalize"),
            "rng.normal.ms": ms("rng.normal"),
            "rng.normal.calls": per_op("rng.normal"),
            "urca.align_samples.ms": ms("urca.align_samples"),
            "urca.align_samples.iterations": align[0] / align_calls if align_calls else 0.0,
            "urca.align_samples.capped_frac": align[1] / align_calls if align_calls else 0.0,
            "urca.fuse.self_ms": self_ms("urca.fuse"),
            "fractal.generate.self_ms": self_ms("fractal.generate"),
            "fractal.train_step.self_ms": self_ms("fractal.train_step"),
            "fractal.encode_targets.ms": ms("fractal.encode_targets"),
            "fractal.save_trace.self_ms": self_ms("fractal.save_trace"),
            "fractal.load_model.ms": 1e3 * load_model_s,
            "bench.multisample_scene.self_ms": self_ms("bench.multisample_scene"),
            "bench.gen_scene.ms": ms("bench.gen_scene"),
            "bench.metrics.ms": ms("bench.metrics"),
            "imgio.write_pfm.ms": ms("imgio.write_pfm"),
            "imgio.write_pgm16.ms": ms("imgio.write_pgm16"),
            "imgio.bytes_written": written / n,
            "trace.overhead_frac": overhead_frac,
        })
        return out

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans were opened."""
        with open(path, "w") as f:
            for sid, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if attrs is not None:
                    rec["attrs"] = attrs
                f.write(json.dumps(rec) + "\n")
