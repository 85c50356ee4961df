"""Command-line interface: train / eval / sample / fuse / plan / scene."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import bench, imgio, urca
from .core import NAMED_CONFIGS, named_scale_config
from .errors import FractalDepthError, InputError
from .fractal import generate, load_model, load_trace_depths, sample_steps, save_trace
from .rng import RngStream


def _load_cfg(args) -> bench.RunConfig:
    cfg = bench.load_run_config(args.config) if args.config else bench.RunConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "tau", None) is not None:
        overrides.update(tau=args.tau, multisample_tau=args.tau)
    if getattr(args, "scale_config", None):
        overrides["scale_config"] = args.scale_config
    return replace(cfg, **overrides)


def cmd_plan(args) -> int:
    levels = named_scale_config(args.scale_config).levels
    print(f"config: {args.scale_config}")
    print(f"{'level':<6}{'scale':>10}{'input':>8}{'sequence':>10}{'token_dim':>11}")
    for i, lv in enumerate(levels):
        print(f"{f'g{len(levels) - i}':<6}{lv.resolution:>10}{lv.patch_size:>8}"
              f"{lv.token_count:>10}{lv.token_dim:>11}")
    seq = tuple(lv.token_count for lv in levels)
    print(f"sequence lengths (coarse->fine): {seq}")
    print(f"sequential stages: {len(levels)} "
          f"(token-wise AR at finest scale: {levels[-1].resolution ** 2} steps)")
    if args.scale_config == "paper":
        alt = named_scale_config("paper-table").levels
        print("note: the published table lists sequence length 16 at the 16x16 level; "
              "the patch reading used here gives "
              f"{seq[2]}. The alternative 'paper-table' reading (4x4 patches at that "
              f"level) gives {alt[2].token_count}; both are exposed as named configs.")
    return 0


def cmd_scene(args) -> int:
    cfg = _load_cfg(args)
    spec = cfg.scene_spec(cfg.seed)
    image, depth = bench.gen_scene(spec)
    os.makedirs(args.out, exist_ok=True)
    imgio.write_pfm(os.path.join(args.out, "depth.pfm"), depth.values)
    imgio.write_pgm16(os.path.join(args.out, "depth.pgm"), depth)
    for c, name in enumerate("rgb"):
        imgio.write_pfm(os.path.join(args.out, f"image_{name}.pfm"), image[:, :, c])
    print(f"scene seed={spec.seed} resolution={spec.resolution} written to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    ckpt = bench.run_train(cfg, args.out)
    print(f"checkpoint written to {ckpt}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    if args.scenes < 1:
        raise InputError(f"the scene count must be >= 1, got --scenes {args.scenes}")
    model = load_model(args.checkpoint)
    out_csv = os.path.join(args.out, "eval.csv")
    os.makedirs(args.out, exist_ok=True)
    mean, _ = bench.run_eval(cfg, model, out_csv, args.scenes)
    print(f"mean: abs_rel={mean.abs_rel:.4f} rmse={mean.rmse:.4f} delta1={mean.delta1:.4f}")
    print(f"per-scene metrics written to {out_csv}")
    return 0


def cmd_sample(args) -> int:
    cfg = _load_cfg(args)
    model = load_model(args.checkpoint)
    image, _ = bench.model_scene(model, cfg.seed)
    trace = generate(model, image, RngStream(cfg.seed, ("sample",)), tau=cfg.tau)
    # the levels as plain tuples: levels=((1, 1), (4, 1), ...); the reverse
    # steps per level, coarse -> fine: steps=8,8,8,15
    save_trace(trace, args.out, {"seed": cfg.seed, "tau": cfg.tau,
                                 "levels": tuple(map(tuple, model.cfg.levels)),
                                 "steps": ",".join(map(str, sample_steps(model)))})
    print(f"trace written to {args.out}")
    return 0


def cmd_fuse(args) -> int:
    cfg = _load_cfg(args)
    samples = [imgio.read_depth_pfm(p) for p in args.samples]
    if bool(args.trace_dir) != bool(args.checkpoint):
        raise InputError("--trace-dir and --checkpoint go together: the checkpoint decodes "
                         "the trace's level latents")
    trace_depths = (load_trace_depths(args.trace_dir, load_model(args.checkpoint))
                    if args.trace_dir else None)
    out = urca.fuse(samples, trace_depths, urca.URCAConfig())
    os.makedirs(args.out, exist_ok=True)
    align = out.alignment
    with open(os.path.join(args.out, "alignment.txt"), "w") as f:
        f.write(f"alpha={','.join(repr(float(a)) for a in align.alpha)}\n")
        f.write(f"beta={','.join(repr(float(b)) for b in align.beta)}\n")
        f.write(f"iterations={align.iterations}\n")
        f.write(f"converged={align.converged}\n")
        f.write(f"objective={align.objective_trace[-1]!r}\n")
        f.write(f"bisection_rounds={out.bisection_rounds}\n")
    if not align.converged:
        print(f"warning: alignment did not converge in {align.iterations} iterations")
    if out.bisection_rounds >= urca._MAX_ROUNDS:
        print(f"warning: the consensus bisection stopped at its cap of {urca._MAX_ROUNDS} "
              f"rounds; some brackets may be wider than {urca._Z_TOL:g} m")
    imgio.write_pfm(os.path.join(args.out, "consensus.pfm"), out.consensus.values)
    imgio.write_pgm16(os.path.join(args.out, "consensus.pgm"), out.consensus)
    imgio.write_pfm(os.path.join(args.out, "uncertainty.pfm"), out.reliability)
    hist, edges, frac = urca.uncertainty_stats(out.reliability, cfg.uncertainty_threshold)
    bench._write_csv(os.path.join(args.out, "uncertainty_stats.csv"), ["bin_left", "count"],
                     [[f"{left:.6f}", int(count)] for left, count in zip(edges[:-1], hist)])
    print(f"fraction of pixels with U > {cfg.uncertainty_threshold}: {frac:.6f}")
    print(f"outputs written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fractaldepth",
                                     description="Fractal next-scale depth generation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *overrides):
        p.add_argument("--config", help="key=value run config file")
        for name in overrides:      # the run settings the command reads
            p.add_argument(f"--{name}", type={"seed": int, "tau": float}[name], default=None)
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("plan", help="print per-level token accounting")
    p.add_argument("--scale-config", default="desk", choices=sorted(NAMED_CONFIGS))
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("scene", help="generate a synthetic RGB/depth scene")
    common(p, "seed")
    p.set_defaults(func=cmd_scene)

    p = sub.add_parser("train", help="train a model on synthetic scenes")
    common(p, "seed", "tau")
    p.add_argument("--scale-config", default=None, choices=sorted(NAMED_CONFIGS))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="single-sample evaluation of a checkpoint")
    common(p, "seed", "tau")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scenes", type=int, default=16)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="one generation pass, dump the trace")
    common(p, "seed", "tau")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fuse", help="URCA fusion of PFM depth samples")
    common(p)
    p.add_argument("samples", nargs="+", help="PFM depth maps")
    p.add_argument("--trace-dir", default=None, help="trace directory for the recursive term")
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=cmd_fuse)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FractalDepthError, OSError) as e:
        # bad input or configuration, or a path that cannot be read or
        # written: one line naming the error, no traceback
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
