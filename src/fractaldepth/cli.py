"""Command-line interface: train / eval / sample / fuse / plan / scene."""

from __future__ import annotations

import argparse
import fnmatch
import os
import sys

from . import bench, imgio, urca
from .core import NAMED_CONFIGS, build_schedule_plan, named_scale_config
from .errors import FractalDepthError, InputError
from .fractal import decode_level_depth, generate, load_model, sample_steps, save_trace
from .rng import RngStream


def _load_cfg(args) -> bench.RunConfig:
    cfg = bench.load_run_config(args.config) if args.config else bench.RunConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "tau", None) is not None:
        overrides["tau"] = args.tau
        overrides["multisample_tau"] = args.tau
    if getattr(args, "scale_config", None):
        overrides["scale_config"] = args.scale_config
    if overrides:
        from dataclasses import replace
        cfg = replace(cfg, **overrides)
    return cfg


def cmd_plan(args) -> int:
    cfg = named_scale_config(args.scale_config)
    plan = build_schedule_plan(cfg)
    report = bench.cost_report(plan)
    print(f"config: {args.scale_config}")
    print(f"{'level':<6}{'scale':>10}{'input':>8}{'sequence':>10}{'token_dim':>11}")
    for row in report["rows"]:
        print(f"{row['level']:<6}{row['resolution']:>10}{row['patch']:>8}"
              f"{row['sequence']:>10}{row['token_dim']:>11}")
    seq = tuple(r["sequence"] for r in report["rows"])
    print(f"sequence lengths (coarse->fine): {seq}")
    print(f"sequential stages: {report['sequential_stages']} "
          f"(token-wise AR at finest scale: {report['tokenwise_ar_steps']} steps)")
    if args.scale_config == "paper":
        alt = build_schedule_plan(named_scale_config("paper-table"))
        print("note: the published table lists sequence length 16 at the 16x16 level; "
              "the patch reading used here gives "
              f"{seq[2]}. The alternative 'paper-table' reading (4x4 patches at that "
              f"level) gives {alt.levels[2].token_count}; both are exposed as named configs.")
    return 0


def cmd_scene(args) -> int:
    cfg = _load_cfg(args)
    spec = cfg.scene_spec(args.seed if args.seed is not None else 0)
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
    out_csv = os.path.join(args.out, "eval.csv")
    os.makedirs(args.out, exist_ok=True)
    mean, _ = bench.run_eval(cfg, args.checkpoint, out_csv, n_scenes=args.scenes)
    print(f"mean: abs_rel={mean.abs_rel:.4f} rmse={mean.rmse:.4f} delta1={mean.delta1:.4f}")
    print(f"per-scene metrics written to {out_csv}")
    return 0


def cmd_sample(args) -> int:
    cfg = _load_cfg(args)
    model = load_model(args.checkpoint)
    image, _ = bench.gen_scene(cfg.scene_spec(args.seed if args.seed is not None else 0))
    trace = generate(model, image, RngStream(cfg.seed, ("sample",)), tau=cfg.tau)
    save_trace(trace, args.out, {"seed": cfg.seed, "tau": cfg.tau,
                                 "config": cfg.scale_config, "steps": sample_steps(model)})
    print(f"trace written to {args.out}")
    return 0


def cmd_fuse(args) -> int:
    cfg = _load_cfg(args)
    samples = [imgio.read_depth_pfm(p) for p in args.samples]
    trace_depths = None
    if args.trace_dir:
        if not args.checkpoint:
            raise InputError("--trace-dir requires --checkpoint to decode level latents")
        model = load_model(args.checkpoint)
        names = [f"latent_level{i}.pfm" for i in range(model.n_levels)]
        found = fnmatch.filter(os.listdir(args.trace_dir), "latent_level*.pfm")
        if sorted(found) != sorted(names):
            raise InputError(f"{args.trace_dir}: expected {names}, found {sorted(found)}")
        trace_depths = [decode_level_depth(imgio.read_pfm(os.path.join(args.trace_dir, n)), model)
                        for n in names]
    out = urca.fuse(samples, trace_depths, urca.URCAConfig())
    os.makedirs(args.out, exist_ok=True)
    align = out.alignment
    with open(os.path.join(args.out, "alignment.txt"), "w") as f:
        f.write(f"alpha={','.join(repr(float(a)) for a in align.alpha)}\n")
        f.write(f"beta={','.join(repr(float(b)) for b in align.beta)}\n")
        f.write(f"iterations={align.iterations}\n")
        f.write(f"converged={align.converged}\n")
        f.write(f"objective={align.objective_trace[-1]!r}\n")
    if not align.converged:
        print(f"warning: alignment did not converge in {align.iterations} iterations")
    imgio.write_pfm(os.path.join(args.out, "consensus.pfm"), out.consensus.values)
    imgio.write_pgm16(os.path.join(args.out, "consensus.pgm"), out.consensus)
    imgio.write_pfm(os.path.join(args.out, "uncertainty.pfm"), out.uncertainty)
    hist, edges, frac = urca.uncertainty_stats(out.uncertainty, cfg.uncertainty_threshold)
    bench._write_csv(os.path.join(args.out, "uncertainty_stats.csv"), ["bin_left", "count"],
                     [[f"{left:.6f}", int(count)] for left, count in zip(edges[:-1], hist)])
    print(f"fraction of pixels with U > {cfg.uncertainty_threshold}: {frac:.6f}")
    print(f"outputs written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fractaldepth",
                                     description="Fractal next-scale depth generation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value run config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("plan", help="print per-level token accounting")
    p.add_argument("--scale-config", default="desk", choices=sorted(NAMED_CONFIGS))
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("scene", help="generate a synthetic RGB/depth scene")
    common(p)
    p.set_defaults(func=cmd_scene)

    p = sub.add_parser("train", help="train a model on synthetic scenes")
    common(p)
    p.add_argument("--scale-config", default=None, choices=sorted(NAMED_CONFIGS))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="single-sample evaluation of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scenes", type=int, default=16)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="one generation pass, dump the trace")
    common(p)
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
    except FractalDepthError as e:
        # bad input or configuration: one line naming the error, no traceback
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
