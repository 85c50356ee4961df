"""Acceptance suite: one printed pass/fail line per criterion.

Heavy shared artifacts (the trained model, the toy diffusion run, the
multi-sample experiment) are built once in session fixtures and reused by
the trend, smoke and determinism criteria.
"""

import csv
import sys
import time

import numpy as np
import pytest

from fractaldepth.bench import RunConfig, build_model, run_eval, run_multisample, run_train
from fractaldepth.cli import main as cli_main
from fractaldepth.core import DepthMap
from fractaldepth.diffusion import make_linear_schedule, sample
from fractaldepth.fractal import load_model
from fractaldepth.nnet import (AdamWState, LrSchedule, adamw_step, grad_check, init_mlp,
                               lr_at, mlp_backward, mlp_forward, time_embed)
from fractaldepth.rng import RngStream
from fractaldepth.urca import URCAConfig, _consensus_minimize, align_samples


CRITERION_LINES = []


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# --- 1. gradient exactness --------------------------------------------------

def test_c01_gradient_exactness():
    t0 = time.monotonic()
    params = init_mlp([6, 24, 24, 4], RngStream(101, ("gc",)))
    x = RngStream(102, ("gx",)).normal((6,), "x")
    rep = grad_check(params, x, tolerance=1e-4, h=1e-5)
    elapsed = time.monotonic() - t0
    _report(1, "gradient exactness", rep.passed and elapsed <= 30.0,
            f"max rel err {rep.max_rel_error:.2e}, {elapsed:.1f}s")


# --- 2. schedule law --------------------------------------------------------

def test_c02_schedule_law():
    t0 = time.monotonic()
    sched = make_linear_schedule(100, 1e-4, 0.02)
    mono = bool(np.all(np.diff(sched.alpha_bar) < 0))
    rng = np.random.default_rng(202)
    z = rng.normal(size=(16, 16))
    ok = mono
    worst = 0.0
    for t in (1, 50, 100):
        ab = sched.abar(t)
        draws = rng.normal(size=(10_000,) + z.shape)
        norms = ((np.sqrt(ab) * z + np.sqrt(1 - ab) * draws) ** 2).sum(axis=(1, 2))
        expect = ab * (z ** 2).sum() + (1 - ab) * z.size
        var = (2 * (1 - ab) ** 2 + 4 * ab * z ** 2 * (1 - ab)).sum()
        se = np.sqrt(var / 10_000)
        dev = abs(norms.mean() - expect) / se
        worst = max(worst, dev)
        ok = ok and dev <= 4.0
    elapsed = time.monotonic() - t0
    _report(2, "schedule law", ok and elapsed <= 10.0,
            f"monotone={mono}, worst {worst:.2f} SE, {elapsed:.1f}s")


# --- 3. exact-noise collapse ------------------------------------------------

def test_c03_exact_noise_collapse():
    t0 = time.monotonic()
    worst = 0.0
    for T in (10, 100, 1000):
        sched = make_linear_schedule(T)
        z_star = np.random.default_rng(303).normal(size=(4, 4))

        def oracle(z_t, t, cond):
            ab = sched.abar(t)
            return (z_t - np.sqrt(ab) * z_star) / np.sqrt(1 - ab)

        out = sample(oracle, None, (4, 4), sched, 0.0, RngStream(303, ("c", T)))
        worst = max(worst, float(np.max(np.abs(out - z_star))))
    elapsed = time.monotonic() - t0
    _report(3, "exact-noise collapse", worst <= 1e-9 and elapsed <= 5.0,
            f"worst inf-norm {worst:.2e}, {elapsed:.1f}s")


# --- 4. toy conditional diffusion -------------------------------------------

TOY_CLUSTERS = {
    -1.0: (np.array([-1.5, 0.5]), np.array([0.4, 0.7])),
    1.0: (np.array([1.0, -1.0]), np.array([0.6, 0.3])),
}


def _toy_diffusion(seed, out_csv, train_steps=8000, n_draw=2000):
    """Train a conditional 2-D noise predictor and sample both clusters."""
    T = 1000
    sched = make_linear_schedule(T, 1e-4, 0.02)
    time_dim = 8
    rng = RngStream(seed, ("toy",))
    params = init_mlp([2 + time_dim + 1, 64, 64, 2], rng.child("init"))
    opt = AdamWState()
    lr_sched = LrSchedule(base_lr=2e-3, warmup_steps=200, total_steps=train_steps,
                          final_lr=1e-5)
    g = rng.generator("train")
    mus = np.stack([TOY_CLUSTERS[-1.0][0], TOY_CLUSTERS[1.0][0]])
    sds = np.stack([TOY_CLUSTERS[-1.0][1], TOY_CLUSTERS[1.0][1]])
    batch = 128
    for step in range(train_steps):
        idx = g.integers(0, 2, batch)
        z_star = mus[idx] + sds[idx] * g.standard_normal((batch, 2))
        c = (2.0 * idx - 1.0)[:, None]
        t = g.integers(1, T + 1, batch)
        eps = g.standard_normal((batch, 2))
        ab = sched.alpha_bar[t - 1][:, None]
        z_t = np.sqrt(ab) * z_star + np.sqrt(1 - ab) * eps
        x = np.concatenate([z_t, time_embed(t, time_dim), c], axis=1)
        y, cache = mlp_forward(params, x)
        grads = mlp_backward(params, cache, 2.0 * (y - eps) / y.size)
        adamw_step(params.named("p"), grads.named("p"), opt,
                   lr=lr_at(step, lr_sched), weight_decay=0.0)

    rows = []
    results = {}
    for cval in (-1.0, 1.0):
        def predictor(z, t, cond, _c=cval):
            tt = np.full(len(z), t)
            x = np.concatenate([z, time_embed(tt, time_dim),
                                np.full((len(z), 1), _c)], axis=1)
            y, _ = mlp_forward(params, x)
            return y

        draws = sample(predictor, cval, (n_draw, 2), sched, 1.0,
                       rng.child("sample", int(cval)))
        mean, std = draws.mean(axis=0), draws.std(axis=0)
        results[cval] = (mean, std)
        rows.append([f"{cval:.1f}", f"{mean[0]:.12f}", f"{mean[1]:.12f}",
                     f"{std[0]:.12f}", f"{std[1]:.12f}"])
    with open(out_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["condition", "mean_x", "mean_y", "std_x", "std_y"])
        w.writerows(rows)
    return results


@pytest.fixture(scope="session")
def acc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def toy_run(acc_dir):
    t0 = time.monotonic()
    out = acc_dir / "toy_diffusion.csv"
    results = _toy_diffusion(404, out)
    return {"results": results, "csv": out, "seconds": time.monotonic() - t0}


def test_c04_toy_conditional_diffusion(toy_run):
    ok = toy_run["seconds"] <= 90.0
    worst_mean = worst_std = 0.0
    for cval, (mean, std) in toy_run["results"].items():
        mu, sd = TOY_CLUSTERS[cval]
        worst_mean = max(worst_mean, float(np.max(np.abs(mean - mu))))
        worst_std = max(worst_std, float(np.max(np.abs(std - sd))))
    ok = ok and worst_mean <= 0.1 and worst_std <= 0.15
    _report(4, "toy conditional diffusion", ok,
            f"mean err {worst_mean:.3f}, std err {worst_std:.3f}, "
            f"{toy_run['seconds']:.0f}s")


# --- 5. consensus oracle ----------------------------------------------------

def _grid_oracle(s, r, cfg):
    """Exhaustive 1e-5-step grid search over [min, max] of the inputs."""
    vals = np.concatenate([s] if r is None else [s, r])
    lo, hi = vals.min(), vals.max()
    grid = np.arange(lo, hi + 1e-5, 1e-5)
    cs = cfg.tau_s + cfg.delta_stab
    cr = cfg.tau_r + cfg.delta_stab
    e = np.zeros_like(grid)
    for si in s:
        e += np.sqrt(((si - grid) / cs) ** 2 + cfg.eps_c ** 2) - cfg.eps_c
    if r is not None:
        w = cfg.gamma / len(r)
        for ri in r:
            e += w * (np.sqrt(((ri - grid) / cr) ** 2 + cfg.eps_c ** 2) - cfg.eps_c)
    i = int(np.argmin(e))
    return float(grid[i]), float(e[i])


def test_c05_consensus_oracle():
    t0 = time.monotonic()
    g = np.random.default_rng(505)
    worst_m = worst_u = 0.0
    for _ in range(1000):
        n = int(g.integers(1, 11))
        s = g.uniform(1.0, 4.0, n)
        r = g.uniform(1.0, 4.0, 4)
        cfg = URCAConfig(gamma=float(g.uniform(0.1, 1.0)),
                         tau_s=float(g.uniform(0.05, 0.3)),
                         tau_r=float(g.uniform(0.05, 0.3)),
                         eps_c=float(g.uniform(1e-3, 1e-2)))
        m, u = (float(v) for v in _consensus_minimize(s, r, cfg))
        mg, ug = _grid_oracle(s, r, cfg)
        worst_m = max(worst_m, abs(m - mg))
        worst_u = max(worst_u, abs(u - ug) / max(abs(ug), 1e-12))
    elapsed = time.monotonic() - t0
    ok = worst_m <= 1e-3 and worst_u <= 1e-6 and elapsed <= 60.0
    _report(5, "consensus vs grid search", ok,
            f"|dM| {worst_m:.2e}, rel |dU| {worst_u:.2e}, {elapsed:.0f}s")


# --- 6. alignment recovery --------------------------------------------------

def test_c06_alignment_recovery():
    t0 = time.monotonic()
    g = np.random.default_rng(606)
    base = g.uniform(1.0, 5.0, (16, 16))
    samples = []
    for _ in range(5):
        a = g.uniform(0.8, 1.2)
        b = g.uniform(-0.3, 0.3)
        samples.append(DepthMap(values=a * base + b + g.normal(0, 0.01, base.shape)))
    out = align_samples(samples)
    aligned = [out.alpha[i] * samples[i].values + out.beta[i] for i in range(5)]
    resid = [np.mean(np.abs(aligned[i] - aligned[j]))
             for i in range(5) for j in range(i + 1, 5)]
    mean_l1 = float(np.mean(resid))
    tr = out.objective_trace
    monotone = all(b <= a + 1e-9 for a, b in zip(tr, tr[1:]))
    elapsed = time.monotonic() - t0
    ok = mean_l1 <= 0.05 and monotone and elapsed <= 30.0
    _report(6, "alignment recovery", ok,
            f"mean pairwise L1 {mean_l1:.4f} m, monotone={monotone}, {elapsed:.1f}s")


# --- shared trained desk model ---------------------------------------------

@pytest.fixture(scope="session")
def desk_run(acc_dir):
    cfg = RunConfig()  # desk defaults: 512 scenes, 2 epochs
    out = acc_dir / "train"
    t0 = time.monotonic()
    ckpt = run_train(cfg, out)
    seconds = time.monotonic() - t0
    return {"cfg": cfg, "ckpt": ckpt, "out": out, "seconds": seconds,
            "model": load_model(ckpt)}


@pytest.fixture(scope="session")
def multi_run(acc_dir, desk_run):
    cfg = desk_run["cfg"]
    t0 = time.monotonic()
    per_seed = {}
    csvs = {}
    for seed in (0, 1, 2):
        from dataclasses import replace
        scfg = replace(cfg, seed=seed)
        out_csv = acc_dir / f"multisample_seed{seed}.csv"
        per_seed[seed] = run_multisample(scfg, None, [1, 8], out_csv, n_scenes=10,
                                         model=desk_run["model"])
        csvs[seed] = out_csv
    return {"per_seed": per_seed, "csvs": csvs, "seconds": time.monotonic() - t0}


# --- 7. multi-sample trend --------------------------------------------------

def test_c07_multisample_trend(multi_run):
    rmse = {1: [], 8: []}
    d1 = {1: [], 8: []}
    for summaries in multi_run["per_seed"].values():
        for n, mean, _ in summaries:
            rmse[n].append(mean.rmse)
            d1[n].append(mean.delta1)
    r1, r8 = float(np.mean(rmse[1])), float(np.mean(rmse[8]))
    a1, a8 = float(np.mean(d1[1])), float(np.mean(d1[8]))
    elapsed = multi_run["seconds"]
    ok = r8 <= r1 and a8 >= a1 and elapsed <= 900.0
    _report(7, "multi-sample trend", ok,
            f"RMSE {r1:.3f}->{r8:.3f}, delta1 {a1:.3f}->{a8:.3f}, {elapsed:.0f}s")


# --- 8. uncertainty tail shrink ---------------------------------------------

def test_c08_uncertainty_tail(multi_run):
    exc = {1: [], 8: []}
    for summaries in multi_run["per_seed"].values():
        for n, _, frac in summaries:
            exc[n].append(frac)
    e1, e8 = float(np.mean(exc[1])), float(np.mean(exc[8]))
    _report(8, "uncertainty tail shrink", e8 <= e1,
            f"fraction U>1.0: {e1:.4f} -> {e8:.4f}")


# --- 9. plan fidelity -------------------------------------------------------

def test_c09_plan_fidelity(capsys):
    t0 = time.monotonic()
    cli_main(["plan", "--scale-config", "paper"])
    paper_out = capsys.readouterr().out
    cli_main(["plan", "--scale-config", "desk"])
    desk_out = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    ok = ("(1, 16, 256, 256)" in paper_out
          and "paper-table" in paper_out  # the g2 discrepancy is flagged
          and "(1, 16, 256, 64)" in desk_out
          and elapsed <= 1.0)
    _report(9, "plan fidelity", ok, f"{elapsed:.2f}s")


# --- 10. end-to-end smoke ---------------------------------------------------

def test_c10_end_to_end_smoke(acc_dir, desk_run):
    cfg = desk_run["cfg"]
    untrained = build_model(cfg)
    base_mean, base_reports = run_eval(cfg, None, None, n_scenes=16, model=untrained)
    csv_path = acc_dir / "eval_trained.csv"
    mean, reports = run_eval(cfg, None, csv_path, n_scenes=16, model=desk_run["model"])
    reduction = 1.0 - mean.rmse / base_mean.rmse
    mono = all(r.delta1 <= r.delta2 <= r.delta3
               for r in base_reports + reports + [base_mean, mean])
    ok = desk_run["seconds"] <= 600.0 and reduction >= 0.40 and mono
    _report(10, "end-to-end smoke", ok,
            f"RMSE {base_mean.rmse:.3f} -> {mean.rmse:.3f} "
            f"({100 * reduction:.0f}% reduction), train {desk_run['seconds']:.0f}s, "
            f"delta monotone={mono}")


# --- 11. determinism --------------------------------------------------------

def test_c11_determinism(acc_dir, toy_run, desk_run, multi_run):
    # toy diffusion rerun
    toy2 = acc_dir / "toy_diffusion_rerun.csv"
    _toy_diffusion(404, toy2)
    toy_ok = toy_run["csv"].read_bytes() == toy2.read_bytes()
    # multi-sample rerun (seed 0)
    from dataclasses import replace
    ms2 = acc_dir / "multisample_seed0_rerun.csv"
    run_multisample(replace(desk_run["cfg"], seed=0), None, [1, 8], ms2, n_scenes=10,
                    model=desk_run["model"])
    ms_ok = multi_run["csvs"][0].read_bytes() == ms2.read_bytes()
    # full training rerun
    out2 = acc_dir / "train_rerun"
    run_train(desk_run["cfg"], out2)
    tr_ok = ((desk_run["out"] / "loss_curve.csv").read_bytes()
             == (out2 / "loss_curve.csv").read_bytes()
             and (desk_run["out"] / "validation.csv").read_bytes()
             == (out2 / "validation.csv").read_bytes())
    _report(11, "determinism", toy_ok and ms_ok and tr_ok,
            f"toy={toy_ok}, multisample={ms_ok}, training={tr_ok}")
