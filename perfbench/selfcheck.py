"""Self-checks of the benchmark; run from the root of a checkout.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json has the keys, names, units and bounds the format allows.
2. Each workload, run briefly untraced and traced, prints exactly the
   metric names and units of BENCHMARK.json and reports ``correct``.  A
   traced run is correct only when every traced op's outputs are
   byte-identical to the untraced run of the same op.
3. Without the package source next to it, the benchmark exits non-zero and
   prints no result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec) -> list:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"metric entry {m}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer entry {m}")
    bad = [n for n in names if not NAME.fullmatch(n)]
    if bad or len(set(names)) != len(names):
        problems.append(f"bad or repeated names: {bad or names}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        problems.append("setup_s (s, lower) missing")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= spec["run_seconds"] <= 60:
        problems.append("workload count or run_seconds out of range")
    return problems


def check_run(spec, workload: str, trace: int) -> list:
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
        problems.append("an end-to-end metric is not positive")
    return problems


def check_without_source() -> list:
    """The benchmark alone, without src/, must refuse to run."""
    bare = os.path.join(HERE, "out", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk_train",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    checks = [("BENCHMARK.json", lambda: check_spec(spec))]
    for w in spec["workloads"]:
        for trace in (0, 1):
            checks.append((f"{w['name']} --trace {trace}",
                           lambda w=w, trace=trace: check_run(spec, w["name"], trace)))
    checks.append(("without src/", check_without_source))
    failed = 0
    for label, fn in checks:
        problems = fn()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}", flush=True)
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
