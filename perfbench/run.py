#!/usr/bin/env python3
"""Repository benchmark: build the simulator, run one workload, print
one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out PATH]
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark builds perfbench/ (which
compiles ../src) with CMake into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the workload in its own process.
With --trace 0 the result line carries the end-to-end metrics; with
--trace 1 the per-layer ones. Set-up is repeated in fresh processes
(the device-profile cache is per process) and setup_s is their median.
Nothing is written outside the build directory unless --out names a
file for the full record (machine, build, checks, simulated outcomes).

Workloads, metrics and the reasoning behind them: perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("direct_mixed", "buffered_writeback", "whatif_branch",
             "fleet_migration")
# Set-up runs per result (the measured run's own plus fresh processes).
SETUP_SAMPLES = 3
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 150


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR",
                               ROOT / ".bench_build")) / "perfbench"


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not (ROOT / "src").is_dir():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    cmd = ["cmake", "-S", str(HERE), "-B", str(out),
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", str(out), "-j2"]):
        try:
            res = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} failed: {e}")
        if res.returncode != 0:
            fail(f"build step {' '.join(step[:3])} exited {res.returncode}")
    return out / "perfbench"


def run_binary(binary, args):
    """Run one workload process; return its JSON record."""
    try:
        res = subprocess.run([str(binary)] + args, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(args)}: {e}")
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"{' '.join(args)}: exited {res.returncode}")
    return json.loads(lines[-1])


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def check_build(rec):
    b = rec["build"]
    if b["sanitized"] or not b["optimized"]:
        fail(f"refusing to record a sanitizer or unoptimised build: {b}", 3)


def measure(binary, workload, seed, seconds, trace, tiny=False):
    """One result: the measured run plus extra set-up samples."""
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)] + (["--tiny"] if tiny else [])
    main = run_binary(binary, base + ["--trace", str(trace)])
    check_build(main)
    setups = [main["setup_s"]]
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_binary(binary, base + ["--trace", "0",
                                                     "--setup-only"])
                          ["setup_s"])
        main["metrics"]["setup_s"]["value"] = statistics.median(setups)
    main["setup_samples_s"] = setups
    return main


def result_line(rec):
    return {"correct": rec["failed"] == 0 and rec["attempted"] >= 1,
            "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": rec["metrics"]}


def self_test():
    """Tiny-size checks of the benchmark itself; exits nonzero on failure."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", file=sys.stderr)
        if not ok:
            problems.append(what)

    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    for bad in (["--workload", "direct_mixed", "--seed", "1", "--seconds",
                 "1", "--trace", "0", "--bogus"],
                ["--workload", "nope", "--seed", "1", "--seconds", "1",
                 "--trace", "0"]):
        res = subprocess.run([sys.executable, __file__] + bad,
                             capture_output=True, text=True, check=False)
        expect(res.returncode != 0 and not res.stdout.strip(),
               f"run.py rejects {bad[-1] if bad[-1] != '0' else bad[1]}")
    binary = build()
    res = subprocess.run([str(binary), "--workload", "direct_mixed",
                          "--seed", "1", "--seconds", "1", "--trace", "0",
                          "--out", "x"], capture_output=True, check=False)
    expect(res.returncode != 0 and not res.stdout.strip(),
           "perfbench binary rejects unknown flags")
    for w in WORKLOADS:
        runs = [measure(binary, w, 7, 1, t, tiny=True) for t in (0, 0, 1)]
        for rec in runs:
            traced = bool(rec["trace"])
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            expect(got == want[traced],
                   f"{w} trace={int(traced)}: every metric printed with "
                   f"its unit")
            expect(rec["failed"] == 0 and rec["attempted"] >= 1,
                   f"{w} trace={int(traced)}: {rec['attempted']} ops, "
                   f"{rec['failed']} failed")
        sims = [{k: v["value"] for k, v in r["sim"].items()} for r in runs]
        expect(sims[0] == sims[1] == sims[2],
               f"{w}: simulated outcomes identical across repeats and "
               f"tracing {sims[0]}")
        for k in ("sim_p99_us", "sim_mbps"):
            expect(runs[0]["metrics"][k]["value"] == sims[0][k],
                   f"{w}: end-to-end {k} is the simulated outcome")
        # The fleet residual is pool idle, which the seeded shard
        # layout decides (README.md); elsewhere it is bookkeeping.
        res_pct = runs[2]["metrics"]["trace.residual_pct"]["value"]
        lo, hi = (-10, 60) if w == "fleet_migration" else (-5, 5)
        expect(lo <= res_pct <= hi,
               f"{w}: layer self times reconcile with wall time "
               f"(residual {res_pct:.2f}%, tolerance [{lo}, {hi}]%)")
    if problems:
        fail(f"self-test: {len(problems)} problem(s)")
    print("self-test passed", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(allow_abbrev=False,
                                 description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out", type=Path,
                    help="also write the full record to this file")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        if any(v is not None for v in (a.workload, a.seed, a.seconds,
                                       a.trace, a.out)):
            ap.error("--self-test takes no other arguments")
        self_test()
        return
    if None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if a.seed < 0 or not 1 <= a.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    started = time.time()
    binary = build()
    rec = measure(binary, a.workload, a.seed, a.seconds, a.trace)
    line = result_line(rec)
    print(f"perfbench: {a.workload} seed={a.seed} trace={a.trace} "
          f"ops={rec['attempted']} op_samples={rec['op_samples']} "
          f"checks={rec['checks']} sim={rec['sim']} "
          f"setup_samples_s={rec['setup_samples_s']} build={rec['build']} "
          f"machine={machine()} wall={time.time() - started:.1f}s",
          file=sys.stderr)
    if a.out:
        full = dict(line, workload=a.workload, seed=a.seed,
                    seconds=a.seconds, trace=a.trace,
                    op_samples=rec["op_samples"], checks=rec["checks"],
                    sim=rec["sim"], setup_samples_s=rec["setup_samples_s"],
                    build=rec["build"], machine=machine())
        a.out.write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(line))


if __name__ == "__main__":
    main()
