#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train|serve|flow --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (the repository's libraries plus the driver) into
.bench_build/ with CMake, pins MFA_THREADS to the number of CPUs this process
may run on, runs the workload in a fresh process, checks its output against
BENCHMARK.json and prints, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. The line before it records the host
fingerprint. Exits non-zero, without a result line, if the build or the run
fails; exits 3 after printing the result if a correctness check failed.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "mfa_perfbench")
RUN_TIMEOUT_S = 170    # a run must end within 180 s
FIRST_RUN_LIMIT_S = 890  # the first run in a checkout builds: 900 s

# Knobs that change which code path runs; the benchmark measures defaults.
PINNED_DEFAULTS = ("MFA_POOL", "MFA_ARENA", "MFA_EXEC", "MFA_FUSE", "MFA_SIMD",
                   "MFA_OBS", "MFA_GEMM_TUNED", "MFA_SANITIZE_STORAGE",
                   "MFA_CHECK_FINITE_GRADS", "MFA_ROUTER_TRACE")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_group(cmd, timeout, what, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers under the build tool too) and waits for it before failing."""
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, start_new_session=True, **kwargs)
    except OSError as e:
        die(f"{what} failed: {e}")
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{what} timed out after {timeout:.0f} s")
    return proc.returncode, out


def run_checked(cmd, timeout, what):
    code, out = run_group(cmd, timeout, what, stderr=subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(out[-4000:])
        die(f"{what} failed with exit code {code}")


def build(jobs, deadline):
    if not os.path.isfile(os.path.join(BENCH_DIR, "CMakeLists.txt")):
        die("perfbench/CMakeLists.txt not found; run from the checkout root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, deadline - time.monotonic(), "configure")
    run_checked(["cmake", "--build", BUILD_DIR, "-j", str(jobs)],
                deadline - time.monotonic(), "build")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def check_metrics(spec, metrics, trace):
    """Validates names/units; returns the metrics object to print."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in metrics.items():
        if name not in units:
            die(f"undeclared metric {name}")
        if m.get("unit") != units[name]:
            die(f"metric {name} has unit {m.get('unit')}, "
                f"declared {units[name]}")
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            die(f"metric {name} is not a finite number")
    out = {}
    for name, unit in units.items():
        if name in metrics:
            out[name] = metrics[name]
        elif trace:
            # A layer the workload does not call spends no time in it.
            out[name] = {"value": 0, "unit": unit}
        else:
            die(f"end-to-end metric {name} missing")
        if not trace and not out[name]["value"] > 0:
            die(f"end-to-end metric {name} is not positive")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload} (have {', '.join(names)})")
    if not args.seconds > 0:
        die("--seconds must be positive")

    threads = cpu_count()
    deadline = start + FIRST_RUN_LIMIT_S
    build(min(threads, 4), deadline - RUN_TIMEOUT_S)

    env = {k: v for k, v in os.environ.items() if k not in PINNED_DEFAULTS}
    env["MFA_THREADS"] = str(threads)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")]
    code, out = run_group(
        cmd, min(RUN_TIMEOUT_S, deadline - time.monotonic()),
        f"workload {args.workload}", env=env)
    if code != 0:
        die(f"workload {args.workload} exited with code {code}")
    lines = out.strip().splitlines()
    host = next((l for l in lines if l.startswith("host: ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("workload printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("result line has unexpected keys")
    result["metrics"] = check_metrics(spec, result["metrics"], args.trace)

    if host:
        print(f"{host[:-1]}, \"workload\": \"{args.workload}\", "
              f"\"seed\": {args.seed}, \"trace\": {args.trace}}}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 3)


if __name__ == "__main__":
    main()
