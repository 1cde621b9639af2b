#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fib_churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The benchmark is built from source
into $CARGO_TARGET_DIR (default .bench_build) under the checkout, with CMake
in Release mode. Prints a run manifest, the benchmark's own report lines,
and as the last line one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("fib_churn", "table1_mix", "mesh_torus")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(target):
    """Configure (once) and build `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no DIP sources next to perfbench/ (expected src/CMakeLists.txt)", 2)
    out = build_dir()
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(out, "tmp")  # keep compiler temporaries in the checkout
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                        *generator], check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, target)


def read_first(path, prefix=None):
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if prefix is None:
                    return line.strip()
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unavailable"


def git(*args):
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    result = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def manifest(build_facts):
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {
        "commit": commit or "unavailable",
        "dirty": (bool(status) if status is not None else "unavailable"),
        "nproc": os.cpu_count(),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "governor": read_first("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        **build_facts,
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_one(binary, workload, args)


def run_one(binary, workload, args):
    expected = declared_metrics(args.trace)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                             cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.stderr.write(run.stdout)
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, units "
             f"{sorted(n for n in set(got) & set(expected) if got[n] != expected[n])}")

    build_facts = {}
    for line in lines:
        if line.startswith("build: "):
            build_facts = json.loads(line[len("build: "):])
    print("manifest: " + json.dumps(manifest(build_facts)))
    for line in lines[:-1]:
        print(line)
    print(f"wall_s = {time.monotonic() - started:.1f}")
    print(lines[-1])


if __name__ == "__main__":
    main()
