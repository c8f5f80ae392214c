#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve_unique --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the
repository's sources) into .bench_build, or into $CARGO_TARGET_DIR when
that is set. Every PREDVFS_* variable is removed from the environment of
the build, the runner and the server it starts.

The last line of standard output is one JSON object: "correct",
"attempted", "failed" and "metrics" (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1).
The runner's full result, with per-rung tables and the machine
descriptor, is kept in .bench_out/. A traced run also prints its
tracing overhead against the last untraced run of the same workload
and seed.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("PREDVFS_")}


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (the runner's server child included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, env=clean_env(), **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        raise
    # Anything the command left running in its group goes too.
    kill_group(proc.pid)
    return proc.returncode, out


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def build(targets):
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "build.log", "w") as build_log:
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=build_log,
                                stderr=subprocess.STDOUT)
            if code != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                raise RuntimeError(f"configure failed; see {out_dir / 'build.log'}")
        jobs = str(min(4, os.cpu_count() or 1))
        code, _ = run_group(["cmake", "--build", str(build_dir), "-j", jobs,
                             "--target", *targets],
                            BUILD_TIMEOUT_S, stdout=build_log,
                            stderr=subprocess.STDOUT)
        if code != 0:
            raise RuntimeError(f"build failed; see {out_dir / 'build.log'}")
    return build_dir, out_dir


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_params(spec, listing):
    """The runner's metric names and workload parameters must be the
    ones BENCHMARK.json declares."""
    problems = []
    for key in ("end_to_end", "per_layer"):
        declared = [m["name"] for m in spec[key]]
        if declared != listing[key]:
            problems.append(f"{key} names differ: BENCHMARK.json {declared} "
                            f"vs runner {listing[key]}")
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if sorted(whys) != sorted(listing["workloads"]):
        problems.append("workload names differ from the runner's")
    for name, params in listing["workloads"].items():
        if not params:
            continue
        why = whys.get(name, "")
        limit = f"p99 limit {params['latency_limit_ms']:.4g} ms"
        for needle in (params["server_args"], limit):
            if needle not in why:
                problems.append(f"{name}: why does not record '{needle}'")
    return problems


def list_params(runner):
    code, out = run_group([str(runner), "--list-metrics"], RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True)
    if code != 0:
        raise RuntimeError("runner --list-metrics failed")
    return json.loads(out)


def print_overhead(out_dir, workload, seed, traced):
    untraced_path = out_dir / f"{workload}-seed{seed}-trace0.json"
    if not untraced_path.exists():
        print(f"tracing overhead: no untraced run of {workload} seed {seed} "
              f"in {out_dir} to compare with")
        return
    with open(untraced_path) as f:
        untraced = json.load(f)["end_to_end"]
    print("tracing overhead (traced - untraced, same workload and seed):")
    for name, value in traced["end_to_end"].items():
        base = untraced.get(name)
        if base is None:
            continue
        share = f" ({100.0 * (value - base) / base:+.1f}%)" if base else ""
        print(f"  {name}: {value:.6g} - {base:.6g} = {value - base:+.6g}{share}")


def selftest():
    build_dir, _ = build(["perfbench_runner", "perfbench_tests"])
    problems = check_params(load_spec(), list_params(build_dir / "perfbench_runner"))
    for p in problems:
        log(f"selftest: {p}")
    code, _ = run_group([str(build_dir / "perfbench_tests")], 600)
    return 0 if code == 0 and not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    build_dir, out_dir = build(["perfbench_runner", "example_serve_server"])
    runner = build_dir / "perfbench_runner"
    problems = check_params(spec, list_params(runner))
    if problems:
        for p in problems:
            log(p)
        return 1

    code, out = run_group(
        [str(runner), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--server", str(build_dir / "predvfs" / "examples" / "example_serve_server"),
         "--out", str(out_dir)],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"runner exited with {code}")
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(result, f, indent=1)

    key = "per_layer" if args.trace else "end_to_end"
    measured = result[key]
    declared = {m["name"]: m["unit"] for m in spec[key]}
    if sorted(measured) != sorted(declared):
        log(f"runner printed {sorted(measured)}, BENCHMARK.json declares "
            f"{sorted(declared)}")
        return 1
    if not all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in measured.values()):
        log(f"non-finite metric in {measured}")
        return 1
    if args.trace:
        print_overhead(out_dir, args.workload, args.seed, result)

    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": measured[name], "unit": declared[name]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
