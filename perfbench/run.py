#!/usr/bin/env python3
"""Builds the idg_perfbench binary from source and runs one benchmark workload.

    python3 perfbench/run.py --workload cycle-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The binary is configured and built into
.bench_build (or $CARGO_TARGET_DIR when set) on first use; later runs only
re-check the build. Build output goes to stderr, so the last line of stdout
is the binary's JSON result. Traces and result files land in .bench_run.

--self-test runs every workload at tiny size, traced and untraced, and
checks the emitted results and traces against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cycle-long", "wide-field", "sharded", "service")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no repository sources under {ROOT}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "idg_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "idg_perfbench"


def source_digest():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", BENCH_DIR.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-" + digest.hexdigest()[:16]


def run_env(workload):
    """The environment one workload runs in.

    OMP_NUM_THREADS keeps the compute threads within the CPUs this process
    may use, so the OpenMP teams do not fight each other for them.
    cycle-long's pipelined executor runs an FFT stage thread and a
    one-thread adder pool beside the gridder stage's team; sharded runs two
    worker processes and service two jobs at once, each with its own team.
    A fixed MALLOC_MMAP_THRESHOLD_ turns off glibc's sliding threshold, so
    every buffer above 128 KiB is mapped and unmapped with its lifetime and
    peak_rss_mb follows live memory instead of what the arenas kept.
    """
    cpus = len(os.sched_getaffinity(0))
    team = {"cycle-long": cpus - 2, "wide-field": cpus,
            "sharded": cpus // 2, "service": cpus // 2}[workload]
    return dict(os.environ, IDG_PERFBENCH_COMMIT=source_digest(),
                OMP_NUM_THREADS=str(max(1, team)),
                MALLOC_MMAP_THRESHOLD_="131072")


def run_binary(binary, workload, args, capture=False):
    return subprocess.run([str(binary), "--workload", workload] + args,
                          cwd=ROOT, env=run_env(workload),
                          timeout=RUN_TIMEOUT_S, text=True,
                          capture_output=capture)


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def self_test(binary):
    """Tiny pass over every workload and mode; returns the failure list."""
    spec = strict_json((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    failures = []
    if sorted(names) != sorted(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {names}")
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            seed = 7
            what = f"{workload} trace {trace}"
            proc = run_binary(binary, workload,
                              ["--seed", str(seed), "--seconds", "1",
                               "--trace", trace, "--tiny"], capture=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{what}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-400:]}")
                continue
            result = strict_json(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{what}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 \
                    or result["attempted"] < 1:
                failures.append(f"{what}: correct={result['correct']} "
                                f"attempted={result['attempted']} "
                                f"failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{what}: metric names/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)):
                    failures.append(f"{what}: {name} is not a number")
            if trace == "0":
                for name, metric in result["metrics"].items():
                    if metric["value"] <= 0:
                        failures.append(f"{what}: {name} is {metric['value']}")
            else:
                trace_file = ROOT / ".bench_run" / f"trace-{workload}-{seed}.json"
                events = strict_json(trace_file.read_text())["traceEvents"]
                ours = [e for e in events
                        if str(e.get("name", "")).startswith("bench:")]
                if not ours:
                    failures.append(f"{what}: no benchmark spans in {trace_file}")
                # Spans never add up to more than the traced wall. Service
                # counts only the daemon's library spans, and its tiny jobs
                # spend a large share outside them (job build, PSF image,
                # CLEAN), so its floor is lower.
                coverage = result["metrics"]["obs.coverage"]["value"]
                floor = 0.5 if workload == "service" else 0.9
                if not floor <= coverage <= 1.0 + 1e-9:
                    failures.append(f"{what}: obs.coverage {coverage} "
                                    f"outside [{floor}, 1]")
            result_file = (ROOT / ".bench_run" /
                           f"result-{workload}-{seed}-trace{trace}.json")
            context = strict_json(result_file.read_text())["context"]
            for key in ("nproc", "host_fingerprint", "perf_counters",
                        "build_type", "commit", "sizes", "seed"):
                if key not in context:
                    failures.append(f"{what}: context lacks {key}")
            log(f"self-test {what}: ok" if not failures else
                f"self-test {what}: {len(failures)} failure(s) so far")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 3

    if args.self_test:
        failures = self_test(binary)
        for failure in failures:
            log(f"FAILED {failure}")
        log("self-test " + ("failed" if failures else "passed"))
        return 1 if failures else 0

    try:
        proc = run_binary(binary, args.workload,
                          ["--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", args.trace])
    except subprocess.TimeoutExpired:
        log(f"idg_perfbench exceeded {RUN_TIMEOUT_S} s")
        return 4
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
