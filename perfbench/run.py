#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload city_live --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the node libraries
from ./src and the benchmark binary into .bench_build/perfbench (RelWithDebInfo);
later calls only rebuild what changed. The workload's trace is generated and
signed by a separate process and cached in .bench_build/perfbench/traces,
keyed by workload and seed, before the measuring process starts. Build output
goes to stderr; the last stdout line is the JSON result. See README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = BUILD_DIR / "traces"
SPAN_DIR = BUILD_DIR / "spans"
BINARY = BUILD_DIR / "mvbench"
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, stdout=sys.stderr):
    """Run one child to completion; it is killed and reaped if we are stopped.
    Its stdout goes to our stderr unless `stdout` says otherwise."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("node sources (src/) not found next to perfbench/")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        code, _ = run_child(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        if code != 0:
            fail("cmake configure failed")
    code, _ = run_child(["cmake", "--build", str(BUILD_DIR), "--target", "mvbench",
                         "-j", BUILD_JOBS])
    if code != 0:
        fail("build failed")


def source_id():
    """The commit when the checkout is a git work tree, else a digest of the
    node and benchmark sources."""
    if (ROOT / ".git").exists():
        code, out = run_child(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE)
        if code == 0 and out.strip():
            return out.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def check_metrics(result, traced):
    """The reported metrics must be exactly the ones BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if result["correct"] and got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own checks and exit")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    if args.self_test:
        code, _ = run_child([str(BINARY), "selftest"], stdout=None)
        sys.exit(code)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.trace"
    code, _ = run_child([str(BINARY), "gen", "--workload", args.workload,
                         "--seed", str(args.seed), "--out", str(trace_file)])
    if code != 0:
        fail("trace generation failed")

    cmd = [str(BINARY), "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-file", str(trace_file), "--commit", source_id()]
    if args.trace:
        SPAN_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(SPAN_DIR / f"{args.workload}-seed{args.seed}.json")]
    code, out = run_child(cmd, stdout=subprocess.PIPE)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail(f"benchmark printed nothing (exit {code})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"last line is not a JSON result (exit {code})")
    check_metrics(result, args.trace == 1)
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
