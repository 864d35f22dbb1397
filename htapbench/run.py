#!/usr/bin/env python3
"""Builds the HTAP benchmark from source and runs it.

Usage, from the root of a checkout:

    python3 htapbench/run.py --workload vdm_adhoc --seed 1 --seconds 30 --trace 0

The workloads are vdm_adhoc, paging_serve and journal_htap (README.md).
The engine and the benchmark are built with CMake in Release mode under
$CARGO_TARGET_DIR/htapbench (default .bench_build/htapbench); an
up-to-date build is reused. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. With --trace 1 the spans of the
traced replay are written to <build dir>/traces/ unless --trace-out names a
file.

Exit status: the benchmark's (0 correct, 1 wrong answer), or 2 when the
build or the run could not start.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "htapbench"))


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", out, "--target", "htapbench", "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "htapbench")


def arg_value(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("htapbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if arg_value(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s_seed%s.jsonl" % (arg_value(args, "--workload"),
                                    arg_value(args, "--seed"))
        args += ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
