#!/usr/bin/env python3
"""Build and run the mimostat request benchmark from a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Configures and builds perfbench/ (the library from the checkout's sources
plus the benchmark program) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs the statistics self-test,
then replaces itself with the benchmark process. Build output goes to
stderr; the benchmark's last stdout line is its JSON result. Workloads,
metrics and checks are described in perfbench/src/main.cpp and
BENCHMARK.json.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                   check=True, stdout=sys.stderr)


def trace_path(build_dir, argv):
    """Where a traced run leaves its Chrome trace-event JSON."""
    args = dict(zip(argv[::2], argv[1::2]))
    if args.get("--trace") != "1":
        return []
    name = "trace-%s-seed%s.json" % (args.get("--workload", "none"),
                                     args.get("--seed", "0"))
    return ["--trace-out", os.path.join(build_dir, name)]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    argv = sys.argv[1:]
    sys.stdout.flush()
    os.execv(binary, [binary] + argv + trace_path(build_dir, argv))


if __name__ == "__main__":
    sys.exit(main())
