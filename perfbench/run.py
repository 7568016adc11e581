#!/usr/bin/env python3
"""The repo benchmark: build the program optimised, run one workload, report.

    python3 perfbench/run.py --workload mark_heap --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest    # tests of the benchmark's arithmetic

The program is compiled from ../src into its own RelWithDebInfo tree under
.bench_build/ (or $CARGO_TARGET_DIR), so the repo's build files and build
type are never touched. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; every earlier line starts with
'#'. Build and progress messages go to stderr. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("mark_heap", "session_churn", "cluster_sessions")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    cmd = ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
           "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def parse_result(line):
    """The result object, or None when `line` is not a well-formed one."""
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return None
    if not isinstance(res["metrics"], dict) or not res["metrics"]:
        return None
    for m in res["metrics"].values():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            return None
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    if args.selftest:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_tests")]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    out = build(["dgr_perfbench", "dgr_worker"])
    print("# host: nproc=%d cpu=%s" % (os.cpu_count() or 0, cpu_model()))
    print("# run: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    cmd = [os.path.join(out, "dgr_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--worker-bin", os.path.join(out, "dgr_worker")]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("dgr_perfbench exited with %d" % proc.returncode, 1)
    res = parse_result(lines[-1])
    if res is None:
        fail("malformed result line: %r" % lines[-1][:200], 1)
    for line in lines[:-1]:
        print(line if line.startswith("#") else "# " + line)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
