#!/usr/bin/env python3
"""Builds and runs one workload of the microrec benchmark.

    python3 perfbench/run.py --workload eval_grid --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds perfbench/ (with the library
sources under src/) into .bench_build/, generates the workload corpus (a
fixed medium-scale corpus) into a private per-run directory under
.bench_work/, runs the workload with --seed as its experiment and request
seed, removes the per-run directory, and prints the result as the last
line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics (0 for a layer the workload
does not exercise), and the spans of the traced run are written to
.bench_out/. Everything else the run says goes to stderr.
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

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "microrec_perfbench"
WORKLOADS = ("eval_grid", "serve_timeline", "serve_ingest")
# A run must end within 180 s; leave room for generation and clean-up.
RUN_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 850

_child = None


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    names = [a.split("=", 1)[0] for a in argv if a.startswith("--")]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        parser.error("repeated flag(s): " + ", ".join(repeated))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(cmd, timeout, capture=False):
    """Runs cmd with stdout on stderr (or captured); kills it on timeout."""
    global _child
    _child = subprocess.Popen(
        [str(c) for c in cmd], cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        fail("%s timed out after %d s" % (Path(str(cmd[0])).name, timeout))
    finally:
        code = _child.returncode
        _child = None
    if code != 0:
        fail("%s exited with %s" % (Path(str(cmd[0])).name, code))
    return out


def build():
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        run(["cmake", "-S", ROOT / "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    run(["cmake", "--build", BUILD_DIR, "--target", "microrec_perfbench",
         "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)


def make_run_dir(workload):
    """A directory only this run owns: pid, workload and a counter."""
    WORK_DIR.mkdir(exist_ok=True)
    for counter in range(1000):
        path = WORK_DIR / ("run-%d-%s-%d" % (os.getpid(), workload, counter))
        try:
            path.mkdir()
            return path
        except FileExistsError:
            continue
    fail("no free run directory under " + str(WORK_DIR))


def select_metrics(result, trace):
    """Keeps the BENCHMARK.json metrics of this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    unknown = sorted(set(result["metrics"]) - known)
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        value = got["value"]
        if value is None or not math.isfinite(value) or (
                not trace and value <= 0):
            fail("metric %s has value %r" % (m["name"], value))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result["metrics"] = metrics
    return result


def on_signal(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    raise SystemExit(128 + signum)


def main(argv):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    build()
    run_dir = make_run_dir(args.workload)
    try:
        corpus = run_dir / "corpus"
        run([BINARY, "--generate", "--corpus=%s" % corpus], RUN_TIMEOUT_S)
        cmd = [BINARY, "--workload=" + args.workload, "--corpus=%s" % corpus,
               "--work-dir=%s" % run_dir, "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds, "--trace=%d" % args.trace]
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            cmd.append("--spans=%s" % (OUT_DIR / ("%s-seed%d.spans.json" % (
                args.workload, args.seed))))
        lines = run(cmd, RUN_TIMEOUT_S, capture=True).strip().splitlines()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not lines:
        fail("the workload printed no result")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = select_metrics(json.loads(lines[-1]), args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
