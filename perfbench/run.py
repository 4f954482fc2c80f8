#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

The benchmark is built from source with CMake into the directory named by
CARGO_TARGET_DIR (default .bench_build). The last line of stdout of a
single-workload run is the result object; its metric names are checked
against BENCHMARK.json. The exit status is non-zero when the build fails,
a byte mismatched, a transfer did not complete, or a run timed out.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
WORKLOADS = ["bulk", "short_flows", "media"]
RUN_TIMEOUT_S = 175


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        if not run_quiet(["cmake", "-S", str(SOURCE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    if not run_quiet(["cmake", "--build", str(out), "-j", jobs]):
        return None
    return out


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises, or None without the file."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    doc = json.loads(spec.read_text())
    return [(m["name"], m["unit"]) for m in doc["per_layer" if trace else "end_to_end"]]


def listed_metrics(binary):
    out = subprocess.run([str(binary), "--list-metrics"], capture_output=True, text=True,
                         check=True).stdout.split("\n")
    kinds = {"end_to_end": [], "per_layer": []}
    for line in out:
        if line.strip():
            kind, name, unit = line.split()
            kinds[kind].append((name, unit))
    return kinds


def check_result(line, trace):
    """Validate the result object; returns an error string or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the last line is not a JSON object"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "unexpected keys in the result object"
    want = expected_metrics(trace)
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if want is not None and sorted(got) != sorted(want):
        return "metric names differ from BENCHMARK.json"
    return None


def run_one(binary, workload, args, trace):
    cmd = [str(binary), "--workload", workload] + args
    span_dir = build_dir() / "spans"
    if trace:
        span_dir.mkdir(exist_ok=True)
        cmd += ["--span-out", str(span_dir / f"{workload}.spans")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {workload} timed out", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    error = check_result(lines[-1], trace) if lines and lines[-1] else "no result line"
    print("\n".join(lines), flush=True)
    if error:
        print(f"run.py: {workload}: {error}", file=sys.stderr)
        return 1
    return proc.returncode


def selftest(out):
    ok = subprocess.run([str(out / "perfbench_helpers_test")]).returncode == 0
    listed = listed_metrics(out / "perfbench")
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        want = expected_metrics(trace)
        if want is None or listed[kind] != want:
            print(f"run.py: {kind} metrics printed by perfbench differ from BENCHMARK.json",
                  file=sys.stderr)
            ok = False
    print("selftest OK" if ok else "selftest FAILED")
    return 0 if ok else 1


def main(argv):
    out = build()
    if out is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        return selftest(out)
    args = list(argv)
    trace = False
    workload = None
    rest = []
    i = 0
    while i < len(args):
        if args[i] == "--workload" and i + 1 < len(args):
            workload = args[i + 1]
            i += 2
            continue
        if args[i] == "--trace" and i + 1 < len(args):
            trace = args[i + 1] == "1"
        rest.append(args[i])
        i += 1
    if workload is None:
        print(__doc__, file=sys.stderr)
        return 2
    if workload == "all":
        codes = [run_one(out / "perfbench", w, rest, trace) for w in WORKLOADS]
        return max(codes)
    return run_one(out / "perfbench", workload, rest, trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
