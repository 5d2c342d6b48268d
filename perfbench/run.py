#!/usr/bin/env python3
"""Repository benchmark for the Agar read path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Workloads (see BENCHMARK.json for why each was chosen): paper-meta,
paper-verify, geo-hedge, daemon-routes.

The first run builds the program from source (perfbench/CMakeLists.txt pulls
in the repository's own build file) into $CARGO_TARGET_DIR, default
.bench_build, Release only. Build output goes to stderr. Each run prints a
"meta" line (host, nproc, compiler, build type, SIMD backend, source
revision) and, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1. A
record of both lines is kept under <build dir>/records, span traces under
<build dir>/runs.

The simulator workloads' wall-clock figures (reads_per_s, setup_s) are
scaled to a reference host: a benchmark-owned calibration loop is timed
between the measured repetitions and the figures are divided (rates) or
multiplied (times) by this host's speed relative to the reference, which
cancels most of the drift of a shared machine. The unscaled figures and the
host speed are in the meta line. daemon-routes reports unscaled figures.

--corrupt-expected alters every expected payload and result digest the
correctness gates compare against; the run must then report correct=false.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def valid_name(name):
    return bool(NAME_RE.match(name))


def build(root, build_dir):
    """Configure (once) and build perfbench and agard; False on failure."""
    cmake_dir = build_dir / "cmake"
    if not any((cmake_dir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", str(cmake_dir), "--target", "perfbench", "agard",
           "-j", jobs]
    return subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode == 0


def source_revision(root):
    """git HEAD when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        base = root / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def check_result(result, spec, trace):
    """Raise ValueError unless the result line matches BENCHMARK.json."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a count")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise ValueError(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    for name, m in metrics.items():
        if not valid_name(name):
            raise ValueError(f"bad metric name {name!r}")
        if m.get("unit") != units[name]:
            raise ValueError(f"{name}: unit {m.get('unit')!r}, expected {units[name]!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{name}: value {value!r}")


def self_test(root, binary):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    failures = 0
    for ok, what in [
        (valid_name("reads_per_s") and valid_name("a.b-c_9"), "valid names pass"),
        (not any(valid_name(n) for n in ["", "bad name", ".x", "a/b", "a" * 65]),
         "invalid names fail"),
        (all(valid_name(m["name"]) for k in ("end_to_end", "per_layer") for m in spec[k]),
         "BENCHMARK.json metric names use [A-Za-z0-9_.-]"),
    ]:
        if not ok:
            log(f"self-test FAILED: {what}")
            failures += 1
    if subprocess.run([str(binary), "--self-test"]).returncode != 0:
        failures += 1
    log("self-test " + ("passed" if failures == 0 else f"failed ({failures})"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        log("run from the root of a checkout (BENCHMARK.json not found)")
        return 2
    spec = json.loads(spec_path.read_text())
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # Compilers and the program keep their scratch files in the checkout.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    if not build(root, build_dir):
        log("build failed")
        return 2
    binary = build_dir / "cmake" / "perfbench"
    if args.self_test:
        return self_test(root, binary)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"--workload must be one of {names}")
        return 2

    run_dir = build_dir / "runs"
    run_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--agard", str(build_dir / "cmake" / "agar" / "agard"),
           "--routes", "examples/specs/daemon_routes.json",
           "--out", os.path.relpath(run_dir, root),
           "--git-rev", source_revision(root)]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    # Own process group, so a run that overstays is stopped with everything
    # it started.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            preexec_fn=os.setpgrp)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        log(f"perfbench exited with {proc.returncode}")
        return 2
    meta, result = json.loads(lines[-2]), json.loads(lines[-1])
    try:
        check_result(result, spec, args.trace == 1)
    except ValueError as err:
        log(f"malformed result: {err}")
        return 2
    records = build_dir / "records"
    records.mkdir(parents=True, exist_ok=True)
    record = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**meta, "result": result}, indent=1) + "\n")
    print(json.dumps(meta), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
