#!/usr/bin/env python3
"""Repository benchmark entry point: build perfbench, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
nampc library plus the perfbench binary from source (CMake, into
$CARGO_TARGET_DIR or .bench_build); later calls only re-check the build.
The binary runs the workload as a closed loop for S seconds and checks every
execution. This script prints a stamp line (host, compiler, build type,
source revision, seeds), the binary's info line, and, as the last line of
standard output, the result object {"correct", "attempted", "failed",
"metrics"}. Build logs and failure details go to standard error.

Exit codes: 0 = result printed, 2 = usage or build failure, 3 = the binary
failed (an unknown workload included) or timed out. No result is printed
unless the code is 0.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Seed reserved for confirming a claimed gain; never tune on it.
HOLDOUT_SEED = 7919
# A run must end within 180 s; keep a margin for the build check and output.
BINARY_TIMEOUT_S = 165
BUILD_TIMEOUT_S = 840
BUILD_JOBS = "4"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


_child = None  # the running build step or benchmark binary


def _stop_child():
    """Kills the running child's whole process group (make and compiler
    processes included) and waits for it."""
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()


def _on_signal(signum, _frame):
    _stop_child()
    sys.exit(128 + signum)


def run_child(cmd, timeout, capture):
    """Runs cmd in its own process group; its stderr (and its stdout unless
    captured) goes to our stderr. Returns (returncode, stdout), or
    (None, None) when it overran `timeout` and was killed."""
    global _child
    _child = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True, process_group=0)
    try:
        stdout, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_child()
        return None, None
    return _child.returncode, stdout


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        code, _ = run_child(cmd, timeout, capture=False)
    except OSError as e:
        log(f"build step failed: {e}")
        return False
    return code == 0


def build(deadline):
    out = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}")
        return None
    if not (out / "CMakeCache.txt").is_file():
        if not run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(out)],
                          max(1, deadline - time.monotonic())):
            return None
    if not run_logged(["cmake", "--build", str(out), "--target", "perfbench",
                       "-j", BUILD_JOBS],
                      max(1, deadline - time.monotonic())):
        return None
    binary = out / "perfbench"
    return binary if binary.is_file() else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """The git commit when the checkout is a repository, else None; plus a
    digest of the library and benchmark sources, which identifies the code
    measured in either case."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def run_binary(binary, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, stdout = run_child(cmd, BINARY_TIMEOUT_S, capture=True)
    if code is None:
        log(f"perfbench exceeded {BINARY_TIMEOUT_S} s")
        return None
    if code != 0:
        log(f"perfbench exited with code {code}")
        return None
    return stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    started = time.monotonic()
    binary = build(started + BUILD_TIMEOUT_S)
    if binary is None:
        log("build failed")
        return 2
    build_s = time.monotonic() - started

    lines = run_binary(binary, args)
    if not lines:
        return 3
    try:
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["perfbench"] if len(lines) > 1 else {}
    except (ValueError, KeyError) as e:
        log(f"unreadable perfbench output: {e}")
        return 3
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench result has unexpected keys")
        return 3

    commit, digest = source_revision()
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "commit": commit,
        "source_digest": digest,
        "executions": info.get("executions"),
        "setup_samples": info.get("setup_samples"),
        "self_check": info.get("self_check"),
        "build_check_s": round(build_s, 3),
    }
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
