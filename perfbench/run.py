#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the lisasim simulator.

    python3 perfbench/run.py --workload edit-run --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The script builds the simulator
libraries and the benchmark binary (perf_main.cpp) from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build), runs one workload in a
fresh scratch directory that it removes again, and prints a host record,
every metric with its unit, the simulated-statistics digest and, as the
last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the span list is kept
under <build>/results. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("edit-run", "serve-static", "native-cold")
RUN_TIMEOUT_S = 170  # a run (not the first build) must end within 180 s


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure once, then bring the binary up to date. Output to stderr."""
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(cmake_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return cmake_dir


def cmake_cache(cmake_dir, key):
    for line in (cmake_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_hash(root):
    """SHA-256 over the simulator and benchmark sources: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def host_record(root, cmake_dir, args, toolchain):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache(cmake_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": f"{compiler} ({version})",
        "native_toolchain": toolchain or "none",
        "build_type": cmake_cache(cmake_dir, "CMAKE_BUILD_TYPE"),
        "seed": args.seed,
        "commit": git_commit(root),
        "source_hash": source_hash(root),
    }


def metric_names(root, kind):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def run_binary(binary, args, scratch, spans):
    """Run the binary with TMPDIR inside the scratch directory (the native
    tier writes its compile files there). On a timeout or a signal, kill its
    whole process group, toolchain children included, and wait for it."""
    env = dict(os.environ, TMPDIR=str(scratch / "tmp"))
    (scratch / "tmp").mkdir()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch), "--spans", str(spans)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                             start_new_session=True)

    def kill():
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()

    def stop(signum, _frame):
        kill()
        shutil.rmtree(scratch, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill()
        log(f"error: {binary.name} did not finish within {RUN_TIMEOUT_S} s")
        return None
    if child.returncode != 0:
        log(f"error: {binary.name} exited with {child.returncode}")
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"error: no simulator sources under {root / 'src'}")
        return 2
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        cmake_dir = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"error: build failed: {e}")
        return 1

    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = results / f"{stem}.spans.jsonl"
    (build_dir / "scratch").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=build_dir / "scratch"))
    started = time.monotonic()
    try:
        out = run_binary(cmake_dir / "lisasim_perf", args, scratch, spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if out is None:
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    measured = out[kind]
    metrics = {name: measured[name] for name in metric_names(root, kind)}
    attempted, failed = out["attempted"], out["failed"]
    host = host_record(root, cmake_dir, args, out["toolchain"])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted if attempted else 1.0,
              "wall_s": time.monotonic() - started,
              "digest": out["digest"], "end_to_end": out["end_to_end"],
              "tails": out["tails"], "per_layer": out["per_layer"]}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("host: " + json.dumps(host))
    print(f"workload {args.workload} seed {args.seed}: attempted {attempted}, "
          f"failed {failed}, error_rate {record['error_rate']:.4g}")
    source = " (untraced units)" if args.trace else ""
    for name, m in out["end_to_end"].items():
        print(f"  {name:26s} {m['value']:14.6g} {m['unit']}{source}")
    tails = out["tails"]
    counts = {k: int(tails.pop(k)["value"]) for k in ("jobs", "steps")}
    for name, m in tails.items():
        n = counts["jobs" if name.startswith("job") else "steps"]
        print(f"  {name:26s} {m['value']:14.6g} {m['unit']}{source} "
              f"(of {n}; reported, not gated)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:26s} {m['value']:14.6g} {m['unit']}")
    print("digest: " + json.dumps(out["digest"]))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
