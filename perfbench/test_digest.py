#!/usr/bin/env python3
"""The benchmark's own test: two runs with the same seed must give the same
simulated-statistics digest and no failed job or session.

    python3 perfbench/test_digest.py [--seed N] [--workloads a,b,...]

Run from the root of a source checkout. The digest covers a fixed prefix of
each run (the first jobs or the first serve batch), so short runs suffice:
a change meant only to speed the simulator up must leave it unchanged.
Exits 1 on any difference or failure.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("edit-run", "serve-static", "native-cold")


def run(workload, seed):
    script = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(json.loads(line[len("digest: "):]) for line in lines
                  if line.startswith("digest: "))
    return digest, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        first, result_a = run(workload, args.seed)
        second, result_b = run(workload, args.seed)
        same = first == second
        clean = all(r["correct"] and r["failed"] == 0
                    for r in (result_a, result_b))
        print(f"{workload:13s} digest {'identical' if same else 'DIFFERS'}, "
              f"{'no failures' if clean else 'FAILURES'}: {first}")
        if not same:
            print(f"{'':13s} second run: {second}")
        ok = ok and same and clean
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
