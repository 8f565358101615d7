"""Run every workload once and print each metric by name with its unit.

    python3 perfbench/suite.py [--seed 1] [--seconds 20] [--trace 0]

Each workload runs in its own ``run.py`` process, as the benchmark is
meant to be run, so set-up time and peak RSS are per workload.  Exits 1
if any workload fails to run or reports a failed op.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{workload}  attempted {result['attempted']}  failed {result['failed']}"
              f"  failed_ratio {info['failed_ratio']:.4g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
        if "latency_tail" in info:
            tail = info["latency_tail"]
            print(f"  {'(latency_tail_s percentile, samples)':40s} {tail['percentile']:>14.6g} {tail['samples']}")
        if "layer_shares" in info:
            print("  self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in info["layer_shares"].items()))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
