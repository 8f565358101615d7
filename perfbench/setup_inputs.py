"""Prepare one workload's inputs in a directory, then print "ready".

    python3 perfbench/setup_inputs.py <workload> <directory>

run.py starts this script several times per run and takes each interval
from process start to "ready" as one set-up sample: interpreter start, the
mipkit import, the .pcp files and, for cli-warm, the filled analyze cache.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402


def main() -> int:
    workload, workdir = sys.argv[1], Path(sys.argv[2])
    names = w.write_inputs(workdir)
    if workload == "cli-warm":
        runner = w.Runner(workdir)
        runner.new_pass(workdir / w.WARM_CACHE)
        for name in names:
            runner.execute(("analyze", name))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
