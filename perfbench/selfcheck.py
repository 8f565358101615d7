"""Show that the benchmark's golden check catches a wrong output.

    python3 perfbench/selfcheck.py

For each workload, runs a few cheap ops of its pass twice through the same
code path the benchmark times: against the golden files as committed,
where no op may fail, and with the golden entry of one op corrupted, where
exactly that op must fail.  Exits 0 when both hold for every workload.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as w  # noqa: E402


def corrupt(golden: dict, op: tuple) -> dict:
    """A copy of ``golden`` whose entry for ``op`` no longer matches."""
    bad = copy.deepcopy(golden)
    key = w.op_id(op)
    if op[0] in ("analyze", "decompose", "compare"):
        bad["cli"]["results"][key] = {"corrupted": key}
    elif op[0] == "iso":
        bad["iso"][key] = {"found": not golden["iso"][key]["found"], "generator_images": None}
    elif op[0] == "intersection":
        gold = bad["identity"][op[1]]
        index = op[2] * gold["n_normals"] + op[3]
        flipped = "0" if gold["intersection"][index] == "1" else "1"
        gold["intersection"] = gold["intersection"][:index] + flipped + gold["intersection"][index + 1 :]
    else:
        raise ValueError(f"no corruption defined for {op!r}")
    return bad


def main() -> int:
    golden = w.load_golden()
    workdir = w.new_work_dir("selfcheck")
    ok = True
    try:
        w.write_inputs(workdir)
        runner = w.Runner(workdir)
        for workload in w.WORKLOADS:
            ops = w.op_list(workload, 0, golden)
            # cheap ops only: the last four iso pairs each find a witness
            ops = ops[-4:] if workload == "iso-search" else ops[:6]
            target = ops[-1]
            for label, gold, expect in (
                ("committed golden", golden, []),
                (f"corrupted {w.op_id(target)}", corrupt(golden, target), [w.op_id(target)]),
            ):
                result = run.run_pass(ops, gold, runner, workdir / f"cache-{workload}-{len(expect)}")
                failed = [line.split(": ", 1)[0] for line in result.failures]
                verdict = "ok" if failed == expect else "WRONG"
                ok = ok and failed == expect
                print(f"{workload:15s} {label:45s} failed {len(failed)}/{len(ops)}  {verdict}")
    finally:
        shutil.rmtree(workdir)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
