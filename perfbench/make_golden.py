"""Regenerate the golden outputs in perfbench/golden/ from the current source.

    python3 perfbench/make_golden.py

Runs every op any seed can draw: analyze and decompose on all catalog
groups, the fixed and the seed-drawable compare pairs, the iso-search pairs
and the full A5 identity sweeps of the identity-sweep groups (about two
minutes, most of it the D8xC4xC2 and M27xC9 sweeps).  Only regenerate when
a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402
from mipkit import canonical_invariants as ci  # noqa: E402
from mipkit import catalog  # noqa: E402
from mipkit import group_core as gc  # noqa: E402


def cli_golden(runner: w.Runner) -> dict:
    groups = {
        e.name: {
            "p": gc.PcPresentation.parse(e.presentation).p,
            "order": e.expected["order"],
            "exponent": e.expected["exponent"],
        }
        for e in catalog.builtin_catalog()
    }
    ops = [(kind, g) for kind in ("analyze", "decompose") for g in groups]
    ops += [("compare", a, b) for a, b in w.FIXED_COMPARE_PAIRS]
    for p in w.SEED_COMPARE_PAIRS:
        ops += [("compare", a, b) for a, b in w.compare_pool(groups, p)]
    return {"groups": groups, "results": {w.op_id(op): w.observed(op, runner.execute(op)) for op in ops}}


def identity_golden(runner: w.Runner, name: str) -> dict:
    runner.execute(("prepare", name))
    grp = runner.identity[name]
    normals = grp.normals
    n = len(normals)
    pre = []
    for i in range(n):
        for j in range(n):
            if normals[i].is_trivial() or not normals[j].contains_subgroup(normals[i]):
                pre.append("-")
            else:
                pre.append("1" if w.preimage_identity(grp, i, j) else "0")
    tau = ci.stabilization_threshold(grp.G)
    length = len(gc.jennings_series_product_formula(grp.G))
    return {
        "normals_digest": grp.digest(),
        "n_normals": n,
        "tau": tau,
        "jennings_length": length,
        "intersection": "".join(
            "1" if w.intersection_identity(grp, i, j) else "0" for i in range(n) for j in range(n)
        ),
        "preimage": "".join(pre),
        "power_diagram": [runner.execute(("power_diagram", name, t)) for t in range(1, tau + 2)],
        "layer_embedding": runner.execute(("layer_embedding", name)),
        "group_jennings": [
            [runner.execute(("group_jennings", name, i, k)) for k in range(1, length + 1)]
            for i in range(n)
        ],
    }


def main() -> int:
    workdir = w.new_work_dir("golden")
    try:
        w.write_inputs(workdir)
        runner = w.Runner(workdir)
        runner.new_pass(workdir / "cache")
        golden = {
            "cli": cli_golden(runner),
            "iso": {w.op_id(("iso", a, b)): runner.execute(("iso", a, b)) for a, b in w.ISO_PAIRS},
            "identity": {
                name: identity_golden(runner, name)
                for name in (*w.IDENTITY_FULL, *w.IDENTITY_SAMPLED)
            },
        }
    finally:
        shutil.rmtree(workdir)
    w.GOLDEN_DIR.mkdir(exist_ok=True)
    for kind, data in golden.items():
        path = w.GOLDEN_DIR / f"{kind}.json"
        path.write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
