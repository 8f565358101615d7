"""The benchmark's workloads: op lists drawn from a seed, op execution and
the golden outputs each op is checked against.

One op is one call a user or a test would make: a ``--no-timing`` CLI
command on ``@<name>.pcp`` specs, one ``iso_search`` pair, or one identity
check of the A5 sweep, rewritten here from public calls.  Every op builds
its groups from presentation text, so no state carries from one op to the
next except, inside the identity sweep, the group, algebra and normal
subgroups prepared by the group's ``prepare`` op (as the A5 sweep shares
them).

Op lists are built from the seed and the golden files only; the library
sees nothing but the generated inputs.
"""

from __future__ import annotations

import contextlib
from gc import collect as collect_garbage
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

import numpy as np

from mipkit import cli
from mipkit import fp_linalg as fl
from mipkit import group_core as gc
from mipkit import modular_algebra as ma

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# Work directories live inside the checkout, which is all a run may touch.
TMP_ROOT = Path(__file__).resolve().parent.parent / ".perfbench_tmp"

WORKLOADS = ("cli-cold", "cli-warm", "identity-sweep", "iso-search")
# The analyze cache cli-warm fills during set-up, relative to the work dir.
WARM_CACHE = "cache-warm"

FIXED_COMPARE_PAIRS = (
    ("C8", "C4xC2"),
    ("D8", "Q8"),
    ("D8xC4", "Q8xC4"),
    ("Heis27xC3", "M27xC3"),
    ("M27xC9", "Heis27xC9"),
)

# Extra compare pairs drawn by the seed, per prime.  The pool is same-prime
# pairs of groups of order 8 to 27 and exponent at most p^2, whose compares
# each take 20-100 ms; exponent p^3 and above raises the shared t_max and
# the cost up to eightfold (C16 pairs), so that a draw would change how much
# work a pass holds, not only which groups it compares.  Fourteen pairs put
# the median op of a pass inside the run of analyze latencies, not on the
# gap below them.
SEED_COMPARE_PAIRS = {2: 10, 3: 4}
SEED_COMPARE_ORDERS = range(8, 28)

ISO_PAIRS = (
    ("D8", "Q8"),
    ("Q8", "D8"),
    ("C8", "C4xC2"),
    ("C4xC2", "C8"),
    ("C9", "C3xC3"),
    ("D8", "D8"),
    ("Q8", "Q8"),
    ("C4xC2", "C4xC2"),
    ("C8", "C8"),
)

IDENTITY_FULL = ("D8xC4", "Q8xC4", "Heis27xC3", "M27xC3")
# Seed-drawn samples of the checks on the groups whose full sweeps take
# 27 s and 49 s: (intersection checks per subgroup L, preimage checks,
# group_jennings checks).  Each L gets its own draw of N, so every pass
# computes the same relative ideals I(L)G (the costly part, 10-50 ms on
# M27xC9) whatever the seed.  On M27xC9 the preimage and group_jennings
# checks that meet a new normal subgroup compute its projection or ideal
# chain first (50-200 ms, depending on the subgroup), which would make the
# slowest ops of a pass depend on the draw; they are not sampled there.
IDENTITY_SAMPLED = {"D8xC4xC2": (2, 60, 40), "M27xC9": (1, 0, 0)}

# Seconds one pass takes on the reference machine (2-core Xeon sandbox).
# A run makes as many passes as fit in --seconds at these times, so the
# number of ops, and with it the tail percentile, is the same in every run
# of a workload.
NOMINAL_PASS_S = {"cli-cold": 6.0, "cli-warm": 0.7, "identity-sweep": 11.0, "iso-search": 7.0}
# Enough passes for 20 ops, the least the tail latency needs; on iso-search
# four, so that its median and tail each fall on a middle run of one op.  A
# traced run needs two (one untraced, one traced).
MIN_PASSES = {"cli-cold": 1, "cli-warm": 1, "identity-sweep": 1, "iso-search": 4}


class OpFailed(Exception):
    pass


def load_golden() -> dict:
    return {
        kind: json.loads((GOLDEN_DIR / f"{kind}.json").read_text())
        for kind in ("cli", "iso", "identity")
    }


def op_id(op: tuple) -> str:
    return ":".join(str(part) for part in op)


def passes_for(workload: str, seconds: float, traced: bool) -> int:
    return max(MIN_PASSES[workload], 2 if traced else 1, int(seconds // NOMINAL_PASS_S[workload]))


# ---------------------------------------------------------------------------
# op lists


def op_list(workload: str, seed: int, golden: dict) -> list[tuple]:
    """The fixed op list of one pass of ``workload`` under ``seed``."""
    rng = random.Random(seed)
    groups = golden["cli"]["groups"]
    if workload == "cli-cold":
        ops = [("analyze", g) for g in groups]
        ops += [("decompose", g) for g in groups]
        ops += [("compare", a, b) for a, b in FIXED_COMPARE_PAIRS]
        for p, count in SEED_COMPARE_PAIRS.items():
            ops += [("compare", a, b) for a, b in rng.sample(compare_pool(groups, p), count)]
        return ops
    if workload == "cli-warm":
        return [("analyze", g) for g in groups]
    if workload == "iso-search":
        return [("iso", a, b) for a, b in ISO_PAIRS]
    if workload == "identity-sweep":
        ops = []
        for name in IDENTITY_FULL:
            ops += _identity_ops(name, golden["identity"][name], None)
        for name, sizes in IDENTITY_SAMPLED.items():
            ops += _identity_ops(name, golden["identity"][name], (rng, sizes))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def compare_pool(groups: dict, p: int) -> list[tuple[str, str]]:
    """The same-prime pairs the seed draws extra compare ops from."""
    names = [
        g
        for g, facts in groups.items()
        if facts["p"] == p and facts["order"] in SEED_COMPARE_ORDERS and facts["exponent"] <= p * p
    ]
    return [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if (a, b) not in FIXED_COMPARE_PAIRS
    ]


def _identity_ops(name: str, gold: dict, sample) -> list[tuple]:
    """The A5 checks on one group, in the sweep's order: every check, or
    with ``sample`` = (rng, sizes) a seed-drawn sample of the checks that
    take a pair of normal subgroups (or a normal subgroup and a layer)."""
    n = gold["n_normals"]
    inter = [(i, j) for i in range(n) for j in range(n)]
    pre = [(i, j) for i in range(n) for j in range(n) if gold["preimage"][i * n + j] != "-"]
    gjwn = [(i, k) for i in range(n) for k in range(1, gold["jennings_length"] + 1)]
    if sample is not None:
        rng, (per_l, n_pre, n_gjwn) = sample
        inter = [(i, j) for i in range(n) for j in sorted(rng.sample(range(n), per_l))]
        pre = sorted(rng.sample(pre, n_pre))
        gjwn = sorted(rng.sample(gjwn, n_gjwn))
    ops = [("prepare", name)]
    ops += [("intersection", name, i, j) for i, j in inter]
    ops += [("preimage", name, i, j) for i, j in pre]
    if sample is None:
        ops += [("power_diagram", name, t) for t in range(1, gold["tau"] + 2)]
        ops += [("layer_embedding", name)]
    ops += [("group_jennings", name, i, k) for i, k in gjwn]
    return ops


# ---------------------------------------------------------------------------
# execution


class IdentityGroup:
    """Group, algebra and canonically ordered normal subgroups of one group,
    shared by the identity checks on it within one pass."""

    def __init__(self, text: str, name: str):
        self.G = gc.from_pc_presentation(text, name=name)
        self.A = ma.GroupAlgebra(self.G)
        self.normals = sorted(gc.normal_subgroups(self.G), key=lambda s: (s.order, s.elements))
        self._aug: dict = {}
        self._proj: dict = {}

    def digest(self) -> str:
        text = json.dumps([list(s.elements) for s in self.normals])
        return hashlib.sha256(text.encode()).hexdigest()

    def aug_span(self, j: int):
        if j not in self._aug:
            self._aug[j] = ma.augmentation_span(self.A, self.normals[j])
        return self._aug[j]

    def projection(self, i: int):
        if i not in self._proj:
            self._proj[i] = ma.natural_projection(self.A, self.normals[i])
        return self._proj[i]


def intersection_identity(grp: IdentityGroup, i: int, j: int) -> bool:
    """I(L)G meet span(N - 1) is the relative ideal of L meet N in kN:
    double containment plus the dimension formula."""
    A, G = grp.A, grp.G
    l_sub, n_sub = grp.normals[i], grp.normals[j]
    ideal_l = ma.relative_augmentation_ideal(A, l_sub).space
    aug_n = grp.aug_span(j)
    meet = gc.intersect_subgroups(l_sub, n_sub)
    eye = np.eye(A.dim, dtype=np.int64)
    builder = fl.SubspaceBuilder(A.p, A.dim)
    n_arr = np.array(n_sub.elements)
    for m in meet.generators or tuple(x for x in meet.elements if x):
        builder.absorb((eye[G.mul[m, n_arr]] - eye[n_arr]) % A.p)
    expected = builder.subspace()
    if not (ideal_l.contains_all(expected.basis) and aug_n.contains_all(expected.basis)):
        return False
    return ideal_l.dim + aug_n.dim - ideal_l.sum(aug_n).dim == expected.dim


def preimage_identity(grp: IdentityGroup, i: int, j: int) -> bool:
    """The preimage of I(L/N) under kG -> k(G/N) is I(L)G, for N <= L."""
    proj = grp.projection(i)
    l_sub = grp.normals[j]
    image = sorted({proj.hom(x) for x in l_sub.elements})
    l_over_n = gc.subgroup_from_elements(proj.target.group, image)
    target = ma.relative_augmentation_ideal(proj.target, l_over_n).space
    pre = fl.preimage(proj.matrix, target, grp.G.p)
    return pre == ma.relative_augmentation_ideal(grp.A, l_sub).space


class Runner:
    """Executes ops against inputs prepared in ``workdir``."""

    def __init__(self, workdir: Path):
        self.pcp_dir = workdir / "pcp"
        self.identity: dict[str, IdentityGroup] = {}

    def spec(self, name: str) -> str:
        return f"@{self.pcp_dir / name}.pcp"

    def presentation(self, name: str) -> str:
        return (self.pcp_dir / f"{name}.pcp").read_text()

    def new_pass(self, cache_dir: Path) -> None:
        """Start a pass whose CLI ops use the analyze cache in ``cache_dir``."""
        os.environ["MIPKIT_CACHE_DIR"] = str(cache_dir)
        self.release()

    def before(self, op: tuple) -> None:
        """Untimed preparation for ``op``: a group's first identity check
        drops the previous group's state, as the A5 loop does."""
        if op[0] == "prepare":
            self.release()

    def release(self) -> None:
        # groups, subgroups and caches form reference cycles; collecting
        # them here keeps the collector's timing out of ops and peak RSS
        self.identity.clear()
        collect_garbage()

    def cli_output(self, *argv: str) -> str:
        """Standard output of one ``--no-timing`` CLI command."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--no-timing", *argv])
        if code != 0:
            raise OpFailed(f"exit code {code}: {out.getvalue().strip()}")
        return out.getvalue()

    def execute(self, op: tuple):
        kind = op[0]
        if kind in ("analyze", "decompose"):
            return self.cli_output(kind, self.spec(op[1]))
        if kind == "compare":
            return self.cli_output("compare", self.spec(op[1]), self.spec(op[2]))
        if kind == "iso":
            algebras = [
                ma.GroupAlgebra(gc.from_pc_presentation(self.presentation(name), name=name))
                for name in op[1:]
            ]
            witness = ma.iso_search(*algebras)
            if witness is None:
                return {"found": False, "generator_images": None}
            return {
                "found": True,
                "generator_images": [[int(c) for c in u] for u in witness.generator_images],
            }
        if kind == "prepare":
            grp = IdentityGroup(self.presentation(op[1]), op[1])
            self.identity[op[1]] = grp
            return grp.digest()
        grp = self.identity[op[1]]
        if kind == "intersection":
            return intersection_identity(grp, op[2], op[3])
        if kind == "preimage":
            return preimage_identity(grp, op[2], op[3])
        if kind == "power_diagram":
            return ma.power_diagram_commutes(grp.A, op[2])
        if kind == "layer_embedding":
            return ma.jennings_layer_embedding(grp.A, 1).is_bijective()
        if kind == "group_jennings":
            return ma.group_jennings_with_normal(grp.A, grp.normals[op[2]], op[3]).order
        raise ValueError(f"unknown op {op!r}")


def observed(op: tuple, output):
    """The part of an op's output that is checked against the golden file.

    For a CLI op that is the SHA-256 of its ``result`` block in canonical
    JSON (the ``inputs`` block echoes the temporary path); the analyze
    payloads alone would take megabytes to store.
    """
    if op[0] in ("analyze", "decompose", "compare"):
        result = json.loads(output)["result"]
        canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
    return output


def expected(op: tuple, golden: dict):
    """The golden output of ``op``."""
    kind = op[0]
    if kind in ("analyze", "decompose", "compare"):
        return golden["cli"]["results"][op_id(op)]
    if kind == "iso":
        return golden["iso"][op_id(op)]
    gold = golden["identity"][op[1]]
    n = gold["n_normals"]
    if kind == "prepare":
        return gold["normals_digest"]
    if kind == "intersection":
        return gold["intersection"][op[2] * n + op[3]] == "1"
    if kind == "preimage":
        return gold["preimage"][op[2] * n + op[3]] == "1"
    if kind == "power_diagram":
        return gold["power_diagram"][op[2] - 1]
    if kind == "layer_embedding":
        return gold["layer_embedding"]
    if kind == "group_jennings":
        return gold["group_jennings"][op[2]][op[3] - 1]
    raise ValueError(f"unknown op {op!r}")


def new_work_dir(prefix: str) -> Path:
    """A fresh temporary directory under TMP_ROOT; the caller removes it."""
    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=TMP_ROOT))


def write_inputs(workdir: Path) -> list[str]:
    """Write one ``.pcp`` file per catalog group under ``workdir``; return
    the group names in catalog order."""
    from mipkit import catalog

    pcp_dir = workdir / "pcp"
    pcp_dir.mkdir(parents=True, exist_ok=True)
    for entry in catalog.builtin_catalog():
        (pcp_dir / f"{entry.name}.pcp").write_text(entry.presentation)
    return [entry.name for entry in catalog.builtin_catalog()]
