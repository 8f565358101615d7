"""Named mutants of the package's checks, and a runner that applies each one
to a copy of the tree and runs the tests named to kill it.

pytest does not collect this file (its name does not start with ``test_``).
Run it from anywhere:

    python tests/mutants.py            # every mutant
    python tests/mutants.py M4 M15     # the named ones

A mutant replaces an exact text of one file under ``src/mipkit`` by a new
text; the old text occurs there exactly once (``test_src_surface.py`` checks
that for every mutant, so a refactor that moves a check must move its
mutant).  The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, applies one mutant, runs its killers with ``-x`` and,
when they all pass, the whole suite with ``-x``, less the three known-red
acceptance tests and the check of the old texts.  It prints one JSON line
per mutant: killed or survived, the first failing test and the seconds
taken.  A mutant marked equivalent changes no result any input can reach;
the reason is its note, and it is applied and run like the others, so its
survival is shown.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# deselected from the whole-suite run: the three known-red acceptance tests,
# and the check that each old text is still in src/, which a mutant removes
DESELECTED = [
    "tests/test_acceptance.py::test_a3_classical_coincidence",
    "tests/test_acceptance.py::test_a4_canonicity_witnessed",
    "tests/test_acceptance.py::test_a7_product_consistency",
    "tests/test_src_surface.py::test_every_mutant_old_text_occurs_once_in_src",
]
# the whole suite takes about two minutes on a shared 2-core machine
TIMEOUT_S = 1200


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/mipkit
    old: str
    new: str
    killers: tuple[str, ...]  # test ids, as pytest prints them
    note: str
    equivalent: bool = False


_SPLIT_FAULT = "tests/test_decomposition.py::test_every_fault_in_the_split_is_an_internal_error"

MUTANTS = [
    Mutant(
        "M1", "group_core.py",
        "            if not np.array_equal(mul[mul[:, a]], mul[:, mul[a]]):",
        "            if False:",
        ("tests/test_group_core.py::test_tampered_table_rejected",),
        "Light's associativity test skipped in FiniteGroup._validate",
    ),
    Mutant(
        "M2", "group_core.py",
        "        if len(seen) != len(ordered):",
        "        if False:",
        ("tests/test_group_core.py::test_subgroup_from_elements_rejects_a_set_that_is_not_closed",),
        "the registry door takes a set that is not closed",
    ),
    Mutant(
        "M3", "modular_algebra.py",
        "        if not np.array_equal(B.multiply_vec(M[:, None], M[None]), M[A.group.mul]):",
        "        if False:",
        ("tests/test_iso_search.py::test_algebra_iso_rejects_a_damaged_witness[multiplicative]",),
        "AlgebraIso's multiplicativity check dropped",
    ),
    Mutant(
        "M4", "modular_algebra.py",
        ".all(axis=0))[1:]:",
        ".all(axis=0))[2:]:",
        (
            "tests/test_iso_search.py::test_one_image_per_conjugacy_orbit_halves_the_checked_nodes",
            "tests/test_iso_search.py::test_a_self_search_checks_one_pool_per_orbit",
        ),
        "the iso walk's orbit rule skips the first non-identity stabilizer row:"
        " the same verdicts and witnesses, more rows checked",
    ),
    Mutant(
        "M5", "modular_algebra.py",
        "    seconds = power[P.mul[dom.basis, phi.elements[1]]].tolist() if phi.order > 1 else []",
        "    seconds = []",
        ("tests/test_modular_algebra.py::test_failed_quotient_checks_name_group_and_orders",),
        "power_quotient_map's second-representative recheck dropped",
    ),
    Mutant(
        "M6", "decomposition.py",
        "    if comms[owner[:, None] != owner[None, :]].any():",
        "    if False:",
        ("tests/test_decomposition.py::test_internal_product_check_refuses_bad_factors",),
        "_verify_internal_product's commute check dropped",
    ),
    Mutant(
        "M8", "cli.py",
        '        if seal == hashlib.sha256(data).hexdigest().encode() + b"\\n":',
        "        if True:",
        ("tests/test_cli.py::test_a_tmax_past_tau_copies_the_sealed_entry_of_tmax_omitted",),
        "the cache seal is not compared",
    ),
    Mutant(
        "M9", "fp_linalg.py",
        "    if inner * (p - 1) ** 2 >= 2**53:",
        "    if inner * (p - 1) ** 2 >= 2**63:",
        ("tests/test_fp_linalg.py::test_mm_rejects_an_inexact_inner_dimension[2]",),
        "the float64 exactness bound raised to 2^63",
    ),
    Mutant(
        "M10", "modular_algebra.py",
        "            if span.dim + d - len(prefix) == d_h:  # no slack: u must leave the span",
        "            if False:",
        ("tests/test_cli.py::test_iso_search_command_exhaustion",),
        "the iso walk's spanning-pool pruning off",
    ),
    Mutant(
        "M11", "modular_algebra.py",
        "        if fl.rref(M, A.p).dim != A.dim:",
        "        if False:",
        ("tests/test_iso_search.py::test_search_matches_the_inverse_oracle[C2-C2]",),
        "AlgebraIso's bijectivity check dropped",
    ),
    Mutant(
        "M13", "decomposition.py",
        "    if peeled != formula:",
        "    if False:",
        ("tests/test_cli.py::test_abelian_factor_formula_mismatch_is_an_internal_error[compare]",),
        "the peeled type not compared with the quotient formula",
    ),
    # M7, M12 and M14 were re-checks of facts checked later; their code is
    # gone, and the faults they caught are the fault tests' SPLIT_FAULTS.
    Mutant(
        "M15", "decomposition.py",
        "    if ttype.orders != (p**t,) * rank:\n        raise InternalCheckError(",
        "    if False:\n        raise InternalCheckError(",
        (f"{_SPLIT_FAULT}[lift_of_the_wrong_rank-C2xC2xC2]",),
        "extract_component's lift type check dropped (the one check of the lift's rank and exponent)",
    ),
    Mutant(
        "M16", "decomposition.py",
        "    try:\n        return T, complement_construction(A, T)\n    except ValueError as exc:",
        "    try:\n        return T, complement_construction(A, T)\n    except ZeroDivisionError as exc:",
        (f"{_SPLIT_FAULT}[lift_off_the_kernel_pivots-Q8oC4xC4]",),
        "a lift the complement's preconditions refuse escapes extract_component as a ValueError",
    ),
    Mutant(
        "M17", "decomposition.py",
        "    if not gc.omega(gc.center(A), t).contains_subgroup(T):",
        "    if False:",
        ("tests/test_decomposition.py::test_complement_preconditions_checked",),
        "complement_construction's entry check of central p^t-torsion dropped",
    ),
    Mutant(
        "M18", "decomposition.py",
        "    if not gc.intersect_subgroups(T, gc.power_commutator(A, t)).is_trivial():",
        "    if False:",
        ("tests/test_decomposition.py::test_complement_preconditions_checked",),
        "complement_construction's entry check that T meets Mho_t(A)A' trivially dropped",
    ),
    Mutant(
        "M19", "decomposition.py",
        "    if gc.join(phi, T).order != phi.order * p**rank:",
        "    if False:",
        ("tests/test_decomposition.py::test_complement_preconditions_checked",),
        "complement_construction's entry check of full rank modulo Frattini dropped."
        " Equivalent: for T homocyclic of exponent p^t, an x in T outside T^p that"
        " lay in Phi(A) = Mho_1(A)A' would have order p^t and x^{p^{t-1}} in"
        " Mho_t(A)A' (A/A' is abelian), so the check before it already refuses T",
        equivalent=True,
    ),
    Mutant(
        "M20", "decomposition.py",
        "    except ValueError as exc:\n        raise InternalCheckError(f\"{P.name}: complement of T",
        "    except ZeroDivisionError as exc:\n        raise InternalCheckError(f\"{P.name}: complement of T",
        (f"{_SPLIT_FAULT}[claim_drops_a_generator-C2xC2xC2]",),
        "a ValueError inside complement_construction's peel escapes it",
    ),
    Mutant(
        "M21", "decomposition.py",
        "    _verify_internal_product(A, [ambient, T])",
        "    pass",
        (f"{_SPLIT_FAULT}[claim_drops_a_generator-D8xC4xC2]",),
        "complement_construction's closing product check dropped (the one check of each claim step)",
    ),
    Mutant(
        "M22", "decomposition.py",
        "            if found is None:",
        "            if False:",
        ("tests/test_decomposition.py::test_a_claim_with_no_adjustment_is_an_internal_error",),
        "_claim_adjust's one raise, no adjustment of x by y, dropped",
    ),
    Mutant(
        "M23", "decomposition.py",
        "        if residual.order > 1 and p**s <= residual.exponent() and homocyclic_rank(residual, s):",
        "        if False:",
        (f"{_SPLIT_FAULT}[partial_with_its_complement-C2xC2xC2]",),
        "ab_nab_split's final residual check dropped; the formula comparison"
        " still refuses the fault, so the test kills it by the message",
    ),
    Mutant(
        "M24", "decomposition.py",
        "    _verify_internal_product(G, [c.subgroup for c in components] + [nab])",
        "    pass",
        (f"{_SPLIT_FAULT}[partial_with_the_whole_complement-C2xC2xC2]",),
        "ab_nab_split's whole-group product check dropped; the formula comparison"
        " still refuses the fault, so the test kills it by the message",
    ),
    Mutant(
        "M25", "group_core.py",
        "    if len(seen) != phi.order * G.p ** len(seed):",
        "    if False:",
        (f"{_SPLIT_FAULT}[claim_drops_a_generator-C2xC2xC2]",),
        "burnside_basis_extend's independence check of the seed dropped",
    ),
    Mutant(
        "M26", "modular_algebra.py",
        "    if set(powmap.tolist()) != set(mho.elements):",
        "    if False:",
        ("tests/test_modular_algebra.py::test_failed_power_map_checks_name_group_and_orders",),
        "power_map_commutative's image check dropped",
    ),
]


def apply(mutant: Mutant, root: Path) -> None:
    path = root / "src" / "mipkit" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _pytest(root: Path, args: list[str]) -> tuple[bool, str | None]:
    """(passed, the first failing test id) of one pytest run in ``root``; a
    run past TIMEOUT_S, a mutant that hangs, fails as "timeout"."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *args],
            cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, "timeout"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return run.returncode == 0, failed.group(1) if failed else None


def run_mutant(mutant: Mutant) -> dict:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mipkit-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", root / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        apply(mutant, root)
        passed, by = _pytest(root, list(mutant.killers))
        stage = "killers"
        if passed:
            stage = "suite"
            passed, by = _pytest(root, [arg for test in DESELECTED for arg in ("--deselect", test)])
    return {
        "mutant": mutant.name,
        "result": "survived" if passed else "killed",
        "by": by,
        "stage": stage,
        "equivalent": mutant.equivalent,
        "seconds": round(time.perf_counter() - started, 1),
    }


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survivors = 0
    for mutant in chosen:
        report = run_mutant(mutant)
        survivors += report["result"] == "survived" and not mutant.equivalent
        print(json.dumps(report), flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
