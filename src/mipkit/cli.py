"""Command-line interface: analyze, compare, decompose, iso-search,
catalog, selftest.

Every command prints one canonical JSON report to stdout (sorted keys, no
floats outside the timing block).  Exit codes: 0 success, 2 parse errors,
3 cap violations, 4 internal assertion failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import canonical_invariants as ci
from . import catalog as cat
from . import decomposition as dc
from . import group_core as gc
from . import modular_algebra as ma
from .group_core import CapExceededError, FiniteGroup, InternalCheckError, PresentationError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPS = 3
EXIT_INTERNAL = 4


class CliParseError(ValueError):
    pass


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def resolve_group(spec: str) -> FiniteGroup:
    """A catalog name, @file.pcp (presentation) or @file.mul (CSV table)."""
    if spec.startswith("@"):
        path = Path(spec[1:])
        if not path.exists():
            raise CliParseError(f"no such file: {path}")
        if path.suffix == ".pcp":
            try:
                return gc.from_pc_presentation(path.read_text(), name=path.stem)
            except PresentationError as exc:
                raise CliParseError(f"bad presentation {path}: {exc}") from exc
        if path.suffix == ".mul":
            try:
                with open(path, newline="") as fh:
                    rows = [[int(x) for x in row] for row in csv.reader(fh) if row]
                table = np.array(rows, dtype=np.int64)
                return gc.from_mul_table(table, name=path.stem)
            except (ValueError, PresentationError) as exc:
                raise CliParseError(f"bad multiplication table {path}: {exc}") from exc
        raise CliParseError(f"unrecognized group file suffix: {path.suffix}")
    try:
        return cat.build(spec)
    except KeyError as exc:
        raise CliParseError(str(exc)) from exc


def _group_source_bytes(spec: str) -> bytes:
    if spec.startswith("@"):
        return Path(spec[1:]).read_bytes()
    for entry in cat.builtin_catalog():
        if entry.name == spec:
            return entry.presentation.encode()
    raise CliParseError(f"unknown catalog group {spec!r}")


def cache_dir() -> Path:
    env = os.environ.get("MIPKIT_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "mipkit"


def fingerprint_cached(spec: str, group: FiniteGroup, depth: int, t_max: Optional[int]) -> dict:
    """Fingerprint payload, content-addressed on presentation bytes, the
    group's name (the payload reports it), depth, t_max and tool version.
    Corrupt entries are recomputed."""
    source = _group_source_bytes(spec)
    tau = ci.stabilization_threshold(group)
    eff_tmax = t_max if t_max is not None else tau + 1
    key = hashlib.sha256(
        source
        + f"|name={group.name}|depth={depth}|tmax={eff_tmax}|v={__version__}".encode()
    ).hexdigest()
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{key}.json"
    if path.exists():
        try:
            payload = json.loads(path.read_text())
            if isinstance(payload, dict) and "catalog" in payload:
                return payload
            raise ValueError("missing fields")
        except (ValueError, OSError):
            print(f"warning: corrupt cache entry {path}, recomputing", file=sys.stderr)
    payload = ci.fingerprint(group, depth, eff_tmax).payload()
    # write aside and rename, so a concurrent reader never sees half an entry
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(_canonical_json(payload))
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return payload


def _report(command: str, inputs: dict, result: dict, started: float, timing: bool) -> dict:
    report = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "version": __version__,
    }
    if timing:
        report["timing"] = {"seconds": round(time.time() - started, 6)}
    return report


def _cmd_analyze(args) -> dict:
    started = time.time()
    group = resolve_group(args.group)
    payload = fingerprint_cached(args.group, group, args.depth, args.tmax)
    return _report(
        "analyze",
        {"group": args.group, "depth": args.depth, "tmax": args.tmax},
        payload,
        started,
        not args.no_timing,
    )


def _cmd_compare(args) -> dict:
    started = time.time()
    g = resolve_group(args.group1)
    h = resolve_group(args.group2)
    verdict = ci.compare(g, h, args.depth, args.tmax)
    return _report(
        "compare",
        {"group1": args.group1, "group2": args.group2, "depth": args.depth, "tmax": args.tmax},
        verdict,
        started,
        not args.no_timing,
    )


def _cmd_decompose(args) -> dict:
    started = time.time()
    group = resolve_group(args.group)
    decomp = dc.ab_nab_split(group)
    result = dict(decomp.certificate)
    if not args.peel_trace:
        result.pop("peel_trace", None)
    return _report(
        "decompose",
        {"group": args.group, "peel_trace": bool(args.peel_trace)},
        result,
        started,
        not args.no_timing,
    )


def _cmd_iso_search(args) -> dict:
    started = time.time()
    g = resolve_group(args.group1)
    h = resolve_group(args.group2)
    witness = ma.iso_search(ma.GroupAlgebra(g), ma.GroupAlgebra(h))
    if witness is None:
        result = {"found": False, "matrix": None, "generator_images": None}
    else:
        result = {
            "found": True,
            "matrix": witness.matrix.tolist(),
            "generator_images": [list(u) for u in witness.generator_images],
        }
    return _report(
        "iso-search",
        {"group1": args.group1, "group2": args.group2},
        result,
        started,
        not args.no_timing,
    )


def _cmd_catalog(args) -> dict:
    started = time.time()
    entries = [
        {
            "name": e.name,
            "order": e.expected["order"],
            "p": gc.PcPresentation.parse(e.presentation).p,
        }
        for e in cat.builtin_catalog()
    ]
    return _report("catalog", {}, {"entries": entries}, started, not args.no_timing)


def _cmd_selftest(args) -> dict:
    started = time.time()
    results = {}
    ok = True
    for entry in cat.builtin_catalog():
        checks = cat.selftest_entry(entry)
        results[entry.name] = checks
        ok = ok and all(checks.values())
    if not ok:
        raise InternalCheckError("catalog selftest failed: " + _canonical_json(results))
    return _report(
        "selftest", {}, {"entries": results, "all_pass": ok}, started, not args.no_timing
    )


class BadOptionValue(Exception):
    """An option value out of range.  Not a ValueError: argparse handles
    only ArgumentTypeError, TypeError and ValueError from a type callable,
    so this one reaches ``main``, which reports it as one JSON parse error."""


def positive_int(text: str) -> int:
    """argparse type for ``--depth`` and ``--tmax``: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise BadOptionValue(f"--depth and --tmax must be positive integers, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipkit",
        description="invariants of modular group algebras of small p-groups",
    )
    parser.add_argument("--no-timing", action="store_true", help="omit the timing block (byte-reproducible output)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="fingerprint one group")
    p.add_argument("group")
    p.add_argument("--depth", type=positive_int, default=2)
    p.add_argument("--tmax", type=positive_int, default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="first distinguishing invariant of two groups")
    p.add_argument("group1")
    p.add_argument("group2")
    p.add_argument("--depth", type=positive_int, default=2)
    p.add_argument("--tmax", type=positive_int, default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("decompose", help="abelian / non-abelian direct factor split")
    p.add_argument("group")
    p.add_argument("--peel-trace", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("iso-search", help="exhaustive algebra isomorphism search (tiny groups)")
    p.add_argument("group1")
    p.add_argument("group2")
    p.set_defaults(func=_cmd_iso_search)

    p = sub.add_parser("catalog", help="list built-in groups")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("selftest", help="check catalog entries against known facts")
    p.set_defaults(func=_cmd_selftest)
    return parser


def _print_error(exit_code: int, kind: str, exc: Exception) -> int:
    print(_canonical_json({"error": {"exit_code": exit_code, "kind": kind, "message": str(exc)}}))
    return exit_code


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except BadOptionValue as exc:
        return _print_error(EXIT_PARSE, "parse", exc)
    except SystemExit as exc:
        # argparse already printed a message; remap its exit code
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        report = args.func(args)
    except (CliParseError, PresentationError) as exc:
        return _print_error(EXIT_PARSE, "parse", exc)
    except CapExceededError as exc:
        return _print_error(EXIT_CAPS, "caps", exc)
    except (InternalCheckError, ci.ContainmentError) as exc:
        return _print_error(EXIT_INTERNAL, "internal", exc)
    print(_canonical_json(report))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
