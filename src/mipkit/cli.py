"""Command-line interface: analyze, compare, decompose, iso-search,
catalog, selftest.

Every command prints one canonical JSON report to stdout (sorted keys, no
floats outside the timing block).  Exit codes: 0 success, 1 stdout closed
before the report was written, 2 parse errors, 3 cap violations, 4 internal
assertion failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
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
EXIT_PIPE = 1
EXIT_PARSE = 2
EXIT_CAPS = 3
EXIT_INTERNAL = 4


class CliParseError(ValueError):
    pass


def _read_spec(spec: str) -> tuple[str, str, bytes]:
    """(name, kind, source bytes) of a catalog name, @file.pcp or @file.mul;
    kind is "pcp" or "mul".  Reads nothing but the source."""
    if not spec.startswith("@"):
        try:
            return spec, "pcp", cat.lookup(spec).presentation.encode()
        except KeyError as exc:
            raise CliParseError(exc.args[0]) from exc
    path = Path(spec[1:])
    if not path.exists():
        raise CliParseError(f"no such file: {path}")
    if path.suffix not in (".pcp", ".mul"):
        raise CliParseError(f"unrecognized group file suffix: {path.suffix}")
    try:
        return path.stem, path.suffix[1:], path.read_bytes()
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc.strerror}") from exc


def _build(spec: str, name: str, kind: str, source: bytes) -> FiniteGroup:
    """The group ``_read_spec(spec)`` read as (name, kind, source)."""
    if kind == "mul":
        try:
            text = source.decode()
            rows = [[int(x) for x in row] for row in csv.reader(io.StringIO(text, newline="")) if row]
            return gc.from_mul_table(np.array(rows, dtype=np.int64), name=name)
        except CapExceededError:
            raise  # a caps error, as for the same group given as a .pcp
        except (ValueError, OverflowError) as exc:
            raise CliParseError(f"bad multiplication table {Path(spec[1:])}: {exc}") from exc
    try:
        return gc.from_pc_presentation(source.decode(), name=name)
    except (UnicodeDecodeError, PresentationError) as exc:
        raise CliParseError(f"bad presentation {Path(spec[1:])}: {exc}") from exc


def resolve_group(spec: str) -> FiniteGroup:
    """A catalog name, @file.pcp (presentation) or @file.mul (CSV table)."""
    return _build(spec, *_read_spec(spec))


def cache_dir() -> Path:
    env = os.environ.get("MIPKIT_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "mipkit"


def _write_aside(path: Path, *chunks: bytes) -> None:
    """Write ``chunks`` to a temporary file beside ``path`` and rename it into
    place, so a concurrent reader never sees part of it."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


def _sealed_text(path: Path) -> Optional[str]:
    """The body of the cache entry at ``path`` when its first line is the
    body's SHA-256, else None."""
    try:
        with path.open("rb", buffering=0) as fh:  # unbuffered: read() returns the body unjoined
            seal, data = fh.read(65), fh.read()
        if seal == hashlib.sha256(data).hexdigest().encode() + b"\n":
            return data.decode()
    except (OSError, UnicodeDecodeError):
        pass
    return None


def fingerprint_cached(spec: str, depth: int, t_max: Optional[int]) -> str:
    """Canonical JSON of the fingerprint payload, content-addressed on what
    the user gave: the source bytes and kind, the name (the payload reports
    it), depth, t_max as given and tool version.

    An entry ``<key>.json`` is one file renamed into place: its first line
    is the SHA-256 hex of the rest, the payload's canonical JSON.  A hit
    whose body matches that line returns the body as it is: it builds no
    group and neither parses nor encodes.  Any other entry, or an
    unreadable file, is recomputed with a warning and written again.  A
    miss whose t_max is at or past the group's threshold tau has the
    payload of t_max omitted, so it copies that entry's body when it is
    sealed, and computes nothing.  Only a miss makes the directory; a miss
    that cannot write its entry warns and returns the result."""
    name, kind, source = _read_spec(spec)

    def key(t: Optional[int]) -> str:
        return hashlib.sha256(
            source + f"|kind={kind}|name={name}|depth={depth}|tmax={t}|v={__version__}".encode()
        ).hexdigest()

    directory = cache_dir()
    path = directory / f"{key(t_max)}.json"
    text = None
    if path.exists():  # before the read, so a concurrent miss's rename never looks corrupt
        text = _sealed_text(path)
        if text is not None:
            return text
        print(f"warning: corrupt cache entry {path}, recomputing", file=sys.stderr)
    G = _build(spec, name, kind, source)
    tau = ci.stabilization_threshold(G)
    if t_max is not None and t_max >= tau:
        text = _sealed_text(directory / f"{key(None)}.json")
    if text is None:
        text = ci.fingerprint(G, depth, t_max, tau).to_json()
    data = text.encode()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        _write_aside(path, hashlib.sha256(data).hexdigest().encode() + b"\n", data)
    except OSError as exc:
        print(f"warning: cannot write cache entry {path}: {exc.strerror or exc}", file=sys.stderr)
    return text


# Each command returns (inputs, canonical JSON of its result); ``main``
# splices the result's text into the report.


def _cmd_analyze(args) -> tuple[dict, str]:
    inputs = {"group": args.group, "depth": args.depth, "tmax": args.tmax}
    return inputs, fingerprint_cached(args.group, args.depth, args.tmax)


def _cmd_compare(args) -> tuple[dict, str]:
    g = resolve_group(args.group1)
    h = resolve_group(args.group2)
    if g.p != h.p:
        raise CliParseError(f"compare needs groups over the same prime, got p={g.p} and p={h.p}")
    inputs = {"group1": args.group1, "group2": args.group2, "depth": args.depth, "tmax": args.tmax}
    return inputs, ci.canonical_json(ci.compare(g, h, args.depth, args.tmax))


def _cmd_decompose(args) -> tuple[dict, str]:
    result = dict(dc.ab_nab_split(resolve_group(args.group)).certificate)
    if not args.peel_trace:
        result.pop("peel_trace", None)
    return {"group": args.group, "peel_trace": bool(args.peel_trace)}, ci.canonical_json(result)


def _cmd_iso_search(args) -> tuple[dict, str]:
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
    return {"group1": args.group1, "group2": args.group2}, ci.canonical_json(result)


def _cmd_catalog(args) -> tuple[dict, str]:
    entries = [
        {
            "name": e.name,
            "order": e.expected["order"],
            "p": gc.PcPresentation.parse(e.presentation).p,
        }
        for e in cat.builtin_catalog()
    ]
    return {}, ci.canonical_json({"entries": entries})


def _cmd_selftest(args) -> tuple[dict, str]:
    results = {entry.name: cat.selftest_entry(entry) for entry in cat.builtin_catalog()}
    ok = all(all(checks.values()) for checks in results.values())
    if not ok:
        raise InternalCheckError("catalog selftest failed: " + ci.canonical_json(results))
    return {}, ci.canonical_json({"entries": results, "all_pass": ok})


def positive_int(text: str) -> int:
    """argparse type for ``--depth`` and ``--tmax``: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"--depth and --tmax must be positive integers, not {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as CliParseError, which ``main`` reports as
    one JSON object, instead of printing usage to stderr and exiting.  Its
    subparsers are of the same class."""

    def error(self, message):
        raise CliParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mipkit",
        description="invariants of modular group algebras of small p-groups",
    )
    parser.add_argument("--no-timing", action="store_true", help="omit the timing block (byte-reproducible output)")
    sub = parser.add_subparsers(dest="command", required=True)
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--depth", type=positive_int, default=2)
    bounds.add_argument("--tmax", type=positive_int, default=None)

    p = sub.add_parser("analyze", parents=[bounds], help="fingerprint one group")
    p.add_argument("group")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", parents=[bounds], help="first distinguishing invariant of two groups")
    p.add_argument("group1")
    p.add_argument("group2")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("decompose", help="abelian / non-abelian direct factor split")
    p.add_argument("group")
    p.add_argument("--peel-trace", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("iso-search", help="exhaustive algebra isomorphism search (tiny groups)")
    p.add_argument("group1")
    p.add_argument("group2")
    p.set_defaults(func=_cmd_iso_search)

    sub.add_parser("catalog", help="list built-in groups").set_defaults(func=_cmd_catalog)
    sub.add_parser("selftest", help="check catalog entries against known facts").set_defaults(
        func=_cmd_selftest
    )
    return parser


# built once per process; parse_args leaves it unchanged
PARSER = build_parser()


def _write(exit_code: int, *parts: str) -> int:
    """Print ``parts`` as one line and return ``exit_code``, or EXIT_PIPE
    when the reader has closed stdout.  Then stdout is pointed at
    ``os.devnull``, so the flush at shutdown cannot fail again (the recipe
    under SIGPIPE in Python's ``signal`` documentation)."""
    try:
        print(*parts, sep="")
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return exit_code


def _print_error(exit_code: int, kind: str, exc: Exception) -> int:
    error = {"exit_code": exit_code, "kind": kind, "message": str(exc)}
    return _write(exit_code, ci.canonical_json({"error": error}))


def main(argv: Optional[list[str]] = None) -> int:
    started = time.perf_counter()
    try:
        args = PARSER.parse_args(argv)
        inputs, result = args.func(args)
    except SystemExit:
        return EXIT_OK  # --help printed its text
    except (CliParseError, PresentationError) as exc:
        return _print_error(EXIT_PARSE, "parse", exc)
    except CapExceededError as exc:
        return _print_error(EXIT_CAPS, "caps", exc)
    except (InternalCheckError, ci.ContainmentError) as exc:
        return _print_error(EXIT_INTERNAL, "internal", exc)
    report = {"command": args.command, "inputs": inputs, "version": __version__}
    if not args.no_timing:
        report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    # the bytes ci.canonical_json(report) gives, with the result's text spliced
    # in, not encoded again; printed piece by piece, not copied into one string
    texts = {key: ci.canonical_json(value) for key, value in report.items()} | {"result": result}
    parts = []
    for key in sorted(texts):
        parts += (",", ci.canonical_json(key), ":", texts[key])
    parts[0] = "{"
    return _write(EXIT_OK, *parts, "}")


if __name__ == "__main__":
    raise SystemExit(main())
