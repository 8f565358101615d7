"""Byte-level pin of the CLI results.

``golden_cli_sha256.json`` holds the SHA-256 of the canonical JSON
``result`` block of ``--no-timing`` runs of ``analyze`` and ``decompose`` on
every catalog group and of ``compare`` on fixed pairs.  Refactors must leave
every hash unchanged.  Regenerate (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mipkit import catalog as cat
from mipkit import cli

GOLDEN = Path(__file__).with_name("golden_cli_sha256.json")

COMPARE_PAIRS = (
    ("C8", "C4xC2"),
    ("D8", "Q8"),
    ("D8xC4", "Q8xC4"),
    ("Heis27xC3", "M27xC3"),
    ("M27xC9", "Heis27xC9"),
)


def _ops():
    names = [e.name for e in cat.builtin_catalog()]
    return (
        [("analyze", g) for g in names]
        + [("decompose", g) for g in names]
        + [("compare", a, b) for a, b in COMPARE_PAIRS]
    )


def _result_sha256(op) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--no-timing", *op])
    assert code == 0, out.getvalue()
    result = json.loads(out.getvalue())["result"]
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("op", _ops(), ids=" ".join)
def test_cli_result_matches_golden(op, monkeypatch, tmp_path):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path))
    assert _result_sha256(op) == json.loads(GOLDEN.read_text())[" ".join(op)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["MIPKIT_CACHE_DIR"] = tmp
        hashes = {" ".join(op): _result_sha256(op) for op in _ops()}
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
