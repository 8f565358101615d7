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


# Fixed pins outside the regenerated file: result-block hashes of the other
# commands and of two depth-3 analyses, and the exact stdout of an unknown
# catalog name.
PINNED = {
    "analyze C2 --depth 3": "1ab7e47c542497b1ce57c12e9f4b136294f6ed73e79fe1f560449e5e27ecba14",
    "analyze D8 --depth 3 --tmax 1": "6ab5855b51aa28e7312e02df3c633f15e395ab991f483946067f25951a287636",
    "catalog": "556feb0e8dbfa212bb767b894dc780f7738566dfdc2c1265ba6264c30fe0db2e",
    "selftest": "c8e270b3e4c916156800efd7e25806b065e28a9f35ad2b8691047a1a265170fa",
    "iso-search D8 Q8": "b0a0f72faabb672cae0412196763bee39014731693d988637c16aa82efd4f035",
    "iso-search C8 C8": "23b952d1701e9730959d667280d191d02ed8d7ce400018214b33e091d441dad8",
}
UNKNOWN_NAME_STDOUT = (
    '{"error":{"exit_code":2,"kind":"parse","message":"unknown catalog group \'E8\'"}}\n'
)


@pytest.mark.parametrize("op", sorted(PINNED))
def test_cli_result_matches_pin(op, monkeypatch, tmp_path):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path))
    assert _result_sha256(op.split()) == PINNED[op]


def test_unknown_name_stdout_matches_pin(monkeypatch, tmp_path):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["--no-timing", "analyze", "E8"]) == 2
    assert out.getvalue() == UNKNOWN_NAME_STDOUT


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["MIPKIT_CACHE_DIR"] = tmp
        hashes = {" ".join(op): _result_sha256(op) for op in _ops()}
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
