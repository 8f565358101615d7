import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mipkit import catalog as cat
from mipkit import cli


def run(capsys, monkeypatch, tmp_path, *argv):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / "cache"))
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_catalog_command(capsys, monkeypatch, tmp_path):
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "catalog")
    assert code == 0
    names = [e["name"] for e in report["result"]["entries"]]
    for required in ("C2", "C16", "D8", "Q8", "D16", "Q16", "SD16", "M16",
                     "D8xC4xC2", "Heis27", "M27", "M27xC9"):
        assert required in names
    assert "timing" not in report


def test_selftest_command(capsys, monkeypatch, tmp_path):
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "selftest")
    assert code == 0
    assert report["result"]["all_pass"] is True
    assert all(
        all(checks.values()) for checks in report["result"]["entries"].values()
    )


def test_compare_command(capsys, monkeypatch, tmp_path):
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "compare", "C8", "C4xC2")
    assert code == 0
    assert report["result"]["verdict"] == "distinguished-by"
    assert report["result"]["key"] == "jennings"
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "compare", "D8", "Q8")
    assert code == 0
    assert report["result"]["verdict"] == "indistinguishable-at-depth"


def test_decompose_command(capsys, monkeypatch, tmp_path):
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "decompose", "D8xC4xC2")
    assert code == 0
    result = report["result"]
    assert result["ab_type"] == [4, 2]
    assert result["nab"]["order"] == 8
    assert "peel_trace" not in result
    code, report = run(
        capsys, monkeypatch, tmp_path, "--no-timing", "decompose", "D8xC4xC2", "--peel-trace"
    )
    assert [s["t"] for s in report["result"]["peel_trace"]] == [1, 2]


def test_iso_search_command_exhaustion(capsys, monkeypatch, tmp_path):
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "iso-search", "D8", "Q8")
    assert code == 0
    assert report["result"]["found"] is False


def test_iso_search_command_caps(capsys, monkeypatch, tmp_path):
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "iso-search", "D8xC4", "Q8xC4")
    assert code == 3
    assert report["error"]["kind"] == "caps"


def test_unknown_group_is_a_parse_error(capsys, monkeypatch, tmp_path):
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "E8")
    assert code == 2
    assert report["error"]["kind"] == "parse"


def test_analyze_and_cache_roundtrip(capsys, monkeypatch, tmp_path):
    code, report1 = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "D8")
    assert code == 0
    assert report1["result"]["jennings"] == [8, 2, 1]
    cache_files = list((tmp_path / "cache").glob("*.json"))
    assert len(cache_files) == 1
    # second run hits the cache and is byte-identical
    code, report2 = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "D8")
    assert report1 == report2
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1
    # depth change recomputes under a different key
    code, _ = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "D8", "--depth", "1")
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_version_bump_invalidates_cache(capsys, monkeypatch, tmp_path):
    run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "C4")
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1
    monkeypatch.setattr(cli, "__version__", "0.1.0+next")
    run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "C4")
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_corrupt_cache_recovers(capsys, monkeypatch, tmp_path):
    code, report1 = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "C4")
    cache_file = next((tmp_path / "cache").glob("*.json"))
    cache_file.write_text("{not json")
    code, report2 = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "C4")
    assert code == 0
    assert report1 == report2
    # the cache entry was rewritten with valid content
    assert json.loads(cache_file.read_text()) == report2["result"]


def test_byte_determinism_without_timing(capsys, monkeypatch, tmp_path):
    outputs = []
    for _ in range(2):
        monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / f"c{_}"))
        cli.main(["--no-timing", "compare", "D8", "Q8"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_timing_block_present_by_default(capsys, monkeypatch, tmp_path):
    code, report = run(capsys, monkeypatch, tmp_path, "compare", "C4", "C4")
    assert code == 0
    assert "timing" in report and isinstance(report["timing"]["seconds"], float)


def test_pcp_file_roundtrip(capsys, monkeypatch, tmp_path):
    # a presentation exported from a catalog entry analyzes identically
    entry = next(e for e in cat.builtin_catalog() if e.name == "Q8")
    path = tmp_path / "Q8.pcp"
    path.write_text(entry.presentation)
    code, by_name = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "Q8")
    code, by_file = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", f"@{path}")
    assert by_name["result"] == by_file["result"]


def test_mul_file_input(capsys, monkeypatch, tmp_path):
    G = cat.build("D8")
    path = tmp_path / "dihedral.mul"
    path.write_text("\n".join(",".join(str(x) for x in row) for row in G.mul.tolist()))
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "decompose", f"@{path}")
    assert code == 0
    assert report["result"]["nab"]["order"] == 8


def test_bad_mul_file_is_parse_error(capsys, monkeypatch, tmp_path):
    path = tmp_path / "bad.mul"
    path.write_text("0,1\n1,1\n")
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", f"@{path}")
    assert code == 2


def test_missing_file_is_parse_error(capsys, monkeypatch, tmp_path):
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "@missing.pcp")
    assert code == 2


def test_bad_subcommand_exit_code(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path))
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text",
    [
        "p 0\ngens 1\norder 1 2\n",
        "p 1\ngens 1\norder 1 2\n",
        "p 4\ngens 1\norder 1 4\n",
        "p 2\ngens 1\norder 1 2\norder 1 4\n",
        "p 2\ngens 2\norder 1 2\norder 2 2\npow 1 = g2\npow 1 = 1\n",
        "p 2\ngens 2\norder 1 2\norder 2 2\ncomm 2 1 = 1\ncomm 2 1 = 1\n",
    ],
)
def test_malformed_pcp_is_one_parse_error(tmp_path, text):
    # in a subprocess with a timeout: a presentation that hangs the parser
    # must fail this test, not the whole suite
    path = tmp_path / "bad.pcp"
    path.write_text(text)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from mipkit import cli; sys.exit(cli.main(sys.argv[1:]))",
         "--no-timing", "analyze", f"@{path}"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src, "MIPKIT_CACHE_DIR": str(tmp_path / "cache")},
    )
    assert proc.returncode == 2, proc.stderr
    report = json.loads(proc.stdout)
    assert report["error"]["kind"] == "parse"


# interrupted before the bytes land (serialization) and after (the rename)
@pytest.mark.parametrize("owner, attr", [(cli, "_canonical_json"), (os, "replace")], ids=["serialize", "rename"])
def test_interrupted_cache_write_leaves_nothing_behind(monkeypatch, tmp_path, owner, attr):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path))

    def boom(*args, **kwargs):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(owner, attr, boom)
    with pytest.raises(RuntimeError, match="interrupted"):
        cli.fingerprint_cached("C4", cat.build("C4"), 1, None)
    assert list(tmp_path.iterdir()) == []
