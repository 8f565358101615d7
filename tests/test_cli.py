import contextlib
import errno
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipkit import canonical_invariants as ci
from mipkit import catalog as cat
from mipkit import cli
from mipkit import decomposition as dc
from mipkit import group_core as gc
from test_decomposition import FAULT_PRESENTATIONS, FAULTS, SPLIT_FAULT_IDS, SPLIT_FAULTS


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


def test_argparse_error_then_a_good_command_in_one_process(capsys, monkeypatch, tmp_path):
    # exit 2 with argparse's message in one JSON object and nothing on
    # stderr, and a failed parse leaves the next command in the same process
    # unaffected
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / "cache"))
    for _ in range(2):
        assert cli.main(["--no-timing", "analyze"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out) == {"error": {
            "exit_code": 2,
            "kind": "parse",
            "message": "the following arguments are required: group",
        }}
        assert cli.main(["--no-timing", "catalog"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["command"] == "catalog" and "timing" not in report
        assert [e["name"] for e in report["result"]["entries"]] == [
            e.name for e in cat.builtin_catalog()
        ]


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


@pytest.mark.parametrize(
    "pair, key, splits, evaluations",
    [
        (("C8", "C4xC2"), "jennings", 0, 0),
        (("C4xC2", "Q8"), "ab_type", 2, 0),
        (("D8", "Q8"), None, 2, None),
    ],
    ids=["C8-C4xC2", "C4xC2-Q8", "D8-Q8"],
)
def test_compare_computes_no_key_past_the_first_difference(capsys, monkeypatch, tmp_path, pair, key, splits, evaluations):
    # each group is split once at most, and its catalog is evaluated only
    # when every group-level key agrees
    calls = Counter()
    split, evaluate = dc.ab_nab_split, ci._evaluate
    monkeypatch.setattr(dc, "ab_nab_split", lambda G: calls.update(["split"]) or split(G))
    monkeypatch.setattr(ci, "_evaluate", lambda *a: calls.update(["evaluate"]) or evaluate(*a))
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "compare", *pair)
    assert code == 0
    assert report["result"].get("key") == key
    assert calls["split"] == splits
    if evaluations is None:
        assert calls["evaluate"] > 0
    else:
        assert calls["evaluate"] == evaluations


@pytest.mark.parametrize(
    "argv",
    [["compare", "C4xC2", "Q8"], ["analyze", "D8"], ["decompose", "D8"]],
    ids=["compare", "analyze", "decompose"],
)
def test_abelian_factor_formula_mismatch_is_an_internal_error(capsys, monkeypatch, tmp_path, argv):
    # a formula that disagrees with the peeled type is caught by the split,
    # so by every command that reads the abelian-factor type
    monkeypatch.setattr(dc, "formula_ab_type", lambda G: gc.AbelianType((G.order,)))
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", *argv)
    assert code == 4
    assert report["error"]["kind"] == "internal"
    assert report["error"]["message"].startswith("abelian factor mismatch: peeled")


@pytest.mark.parametrize("fault, name, message", SPLIT_FAULTS, ids=SPLIT_FAULT_IDS)
def test_every_fault_in_the_split_exits_4(capsys, monkeypatch, tmp_path, fault, name, message):
    # a fault inside the split prints one JSON error object and exits 4,
    # never a traceback
    spec = name
    if name in FAULT_PRESENTATIONS:
        (tmp_path / f"{name}.pcp").write_text(FAULT_PRESENTATIONS[name])
        spec = f"@{tmp_path / name}.pcp"
    FAULTS[fault](monkeypatch)
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / "cache"))
    code = cli.main(["--no-timing", "decompose", spec])
    out, err = capsys.readouterr()
    assert (code, err) == (4, "")
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": {"exit_code": 4, "kind": "internal", "message": message}}


def test_unsound_catalog_expression_is_an_internal_error(capsys, monkeypatch, tmp_path):
    # the fingerprint skips no catalog expression: one whose N may miss G'
    # stops the command instead of leaving its key out
    unsound = ci.TorsionAbove(1, ci.TRIVIAL)
    monkeypatch.setattr(ci, "_normal_catalog", lambda depth, t_max, tau: ((unsound,), ()))
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "D8")
    assert code == 4
    assert report["error"]["kind"] == "internal"
    assert report["error"]["message"].startswith("Om(1;1) needs G' <= N")


def test_analyze_computes_each_formula_rank_once(capsys, monkeypatch, tmp_path):
    # the split compares the peeled type with the quotient formula once, and
    # the fingerprint's abelian-factor key reads the split: every
    # exponent's formula rank is computed once per group, none twice
    calls = Counter()
    rank = dc._formula_component_rank
    monkeypatch.setattr(dc, "_formula_component_rank", lambda G, t: calls.update([(G.name, t)]) or rank(G, t))
    expected = Counter()
    for entry in cat.builtin_catalog():
        code, _ = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", entry.name)
        assert code == 0
        G = entry.build()
        expected.update((G.name, t) for t in range(1, gc.log_p(G.exponent(), G.p) + 1))
    assert calls == expected


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


def test_iso_search_command_exhausts_an_order_16_pair(capsys, monkeypatch, tmp_path):
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "iso-search", "D16", "Q16")
    assert code == 0
    assert report["result"]["found"] is False


def test_iso_search_command_caps(capsys, monkeypatch, tmp_path):
    for pair, message in (
        (("D8xC4", "Q8xC4"), "iso search capped at dimension 16"),
        (("D8xC2", "Q8xC2"), "iso search capped at 2 generators"),
    ):
        code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "iso-search", *pair)
        assert code == 3
        assert report["error"] == {"exit_code": 3, "kind": "caps", "message": message}


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


def test_a_tmax_past_tau_copies_the_sealed_entry_of_tmax_omitted(capsys, monkeypatch, tmp_path):
    # D8 has tau = 2, and every t_max >= tau has the payload of t_max
    # omitted: a miss there copies that entry's bytes and computes nothing
    code, first = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "D8")
    calls = []
    fingerprint = ci.fingerprint
    monkeypatch.setattr(ci, "fingerprint", lambda G, *a: calls.append(a[:2]) or fingerprint(G, *a))
    for tmax in ("9", "2"):
        code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "D8", "--tmax", tmax)
        assert code == 0 and report["result"] == first["result"]
    assert calls == []
    entries = list((tmp_path / "cache").glob("*.json"))
    assert len(entries) == 3 and len({entry.read_bytes() for entry in entries}) == 1
    # below tau, and past it once the entry of t_max omitted has lost its seal
    run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "D8", "--tmax", "1")
    for entry in (tmp_path / "cache").glob("*.json"):
        entry.write_bytes(_split_entry(entry)[1])
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "D8", "--tmax", "3")
    assert code == 0 and report["result"] == first["result"]
    assert calls == [(2, 1), (2, 3)]


def test_cold_analyze_encodes_its_payload_once(monkeypatch, tmp_path):
    # the cache write encodes the payload; the report splices that text in
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path))
    encoded = []
    canonical_json = ci.canonical_json

    def spy(obj):
        text = canonical_json(obj)
        encoded.append(len(text))
        return text

    monkeypatch.setattr(ci, "canonical_json", spy)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--no-timing", "analyze", "D8"]) == 0
    payload = json.loads(out.getvalue())["result"]
    assert sum(encoded) < 2 * len(canonical_json(payload))


def test_analyze_stdout_is_the_same_bytes_on_miss_hit_and_rewritten_hit(capsys, monkeypatch, tmp_path):
    # a valid entry in another layout still prints canonical JSON
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path))
    lines = []
    for rewrite in (False, False, True):
        if rewrite:
            (entry,) = tmp_path.glob("*.json")
            seal, body = _split_entry(entry)
            entry.write_bytes(seal + json.dumps(json.loads(body), indent=2).encode())
        assert cli.main(["--no-timing", "analyze", "D8"]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1] == lines[2]
    assert lines[0] == ci.canonical_json(json.loads(lines[0])) + "\n"


def test_cli_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use; the CLI path does without it
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from mipkit import cli\n"
        "for argv in (['analyze', 'M27xC9'], ['decompose', 'M27xC9'], ['compare', 'D8', 'Q8'],\n"
        "             ['iso-search', 'C8', 'C8']):\n"
        "    assert cli.main(['--no-timing', *argv]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src, "MIPKIT_CACHE_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [["analyze", "C2"], ["analyze", "E8"]], ids=["result", "error"])
def test_closed_stdout_exits_1_with_an_empty_stderr(tmp_path, argv):
    # the reader closed the pipe before the report is written: no traceback
    # from the write or from the flush at shutdown, and one exit code
    src = str(Path(cli.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mipkit.cli", "--no-timing", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src, "MIPKIT_CACHE_DIR": str(tmp_path)},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, b"")


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
    assert json.loads(_split_entry(cache_file)[1]) == report2["result"]


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


def test_timing_ignores_a_wall_clock_step(capsys, monkeypatch, tmp_path):
    # the wall clock steps back an hour at every read; the timing block
    # reads a monotonic clock, so it never goes negative
    clock = iter(range(10**9, 0, -3600))
    monkeypatch.setattr(cli.time, "time", lambda: float(next(clock)))
    code, report = run(capsys, monkeypatch, tmp_path, "compare", "C4", "C4")
    assert code == 0
    assert 0 <= report["timing"]["seconds"] < 3600


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


@pytest.mark.parametrize("name", ["D8xC2", "Q8xC2", "Heis27", "M27"])
def test_relabeled_mul_file_analyzes_like_its_presentation(name, capsys, monkeypatch, tmp_path):
    # a random relabeling keeping 0 fixed takes the table out of pc order
    entry = next(e for e in cat.builtin_catalog() if e.name == name)
    mul = entry.build().mul
    sigma = np.concatenate([[0], 1 + np.random.default_rng(7).permutation(len(mul) - 1)])
    relabeled = np.empty_like(mul)
    relabeled[np.ix_(sigma, sigma)] = sigma[mul]
    pcp, table = tmp_path / f"{name}.pcp", tmp_path / "relabeled.mul"
    pcp.write_text(entry.presentation)
    table.write_text("\n".join(",".join(map(str, row)) for row in relabeled.tolist()))
    results = []
    for spec in (pcp, table):
        code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", f"@{spec}")
        assert code == 0, report
        results.append({k: v for k, v in report["result"].items() if k != "group"})
    assert results[0] == results[1]


def test_order_one_table(capsys, monkeypatch, tmp_path):
    # the 1x1 table: the split peels no exponent and splits off nothing
    path = tmp_path / "one.mul"
    path.write_text("0\n")
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "decompose", f"@{path}")
    assert code == 0
    cert = report["result"]
    assert (cert["order"], cert["components"], cert["nab"]["order"], cert["ab_type"]) == (1, [], 1, [])
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", f"@{path}")
    assert code == 0
    assert (report["result"]["order"], report["result"]["ab_type"]) == (1, [])
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "compare", f"@{path}", f"@{path}")
    assert code == 0
    assert report["result"]["verdict"] == "indistinguishable-at-depth"
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "iso-search", f"@{path}", f"@{path}")
    assert (code, report["error"]["kind"]) == (2, "parse")


def test_bad_mul_file_is_parse_error(capsys, monkeypatch, tmp_path):
    path = tmp_path / "bad.mul"
    path.write_text("0,1\n1,1\n")
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", f"@{path}")
    assert code == 2


def test_missing_file_is_parse_error(capsys, monkeypatch, tmp_path):
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "@missing.pcp")
    assert code == 2


@pytest.mark.parametrize(
    "name, content",
    [
        ("big.mul", b"0,1\n1,99999999999999999999\n"),  # a cell beyond int64
        ("latin1.pcp", b"p 2\ngens 1\norder 1 2 \xff\n"),  # not UTF-8
        ("folder.pcp", None),  # a directory
    ],
    ids=["int64-overflow", "not-utf8", "directory"],
)
def test_unreadable_group_file_is_one_parse_error(capsys, monkeypatch, tmp_path, name, content):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / "cache"))
    assert cli.main(["--no-timing", "analyze", f"@{path}"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == "parse"


_LONG = "2" * 5000  # beyond Python's 4300-digit limit on int(str)


@pytest.mark.parametrize(
    "name, text",
    [
        ("p.pcp", f"p {_LONG}\ngens 1\norder 1 2\n"),
        ("order.pcp", f"p 2\ngens 1\norder 1 {_LONG}\n"),
        ("exponent.pcp", f"p 2\ngens 2\norder 1 2\norder 2 2\npow 1 = g2^{_LONG}\n"),
        ("comm.pcp", f"p 2\ngens 2\norder 1 2\norder 2 2\ncomm {_LONG} 1 = 1\n"),
        ("cell.mul", f"0,1\n1,{_LONG}\n"),
    ],
    ids=["prime", "order", "exponent", "comm", "mul-cell"],
)
def test_overlong_number_is_one_parse_error(capsys, monkeypatch, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", f"@{path}")
    assert code == 2
    assert report["error"]["kind"] == "parse"


def test_compare_over_different_primes_is_one_parse_error(capsys, monkeypatch, tmp_path):
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "compare", "C4", "C9")
    assert code == 2
    assert report["error"]["kind"] == "parse"
    assert "p=2 and p=3" in report["error"]["message"]


def test_iso_search_from_a_table_is_one_parse_error(capsys, monkeypatch, tmp_path):
    table = tmp_path / "c2.mul"
    table.write_text("0,1\n1,0\n")
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "iso-search", f"@{table}", f"@{table}")
    assert code == 2
    assert set(report) == {"error"}
    assert report["error"]["kind"] == "parse"
    assert report["error"]["message"] == (
        "iso search needs a power-commutator presentation for c2, not a multiplication table"
    )
    # nor before the orders are compared or the caps applied
    big = tmp_path / "c32.mul"
    big.write_text("".join(",".join(str((i + j) % 32) for j in range(32)) + "\n" for i in range(32)))
    for source, target in ((table, "C4"), (big, f"@{big}")):
        code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "iso-search", f"@{source}", target)
        assert (code, report["error"]["kind"]) == (2, "parse")
        assert f"presentation for {source.stem}," in report["error"]["message"]
    # a table as the target still searches
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "iso-search", "C2", f"@{table}")
    assert code == 0
    assert report["result"]["found"] is True


@pytest.mark.parametrize("suffix", [".pcp", ".mul"])
def test_order_over_the_cap_is_a_caps_error_in_either_form(capsys, monkeypatch, tmp_path, suffix):
    # the elementary abelian group of order 256 = 2 * 128, over p = 2
    path = tmp_path / f"E256{suffix}"
    if suffix == ".pcp":
        path.write_text("p 2\ngens 8\n" + "".join(f"order {i} 2\n" for i in range(1, 9)))
    else:
        idx = np.arange(256)
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in idx[:, None] ^ idx))
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", f"@{path}")
    assert code == 3
    assert report["error"]["kind"] == "caps"
    assert "exceeds the cap 128 for p=2" in report["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "C8", "--depth", "0"),
        ("analyze", "C8", "--depth", "-1"),
        ("compare", "C8", "C4xC2", "--depth", "0"),
        ("analyze", "C8", "--tmax", "0"),
        ("analyze", "C8", "--tmax", "-3"),
    ],
)
def test_depth_and_tmax_below_one_are_one_parse_error(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / "cache"))
    assert cli.main(["--no-timing", *argv]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)  # raises unless stdout is one JSON value
    assert report["error"]["kind"] == "parse"
    assert "must be positive integers" in report["error"]["message"]
    assert captured.err == ""
    assert not (tmp_path / "cache").exists()


def test_huge_tmax_costs_what_tmax_tau_costs(capsys, monkeypatch, tmp_path):
    # a t_max past the stabilization threshold (3 for C8) adds no expression,
    # so the catalog is read at tau and the result is the same
    huge = "99999999999999999999"
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "C8", "--tmax", huge)
    assert code == 0 and report["inputs"]["tmax"] == int(huge)
    _, at_tau = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "C8", "--tmax", "3")
    assert report["result"] == at_tau["result"]


@pytest.mark.parametrize(
    "group, depth, message",
    [
        ("C2", "4", "the depth-4 catalog at t_max 1 needs 20817376 candidates at level 4"),
        ("C8", "3", "the depth-3 catalog at t_max 3 needs 1923069 candidates at level 3"),
    ],
)
def test_catalog_past_the_candidate_cap_is_one_caps_error(capsys, monkeypatch, tmp_path, group, depth, message):
    # each last level would take minutes to build; the cap refuses it first
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / "cache"))
    assert cli.main(["--no-timing", "analyze", group, "--depth", depth]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [ci.canonical_json({"error": {
        "exit_code": 3,
        "kind": "caps",
        "message": f"{message}, over the cap {ci.CATALOG_CANDIDATE_CAP}",
    }})]


@pytest.mark.parametrize(
    "compare_argv, analyze_argv",
    [
        (["C8", "C4xC2", "--depth", "3"], ["C8", "--depth", "3"]),
        (["C2", "C2xC2", "--depth", "4"], ["C2", "--depth", "4"]),
    ],
    ids=["C8-C4xC2-depth3", "C2-C2xC2-depth4"],
)
def test_compare_past_the_candidate_cap_is_the_analyze_caps_error(capsys, monkeypatch, tmp_path, compare_argv, analyze_argv):
    # the catalog is generated before any key is compared, so a pair the
    # group-level keys already tell apart is refused like analyze
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / "cache"))
    outputs = []
    for argv in (["compare", *compare_argv], ["analyze", *analyze_argv]):
        assert cli.main(["--no-timing", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(json.loads(captured.out))
    assert outputs[0] == outputs[1]
    assert outputs[0]["error"]["kind"] == "caps"


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
@pytest.mark.parametrize("owner, attr", [(ci, "canonical_json"), (os, "replace")], ids=["serialize", "rename"])
def test_interrupted_cache_write_leaves_nothing_behind(monkeypatch, tmp_path, owner, attr):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path))

    def boom(*args, **kwargs):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(owner, attr, boom)
    with pytest.raises(RuntimeError, match="interrupted"):
        cli.fingerprint_cached("C4", 1, None)
    assert list(tmp_path.iterdir()) == []


def _split_entry(entry):
    """(first line with its newline, the rest) of a cache entry's bytes."""
    seal, newline, body = entry.read_bytes().partition(b"\n")
    return seal + newline, body


def _seal_holds(directory):
    (entry,) = directory.glob("*.json")
    seal, body = _split_entry(entry)
    return seal == hashlib.sha256(body).hexdigest().encode() + b"\n"


def test_sealed_hit_neither_parses_nor_encodes(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path))
    assert cli.main(["--no-timing", "analyze", "D8"]) == 0
    first = capsys.readouterr().out
    (entry,) = tmp_path.glob("*.json")
    assert _seal_holds(tmp_path)

    def spy(name):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"a sealed hit called {name}")
        return forbidden

    canonical_json = ci.canonical_json
    monkeypatch.setattr(json, "loads", spy("json.loads"))
    monkeypatch.setattr(ci, "canonical_json", spy("canonical_json"))
    monkeypatch.setattr(gc, "from_pc_presentation", spy("a group build"))
    assert cli.fingerprint_cached("D8", 2, None) == _split_entry(entry)[1].decode()
    # main encodes the report's own small fields, and splices the hit's text
    monkeypatch.setattr(ci, "canonical_json", canonical_json)
    assert cli.main(["--no-timing", "analyze", "D8"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out == first


def _flip_one_byte(seal, body):
    i = body.index(b'"order":8') + len(b'"order":')  # the group's order
    return seal, body[:i] + b"9" + body[i + 1:]


def _delete_seal(seal, body):
    return b"", body


def _stale_seal(seal, body):
    return hashlib.sha256(body + b" ").hexdigest().encode() + b"\n", body


_DAMAGES = pytest.mark.parametrize(
    "damage", [_flip_one_byte, _delete_seal, _stale_seal], ids=["flip", "no-seal", "stale-seal"]
)


@_DAMAGES
def test_unsealed_entry_is_recomputed_and_sealed_again(damage, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path))
    assert cli.main(["--no-timing", "analyze", "C8"]) == 0
    first = capsys.readouterr().out
    (entry,) = tmp_path.glob("*.json")
    seal, body = damage(*_split_entry(entry))
    assert len(body) == len(_split_entry(entry)[1])
    entry.write_bytes(seal + body)
    built = []
    build = gc.from_pc_presentation
    monkeypatch.setattr(gc, "from_pc_presentation", lambda *a, **k: built.append(1) or build(*a, **k))
    assert cli.main(["--no-timing", "analyze", "C8"]) == 0
    captured = capsys.readouterr()
    assert built and captured.err == f"warning: corrupt cache entry {entry}, recomputing\n"
    assert captured.out == first
    assert _seal_holds(tmp_path)
    # and sealed: the next run is a quiet hit
    built.clear()
    assert cli.main(["--no-timing", "analyze", "C8"]) == 0
    captured = capsys.readouterr()
    assert not built and captured.err == "" and captured.out == first


def test_a_miss_writes_one_file_through_one_rename(monkeypatch, tmp_path):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / "cache"))
    replace = os.replace
    renames = []
    monkeypatch.setattr(os, "replace", lambda *a, **k: renames.append(a[1]) or replace(*a, **k))
    cli.fingerprint_cached("C4", 1, None)
    assert renames == list((tmp_path / "cache").iterdir())
    assert len(renames) == 1 and _seal_holds(tmp_path / "cache")


@_DAMAGES
def test_a_repair_reads_back_as_a_sealed_hit_right_after_its_rename(damage, capsys, monkeypatch, tmp_path):
    # a reader that lands just after the repair's rename gets the result
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path))
    assert cli.main(["--no-timing", "analyze", "C8"]) == 0
    (entry,) = tmp_path.glob("*.json")
    seal, body = _split_entry(entry)
    entry.write_bytes(b"".join(damage(seal, body)))
    replace = os.replace
    reads = []

    def spy(*args, **kwargs):
        replace(*args, **kwargs)
        reads.append(cli._sealed_text(entry))

    monkeypatch.setattr(os, "replace", spy)
    assert cli.main(["--no-timing", "analyze", "C8"]) == 0
    assert reads and all(text == body.decode() for text in reads)


def test_an_entry_of_the_two_file_layout_is_recomputed_once(capsys, monkeypatch, tmp_path):
    # entries once held the bare body, and a <key>.sha256 beside them its hash
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path))
    assert cli.main(["--no-timing", "analyze", "D8"]) == 0
    first = capsys.readouterr().out
    (entry,) = tmp_path.glob("*.json")
    _, body = _split_entry(entry)
    entry.write_bytes(body)
    old_seal = entry.with_suffix(".sha256")
    old_seal.write_text(hashlib.sha256(body).hexdigest())
    for err in (f"warning: corrupt cache entry {entry}, recomputing\n", ""):
        assert cli.main(["--no-timing", "analyze", "D8"]) == 0
        assert capsys.readouterr() == (first, err)
    assert _seal_holds(tmp_path) and _split_entry(entry)[1] == body
    assert old_seal.read_text() == hashlib.sha256(body).hexdigest()  # never read, left as it was


def test_two_runs_at_once_on_a_fresh_cache_agree_and_leave_one_entry(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "MIPKIT_CACHE_DIR": str(tmp_path / "cache")}
    argv = [sys.executable, "-m", "mipkit.cli", "--no-timing", "analyze", "D8"]
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
             for _ in range(2)]
    try:
        outputs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outputs[0] == outputs[1] and outputs[0][1] == ""
    assert json.loads(outputs[0][0])["result"]["jennings"] == [8, 2, 1]
    assert [entry.suffix for entry in (tmp_path / "cache").iterdir()] == [".json"]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_unusable_cache_directory_warns_and_prints_the_result(below, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / "cache"))
    assert cli.main(["--no-timing", "analyze", "C4"]) == 0
    miss = capsys.readouterr().out
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    directory = blocker / "cache" if below else blocker
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(directory))
    assert cli.main(["--no-timing", "analyze", "C4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == miss
    (entry,) = (tmp_path / "cache").glob("*.json")
    reason = os.strerror(errno.ENOTDIR if below else errno.EEXIST)
    assert captured.err == f"warning: cannot write cache entry {directory / entry.name}: {reason}\n"
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize(
    "text, message",
    [
        ("p 11\ngens 1\norder 1 11\n", "p = 11 is not a supported prime (2, 3, 5, 7)"),
        ("p 2\ngens 1\norder 1 6\n", "relative order 6 is not a power of 2"),
        ("p 2\ngens 2\norder 1 2\norder 2 2\npow 3 = 1\n", "power relation for unknown generator 3"),
        ("p 2\ngens 2\norder 1 2\norder 2 2\ncomm 3 1 = 1\n", "commutator relation for invalid pair (3,1)"),
        ("p 2\ngenes 1\norder 1 2\n", "expected 'gens <d>' on line 2, got 'genes 1'"),
        ("p 2\ngens 0\n", "need at least one generator"),
        ("p 2\ngens 2\norder 1 2\norder 2 2\npow 1 = g2^0\n", "word exponents must be positive"),
        ("p 2\ngens 1\norder 2 2\n", "order line for unknown generator 2"),
        ("p 2\ngens 2\norder 1 2\norder 2 2\npow 1 = g2\npow 1 = 1\n", "duplicate pow line for generator 1"),
        ("p 2\ngens 2\norder 1 2\norder 2 2\ncomm 1 2 = 1\n", "comm lines need j > i"),
        ("p 2\ngens 2\norder 1 2\norder 2 2\ncomm 2 1 = 1\ncomm 2 1 = g2\n", "duplicate comm line for (2,1)"),
        ("p 2\ngens 2\norder 1 2\norder 2 2\npow 1 = g3\n", "relation word uses g3, outside the allowed range g2..g2"),
    ],
    ids=["prime", "relative-order", "pow-generator", "comm-pair", "gens-line", "no-generators",
         "zero-exponent", "order-generator", "duplicate-pow", "comm-order", "duplicate-comm",
         "word-generator"],
)
def test_each_pcp_rejection_names_its_reason(text, message, capsys, monkeypatch, tmp_path):
    with pytest.raises(gc.PresentationError) as info:
        gc.PcPresentation.parse(text)
    assert str(info.value) == message
    path = tmp_path / "bad.pcp"
    path.write_text(text)
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / "cache"))
    assert cli.main(["--no-timing", "analyze", f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [ci.canonical_json({"error": {
        "exit_code": 2,
        "kind": "parse",
        "message": f"bad presentation {path}: {message}",
    }})]


def test_changed_source_under_the_same_name_is_a_miss(capsys, monkeypatch, tmp_path):
    path = tmp_path / "G.pcp"
    jennings = []
    for name in ("C8", "C4xC2"):
        path.write_text(next(e for e in cat.builtin_catalog() if e.name == name).presentation)
        code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", f"@{path}")
        assert code == 0
        _, direct = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", name)
        assert report["result"]["jennings"] == direct["result"]["jennings"]
        jennings.append(report["result"]["jennings"])
    assert jennings[0] != jennings[1]
    assert len(list((tmp_path / "cache").glob("*.json"))) == 4


def test_same_bytes_and_name_under_another_suffix_is_a_miss(capsys, monkeypatch, tmp_path):
    # the kind is in the key: presentation text is no multiplication table
    presentation = next(e for e in cat.builtin_catalog() if e.name == "C4").presentation
    (tmp_path / "G.pcp").write_text(presentation)
    (tmp_path / "G.mul").write_text(presentation)
    code, _ = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", f"@{tmp_path / 'G.pcp'}")
    assert code == 0
    code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", f"@{tmp_path / 'G.mul'}")
    assert code == 2 and report["error"]["kind"] == "parse"


def test_cache_hit_builds_no_group(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / "cache"))
    assert cli.main(["--no-timing", "analyze", "D8"]) == 0
    first = capsys.readouterr().out

    def no_build(*args, **kwargs):
        raise AssertionError("a cache hit built a group")

    monkeypatch.setattr(gc, "from_pc_presentation", no_build)
    assert cli.main(["--no-timing", "analyze", "D8"]) == 0
    assert capsys.readouterr().out == first


def test_omitted_tmax_and_its_default_share_a_result_not_a_key(capsys, monkeypatch, tmp_path):
    # the key holds --tmax as given; the fingerprint resolves None to tau + 1
    tau = ci.stabilization_threshold(cat.build("C8"))
    _, omitted = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "C8")
    _, given = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", "C8", "--tmax", str(tau + 1))
    assert omitted["result"] == given["result"]
    assert omitted["inputs"]["tmax"] is None and given["inputs"]["tmax"] == tau + 1
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


@pytest.mark.parametrize("file_first", [False, True])
def test_cache_hit_reports_the_specs_own_name(file_first, capsys, monkeypatch, tmp_path):
    # a catalog name and a file holding the same presentation bytes share
    # everything but the name the report gives
    entry = next(e for e in cat.builtin_catalog() if e.name == "D8")
    path = tmp_path / "Foo.pcp"
    path.write_text(entry.presentation)
    specs = [("D8", "D8"), (f"@{path}", "Foo")]
    for spec, name in specs[::-1] if file_first else specs:
        code, report = run(capsys, monkeypatch, tmp_path, "--no-timing", "analyze", spec)
        assert code == 0
        assert report["result"]["group"] == name


_MUL_CELL = st.one_of(
    st.integers(-2, 9).map(str),
    st.integers(2**63 - 1, 2**70).map(str),  # past int64, or just inside it
    st.text(" -0123ab", max_size=2),
)
_MUL_TEXT = st.lists(
    st.one_of(st.just(""), st.lists(_MUL_CELL, min_size=1, max_size=4).map(",".join)),
    max_size=4,
).map("\n".join)


def _raise_timeout(signum, frame):
    raise TimeoutError("cli.main did not return within 5 s")


# .pcp relation lines: a line head and a few word tokens
_PCP_LINE = st.tuples(
    st.sampled_from([b"p ", b"gens ", b"order 2 ", b"order 3 ", b"pow 1 = ", b"pow 2 = ",
                     b"comm 2 1 = ", b"comm 3 1 = ", b"comm 3 2 = "]),
    st.lists(st.sampled_from([b"g2", b"g3", b"^", b"*", b" ", b"0", b"1", b"2", b"3", b"9"]),
             max_size=4).map(b"".join),
).map(b"".join)
_PCP_BYTES = st.tuples(
    # a whole presentation as the head lets cases reach the table build
    st.sampled_from([b"", b"p 2\ngens 2\norder 1 2\norder 2 2\n",
                     b"p 3\ngens 3\norder 1 3\norder 2 3\norder 3 3\n"]),
    st.lists(_PCP_LINE, max_size=4).map(b"\n".join),
    st.sampled_from([b"", b"\n", b"\xff"]),
).map(b"".join).filter(lambda data: len(data) <= 80)


def _check_fuzz_case(tmp_path_factory, name, data, command):
    """cli.main on one file ends, within a 5 s alarm, in a known exit code
    with one JSON object on stdout."""
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / name
    path.write_bytes(data)
    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(5)
    try:
        with mock.patch.dict(os.environ, {"MIPKIT_CACHE_DIR": str(tmp / "cache")}):
            with contextlib.redirect_stdout(out):
                code = cli.main(["--no-timing", command, f"@{path}"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3, 4), data
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, data
    assert isinstance(json.loads(lines[0]), dict)


@settings(max_examples=150, deadline=None)
@given(text=_MUL_TEXT, command=st.sampled_from(["analyze", "decompose"]))
def test_mul_fuzz_ends_in_one_json_line(tmp_path_factory, text, command):
    # any short .mul text, blank ones included, ends in a known exit code
    # with one JSON object on stdout, in bounded time
    _check_fuzz_case(tmp_path_factory, "fuzz.mul", text.encode(), command)


@settings(max_examples=150, deadline=None)
@given(data=_PCP_BYTES, command=st.sampled_from(["analyze", "decompose"]))
def test_pcp_fuzz_ends_in_one_json_line(tmp_path_factory, data, command):
    # short .pcp bytes built from its tokens, non-UTF-8 bytes included
    _check_fuzz_case(tmp_path_factory, "fuzz.pcp", data, command)


_SMALL_GROUPS = [e.name for e in cat.builtin_catalog() if e.expected["order"] <= 9]
# --depth 3 and up is left out: depth 3 answers in seconds, and depth 4 at
# tau >= 2 builds depth 3's levels before the catalog cap refuses level 4
_ARGV_OPTION = st.one_of(
    st.sampled_from(["--peel-trace", "--no-timing", "--bogus"]).map(lambda token: [token]),
    st.tuples(st.sampled_from(["--depth", "--tmax"]), st.sampled_from(["-1", "0", "1", "2", "x"])).map(list),
)


@st.composite
def _argv(draw):
    """A subcommand (or none, or an unknown one), up to two groups (as many
    as it takes in half the draws; a bad name among them) and up to two
    options, in that order or shuffled."""
    head = draw(st.lists(st.sampled_from(["--no-timing", "--bogus"]), max_size=1))
    command = draw(st.sampled_from(
        ["analyze", "compare", "decompose", "iso-search", "catalog", "selftest", "bogus", None]
    ))
    arity = {"analyze": 1, "compare": 2, "decompose": 1, "iso-search": 2}.get(command, 0)
    count = arity if draw(st.booleans()) else draw(st.integers(0, 2))
    names = st.sampled_from(_SMALL_GROUPS + ["Nope", "@missing.pcp", ""])
    groups = draw(st.lists(names, min_size=count, max_size=count))
    options = [token for chunk in draw(st.lists(_ARGV_OPTION, max_size=2)) for token in chunk]
    tail = groups + options
    if draw(st.booleans()):
        tail = draw(st.permutations(tail))
    return head + ([command] if command else []) + tail


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
def test_argv_fuzz_ends_in_one_json_line(tmp_path_factory, argv):
    # subcommands, flags and values in any order, missing or unknown ones
    # among them, end in a known exit code with one JSON object on stdout
    # and nothing on stderr, in bounded time
    tmp = tmp_path_factory.mktemp("argv")
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(5)
    try:
        with mock.patch.dict(os.environ, {"MIPKIT_CACHE_DIR": str(tmp / "cache")}):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3, 4), argv
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, argv
    assert isinstance(json.loads(lines[0]), dict)
    assert err.getvalue() == "", argv
