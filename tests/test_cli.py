import argparse
import functools
import hashlib
import importlib
import io
import operator
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gcdperm import cli, generate_prefix, record_values, suites
from gcdperm.cli import WRITE_CHUNK_LINES, _figure_rows, _write_rows, main
from gcdperm.primes import is_prime, primorial
from gcdperm.records import cached_records
from gcdperm.sequence import DEFAULT_MAX_TERMS
from gcdperm.suites import TABLE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_csv(capsys):
    code, out, _ = run(capsys, "generate", "--a", "3", "--n", "24")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,f_n"
    assert len(lines) == 25
    assert lines[1] == "1,1" and lines[2] == "2,3" and lines[24] == "24,25"


def test_generate_identity_seed(capsys):
    code, out, _ = run(capsys, "generate", "--a", "2", "--n", "5")
    assert code == 0
    assert out.splitlines()[1:] == ["1,1", "2,2", "3,3", "4,4", "5,5"]


def test_generate_f36_tail(capsys):
    code, out, _ = run(capsys, "generate", "--a", "36", "--n", "38")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "37,35" and lines[-1] == "38,38"


def test_generate_plain_and_derivative(tmp_path, capsys):
    plain = tmp_path / "f3.txt"
    code, _, _ = run(capsys, "generate", "--a", "3", "--n", "10", "--format", "plain",
                     "--out", str(plain))
    assert code == 0
    assert plain.read_text().splitlines()[:3] == ["1 1", "2 3", "3 2"]

    code, out, _ = run(capsys, "generate", "--a", "3", "--n", "8", "--with-derivative")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,f_n,g_n"
    assert lines[7] == "7,6,5"  # g(7) = 11 - 6
    assert len(lines) == 9


def test_generate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "generate", "--a", "3", "--n", "500", "--out", str(a))
    run(capsys, "generate", "--a", "3", "--n", "500", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_records_csv(capsys):
    code, out, _ = run(capsys, "records", "--limit", "31")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,record,turning_point,jump,is_composite"
    assert lines[1] == "1,5,4,1,0"
    assert lines[8] == "8,25,24,1,1"
    assert len(lines) == 11


def test_records_composite_column_matches_miller_rabin(capsys):
    code, out, _ = run(capsys, "records", "--limit", "100000")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(r) for _, r, _, _, _ in rows] == record_values(100_000)
    assert [r for _, r, _, _, c in rows if int(c) != (not is_prime(int(r)))] == []


def test_records_out_file_matches_stdout(tmp_path, capsys):
    # One path writes the CSV: the file holds exactly what stdout shows.
    target = tmp_path / "records.csv"
    code, out, _ = run(capsys, "records", "--limit", "100", "--out", str(target))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "records", "--limit", "100")
    assert code == 0
    assert target.read_bytes() == out.encode("ascii")
    assert out.splitlines()[3] == "3,11,8,3,0"


def _csv_three_ways(tmp_path, capsys, argv):
    """The bytes argv writes to --out, and the text it writes to stdout under
    capsys and under redirect_stdout(io.StringIO())."""
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    code, captured, _ = run(capsys, *argv)
    assert code == 0
    with redirect_stdout(io.StringIO()) as buf:
        code = main(list(argv))
    assert code == 0 and capsys.readouterr().out == ""
    return target.read_bytes(), captured, buf.getvalue()


@pytest.mark.parametrize("argv", [
    ("generate", "--a", "3", "--n", "40000"),
    ("generate", "--a", "5", "--n", "20000", "--with-derivative"),
    ("generate", "--a", "3", "--n", "20000", "--format", "plain"),
    ("generate", "--a", "7", "--n", "300", "--format", "plain", "--with-derivative"),
    ("records", "--limit", "200000"),
    ("scan", "--bound", "40"),
])
def test_out_file_capsys_and_redirected_stdout_agree(tmp_path, capsys, argv):
    # The writer formats bytes: the file takes them as they are, stdout as
    # ASCII text, whatever object stdout is.
    data, captured, redirected = _csv_three_ways(tmp_path, capsys, argv)
    assert data == captured.encode("ascii") == redirected.encode("ascii")
    assert data.count(b"\n") > 1 and b"\r" not in data


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_figure_files_agree_with_the_stdout_writer(tmp_path, capsys, name):
    # export-figures writes only files; the same rows sent to stdout give
    # the same text, fig3's %r floats included.
    code, _, _ = run(capsys, "--quiet", "export-figures", name, "--out-dir", str(tmp_path))
    assert code == 0
    data = (tmp_path / f"{name}.csv").read_bytes()
    _write_rows(None, *_figure_rows(name, None))
    captured = capsys.readouterr().out
    with redirect_stdout(io.StringIO()) as buf:
        _write_rows(None, *_figure_rows(name, None))
    assert data == captured.encode("ascii") == buf.getvalue().encode("ascii")
    assert data.count(b"\n") > 100


def test_the_figure_record_bound_holds_up_to_the_default_cap():
    # fig3 and fig4 take their last record from the records up to
    # 10 limit + 100, so the L-th record r_L must be at most 10 L + 100 for
    # every L the default term cap lets them ask for.  The worst
    # (r_L - 100) / L there is about 3.39.
    top = (DEFAULT_MAX_TERMS - 100) // 10
    recs = cached_records(10 * top + 100)
    assert len(recs) >= top
    assert all(map(operator.le, recs[:top], range(110, 10 * top + 101, 10)))


def test_records_chunks_of_one_row(tmp_path, capsys):
    # --limit 5 is one chunk of one row; the record after the first full
    # chunk leaves one row in the last chunk.
    data, captured, _ = _csv_three_ways(tmp_path, capsys, ("records", "--limit", "5"))
    assert data == b"index,record,turning_point,jump,is_composite\n1,5,4,1,0\n"
    limit = record_values(10**6)[WRITE_CHUNK_LINES]
    data, captured, redirected = _csv_three_ways(tmp_path, capsys,
                                                 ("records", "--limit", str(limit)))
    want = _records_csv_by_rows(limit)
    assert want.count("\n") == WRITE_CHUNK_LINES + 2
    assert data.decode("ascii") == captured == redirected == want


def test_stdout_in_another_encoding_gets_the_same_text(capsys):
    stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-16", newline="")
    with redirect_stdout(stream):
        code = main(["records", "--limit", "100"])
    assert code == 0
    stream.flush()
    got = stream.buffer.getvalue().decode("utf-16")
    code, out, _ = run(capsys, "records", "--limit", "100")
    assert code == 0 and got == out and got.startswith("index,record,")


def _records_csv_by_rows(limit):
    """The records CSV one f-string per row: index, record, turning point, jump, compositeness."""
    lines = ["index,record,turning_point,jump,is_composite"]
    t = 4
    for i, r in enumerate(record_values(limit), start=1):
        lines.append(f"{i},{r},{t},{r - t},{int(not is_prime(r))}")
        t = r + 1
    return "".join(line + "\n" for line in lines)


def _first_difference(got, want):
    """None for equal texts, else the first differing line (a short failure message)."""
    if got == want:
        return None
    pairs = zip(got.splitlines(), want.splitlines())
    return next(((i, g, w) for i, (g, w) in enumerate(pairs) if g != w), "one text is a prefix")


def test_records_csv_matches_a_row_by_row_oracle(tmp_path, capsys, monkeypatch):
    # The writer formats whole chunks of rows at once, in one process or
    # in two; the limits put the last row at, and one past, the end of a
    # chunk, and on both sides of the records 31 and 30031 = 30030 + 1.
    # The jump and compositeness of a row are one looked-up tail.
    one_chunk = record_values(10**6)[WRITE_CHUNK_LINES - 1]
    four_chunks = record_values(10**6)[4 * WRITE_CHUNK_LINES - 1]
    limits = (5, 6, 7, 31, 30_030, 30_031, 30_032, one_chunk, one_chunk + 1,
              four_chunks, four_chunks + 1)
    wants = {limit: _records_csv_by_rows(limit) for limit in limits}
    assert wants[four_chunks + 1].count("\n") == 4 * WRITE_CHUNK_LINES + 1
    target = tmp_path / "records.csv"
    for shares in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda shares=shares: shares)
        for limit, want in wants.items():
            code, out, _ = run(capsys, "records", "--limit", str(limit))
            assert code == 0 and _first_difference(out, want) is None, (shares, limit)
            code, out, _ = run(capsys, "records", "--limit", str(limit), "--out", str(target))
            assert code == 0 and out == ""
            got = target.read_bytes().decode("ascii")
            assert _first_difference(got, want) is None, (shares, limit)


# SHA-256 of `generate --a A --n 40000 [FLAGS]` on stdout, pinned from the
# row-by-row writer that the chunked one replaced (seeds 3 and 7), and from
# the engine that the head-and-tail builder replaced (seeds 2, 4, 216 and
# 30030); 40000 rows span three chunks.  New entries go last: pytest numbers
# the flags ids by position.
GENERATE_SHA256 = {
    (3, ()): "0625c0a3ab8c0f23fdadfc8fec803a124c7f1a6f28b17fbdecd35a4ce0c317ed",
    (3, ("--format", "plain")): "f5ad1f0eee775342c3a700ce5e792e55949035726e7681530273ca9efe69219c",
    (3, ("--with-derivative",)): "8abc475e51c26ce21d34a7440b3e4d95f457f3f58038cbabac93dbaec2624ef5",
    (7, ()): "5dde28785953e88ff9c462204d813b8fd98c6e8517150461764d2cc40b82e7a2",
    (7, ("--format", "plain")): "5929938335836911ec6d668caac4741f686f3db94c0d5fd3cc3d4d9d6ede8dd7",
    (7, ("--with-derivative",)): "4040ecb689e7cab4636f6aff3cc440029dd73d3d42b00c10f983655edaf54827",
    (2, ()): "f438598aa20fe948e81887b8108a89f2c28009429729be6ed0377288748bb084",
    (2, ("--format", "plain")): "b1b5d612b7d5db143919278d761c224e21ef20fe79e79d9a573adb85544067dc",
    (2, ("--with-derivative",)): "34b851ebddfedfa49e0955d027cdf0581de32163f09d63975a2f5815fd6ce2b0",
    (4, ()): "25d1e54f630c21d3869af1e87c2593a8b24ffedc0f64781db496268b342f50f5",
    (4, ("--format", "plain")): "273a178f84dd062e58eaac7f970e064d3a712026b8be03e297bdb08f31bea112",
    (4, ("--with-derivative",)): "23661eae8b91626947f2979b515d3303ed7db283cea961ab04df2ab02f3d94f4",
    (216, ()): "b90381c27af590ad752c842dd419ab63233ff25bbe66c95daecc8d239a54a19a",
    (216, ("--format", "plain")):
        "3f24cc054468f85be3941c70d55a740128bdcfea298f6a10a0b1d474aa480b87",
    (216, ("--with-derivative",)):
        "929e15d54d851b19fb8cd437d217ef3ca149e1ae2f779a31d60b08e38152d2d6",
    (30030, ()): "b3cfb39ec89ce1d96f183072280b7e0843ca058b8cb7dc06372ed488069d0bf9",
    (30030, ("--format", "plain")):
        "d9d5752e711155a2d8cefc8a645f1145b739dbaadb304b6a891f5b32b250ec6a",
    (30030, ("--with-derivative",)):
        "273638f3b317832626061e7982f2d8bc5e7124239f1295d7b43ff0978c8da2ba",
}


@pytest.mark.parametrize("a,flags", list(GENERATE_SHA256))
def test_generate_bytes_are_pinned(capsys, a, flags):
    assert 40_000 > 2 * WRITE_CHUNK_LINES
    code, out, _ = run(capsys, "generate", "--a", str(a), "--n", "40000", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == GENERATE_SHA256[a, flags]


def test_term_cap_message_names_the_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "100")
    bfile = tmp_path / "b.txt"
    bfile.write_text("1 1\n2 7\n150 3\n")
    for argv in (("generate", "--a", "7", "--n", "200"),
                 ("generate", "--a", "7", "--n", "100", "--with-derivative"),
                 ("diff-bfile", str(bfile), "--a", "7")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "terms of f_7; cap is 100" in err, argv


def test_term_cap_bounds_terms_not_the_seed(capsys, monkeypatch, naive_prefix):
    # A seed above the cap still gets every prefix the cap holds.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "5")
    code, out, err = run(capsys, "generate", "--a", "7", "--n", "3")
    assert code == 0 and err == ""
    want = naive_prefix(7, 3)
    assert out.splitlines() == ["n,f_n"] + [f"{i},{want[i]}" for i in range(1, 4)]
    code, out, err = run(capsys, "generate", "--a", "7", "--n", "6")
    assert code == 2 and out == ""
    assert "terms of f_7; cap is 5" in err


@pytest.mark.parametrize("limit", ["-5", "0", "4"])
def test_records_limit_below_first_record_is_usage_error(capsys, limit):
    with pytest.raises(SystemExit) as exc:
        main(["records", "--limit", limit])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "suite,flags",
    [
        ("thm1", ["--limit", "2000"]),
        ("cor1", ["--limit", "2000"]),
        ("prop1", ["--limit", "1000"]),
        ("prop2", ["--limit", "1000"]),
        ("prop3", []),
        ("thm2", ["--bound", "99"]),
        ("thm3", ["--bound", "120"]),
        ("thm4", ["--bound", "120"]),
        ("thm5", ["--n", "3"]),
        ("thm6", ["--n", "3"]),
        ("thm7", ["--n", "3"]),
        ("thm8-recurrence", ["--n", "4"]),
        ("thm10", ["--bound", "120"]),
        ("cor2", []),
    ],
)
def test_verify_suites_pass(capsys, suite, flags):
    code, out, _ = run(capsys, "verify", suite, *flags)
    assert code == 0, out
    assert "FAIL" not in out
    assert "checks passed" in out


@pytest.mark.parametrize(
    "argv",
    [[suite] for suite in TABLE] + [["thm2", "--bound", "1"], ["thm3", "--bound", "5"]],
    ids=" ".join,
)
def test_verify_lines_end_without_whitespace(capsys, argv):
    # Names are padded to a common width only when a detail follows them.
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0, out
    assert [line for line in out.splitlines() if line != line.rstrip()] == []


@pytest.mark.parametrize("suite", ["thm6", "thm7"])
def test_verify_translation_n8_runs_under_the_default_term_cap(capsys, monkeypatch, suite):
    # A simulated prefix would need about 2.3e8 terms of f_3; the record
    # walks simulate none.
    monkeypatch.delenv("GCDPERM_MAX_TERMS", raising=False)
    code, out, _ = run(capsys, "verify", suite, "--n", "8")
    assert code == 0 and "FAIL" not in out
    assert "maximal" in out and "21, 213393181" in out


@pytest.mark.parametrize("argv", [["prop3", "--n", "19", "--kmax", "2"],
                                  ["prop3", "--n", "18", "--kmax", "30"],
                                  ["prop3", "--n", "25", "--kmax", "1"]])
def test_verify_past_the_primality_bound_is_usage_error(capsys, argv):
    # Each reaches prime indices k P_n + 1 past 3.3e24 (P_18 is about
    # 1.2e23), where is_prime is unproven.
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "proven exact only below 3,317,044,064,679,887,385,961,981" in err


@pytest.mark.parametrize("argv,probe", [
    (["--n", "18", "--kmax", "30"], 29 * primorial(18) + 1),
    (["--n", "25", "--kmax", "1"], primorial(19) + 1),
    (["--kmax", str(10**27)], 3_317_044_064_679_887_385_961_981),
])
def test_prop3_refuses_the_first_unproven_probe_before_any_check(capsys, monkeypatch,
                                                                 argv, probe):
    # The refusal names the first probe k P_m + 1 the checks would reach
    # past the bound, and no check runs.
    monkeypatch.setattr(suites, "derivative_bound_check", None)
    code, out, err = run(capsys, "verify", "prop3", *argv)
    assert code == 2 and out == ""
    assert err == ("error: verify prop3: is_prime is proven exact only below "
                   f"3,317,044,064,679,887,385,961,981; got {probe:,}\n")


def test_prop3_probes_obey_the_term_cap(capsys, monkeypatch):
    # n kmax probes k P_m + 1, refused past the cap before any check.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "1000")
    code, out, _ = run(capsys, "verify", "prop3", "--n", "4", "--kmax", "250")
    assert code == 0 and out.splitlines()[-1] == "prop3: 4/4 checks passed"
    monkeypatch.setattr(suites, "derivative_bound_check", None)
    code, out, err = run(capsys, "verify", "prop3", "--n", "4", "--kmax", "251")
    assert code == 2 and out == ""
    assert err == ("error: requested 1004 probes k P_m + 1 (m <= 4, k <= 251); cap is 1000 "
                   "(set GCDPERM_MAX_TERMS to raise it)\n")


@pytest.mark.parametrize("suite", ["thm5", "thm6", "thm7", "thm8-recurrence"])
def test_verify_primorial_suites_pass_at_n30(capsys, suite):
    # P_30 is about 3.2e46; the record queries run no primality test.
    code, out, _ = run(capsys, "verify", suite, "--n", "30")
    assert code == 0 and "FAIL" not in out


def test_verify_thm5_n18_stays_below_the_primality_bound(capsys):
    code, out, _ = run(capsys, "verify", "thm5", "--n", "18")
    assert code == 0
    assert out.splitlines()[-1] == "thm5: 17/17 checks passed"


def test_verify_thm7_reports_a_broken_translation(capsys, monkeypatch):
    # Let spnd(2 P_3) differ from spnd(P_3): the walks part past the record
    # 31, and k = 32 fails.
    primorial_module = importlib.import_module("gcdperm.primorial")
    spnd = primorial_module.smallest_prime_not_dividing
    monkeypatch.setattr(primorial_module, "smallest_prime_not_dividing",
                        lambda m: 2 if m == 60 else spnd(m))
    code, out, _ = run(capsys, "verify", "thm7", "--n", "3")
    assert code == 1
    assert "FAIL  [thm7] translation on stated range (7, 180)  maximal (0, 0)" in out
    assert out.splitlines()[-1] == "thm7: 1/2 checks passed"


def test_verify_thm6_n4(capsys):
    code, out, _ = run(capsys, "verify", "thm6", "--n", "4")
    assert code == 0
    assert "maximal range k in [9, 2101]" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2


def test_diff_bfile_agreement(tmp_path, capsys):
    bfile = tmp_path / "b.txt"
    run(capsys, "generate", "--a", "3", "--n", "100", "--format", "plain",
        "--out", str(bfile))
    code, out, _ = run(capsys, "diff-bfile", str(bfile), "--a", "3")
    assert code == 0
    assert "agreement: 100 terms" in out


def test_diff_bfile_ten_thousand_terms(tmp_path, capsys):
    bfile = tmp_path / "b10000.txt"
    run(capsys, "generate", "--a", "3", "--n", "10000", "--format", "plain",
        "--out", str(bfile))
    code, out, _ = run(capsys, "diff-bfile", str(bfile), "--a", "3")
    assert code == 0
    assert "agreement: 10000 terms" in out


def test_diff_bfile_comments_and_empty(tmp_path, capsys):
    bfile = tmp_path / "b.txt"
    bfile.write_text("# comment\n\n1 1\n2 3\n")
    code, out, _ = run(capsys, "diff-bfile", str(bfile))
    assert code == 0 and "agreement: 2 terms" in out

    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    code, _, err = run(capsys, "diff-bfile", str(empty))
    assert code == 0
    assert "warning" in err


def test_diff_bfile_tamper(tmp_path, capsys):
    bfile = tmp_path / "b.txt"
    run(capsys, "generate", "--a", "3", "--n", "100", "--format", "plain",
        "--out", str(bfile))
    lines = bfile.read_text().splitlines()
    n, v = lines[56].split()
    lines[56] = f"{n} {int(v) + 1}"
    bfile.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "diff-bfile", str(bfile))
    assert code == 1
    assert "mismatch at n=57" in out


def test_diff_bfile_offset_and_from(tmp_path, capsys):
    shifted = tmp_path / "shifted.txt"
    buf_lines = [f"{i + 5} {v}" for i, v in enumerate([1, 3, 2, 5, 4, 7, 6, 11], start=1)]
    shifted.write_text("\n".join(buf_lines) + "\n")
    code, out, _ = run(capsys, "diff-bfile", str(shifted), "--offset", "-5")
    assert code == 0 and "agreement: 8 terms" in out

    head_diff = tmp_path / "head.txt"
    head_diff.write_text("1 9\n2 9\n3 9\n4 5\n5 4\n6 7\n")
    code, _, _ = run(capsys, "diff-bfile", str(head_diff))
    assert code == 1
    code, out, _ = run(capsys, "diff-bfile", str(head_diff), "--from", "4")
    assert code == 0 and "agreement: 3 terms" in out


def test_diff_bfile_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 3 9\n")
    code, _, err = run(capsys, "diff-bfile", str(bad))
    assert code == 3
    assert "bad.txt:2" in err

    missing = tmp_path / "missing.txt"
    code, _, err = run(capsys, "diff-bfile", str(missing))
    assert code == 3


def test_diff_bfile_non_integer_field(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 three\n")
    code, out, err = run(capsys, "diff-bfile", str(bad))
    assert code == 3 and out == ""
    assert err == f"error: {bad}:2: non-integer field in '2 three'\n"


def test_scan_reports_a_disagreement(tmp_path, capsys, monkeypatch):
    # A membership test that disagrees with simulation at one seed.
    classify = importlib.import_module("gcdperm.classify")
    by_record = classify.eventually_identity_by_record
    monkeypatch.setattr(classify, "eventually_identity_by_record",
                        lambda a: by_record(a) != (a == 12))
    code, _, err = run(capsys, "scan", "--bound", "40", "--out", str(tmp_path / "scan.csv"))
    assert code == 1
    assert err == "disagreement at seeds: [12]\n"
    assert "\n12,identity,13,0,1,0\n" in (tmp_path / "scan.csv").read_text()


def test_export_figures(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, out, _ = run(capsys, "export-figures", "fig2", "--out-dir", str(out_dir),
                       "--limit", "200")
    assert code == 0
    lines = (out_dir / "fig2.csv").read_text().splitlines()
    assert lines[0] == "t,g_t"
    assert len(lines) == 201
    assert lines[7] == "7,5"  # g(7) = 11 - 6

    code, _, _ = run(capsys, "export-figures", "fig1", "--out-dir", str(out_dir),
                     "--limit", "100")
    assert code == 0
    lines = (out_dir / "fig1.csv").read_text().splitlines()
    assert lines[0] == "j,m_j,M_j,gap_a,gap_b"
    assert lines[2] == "2,5,7,1,3"

    code, _, _ = run(capsys, "export-figures", "fig3", "--out-dir", str(out_dir),
                     "--limit", "50")
    lines = (out_dir / "fig3.csv").read_text().splitlines()
    assert lines[0] == "n,ratio_ln" and len(lines) == 51

    code, _, _ = run(capsys, "export-figures", "fig4", "--out-dir", str(out_dir),
                     "--limit", "50")
    lines = (out_dir / "fig4.csv").read_text().splitlines()
    assert lines[0] == "n,primes_among_records" and len(lines) == 51


def test_export_deterministic(tmp_path, capsys):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    for d in (d1, d2):
        code, _, _ = run(capsys, "export-figures", "all", "--out-dir", str(d),
                         "--limit", "60")
        assert code == 0
    for name in ("fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_scan_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--bound", "40", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,verdict,witness,record_test,primorial_test,agree"
    assert lines[1] == "2,identity,1,1,1,1"
    rows = {line.split(",")[0]: line for line in lines[1:]}
    assert rows["36"] == "36,identity,38,1,1,1"


def test_io_error_exit_code(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run(capsys, "generate", "--a", "3", "--n", "5", "--out", str(target))
    assert code == 3
    assert err


def test_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "100")
    code, _, err = run(capsys, "generate", "--a", "3", "--n", "200")
    assert code == 2
    assert "cap" in err


def test_verify_budget_exhaustion_exit_codes(capsys, monkeypatch):
    # a cap one term short of seed 216's first ETP (6 terms past the seed):
    # thm4 propagates as usage, thm3 surfaces the undecided seed as a
    # failing check
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "5")
    code, _, err = run(capsys, "verify", "thm4", "--bound", "216")
    assert code == 2
    assert err == ("error: f_216: no certificate within 5 terms; "
                   "set GCDPERM_MAX_TERMS to raise the term cap\n")
    code, out, _ = run(capsys, "verify", "thm3", "--bound", "216")
    assert code == 1
    assert "FAIL" in out


def test_default_budget_exhaustion_names_the_term_cap(capsys, monkeypatch):
    # The term cap is the one limit on classification; the hint names it.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "5")
    for argv in (["verify", "thm4", "--bound", "216"], ["scan", "--bound", "216"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.rstrip().endswith("set GCDPERM_MAX_TERMS to raise the term cap"), err
        assert "--budget" not in err


def _capped_main(cap):
    """A script that runs ``cli.main`` on its argv in at most cap bytes of
    address space, set in that process only."""
    return ("import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            f"cap = {cap} if hard == resource.RLIM_INFINITY else min(hard, {cap})\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "from gcdperm.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("argv", [["scan"], ["verify", "thm4"], ["verify", "thm10"],
                                  ["verify", "thm2"], ["verify", "thm3"]])
def test_seed_sweep_past_memory_is_usage_error(argv):
    # The seeds up to 10^14, 6k or odd, do not fit in 1 GiB of address
    # space, set in the child only: the run ends with exit 2 and one error
    # line.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _capped_main(1 << 30), *argv,
                           "--bound", str(10**14)],
                          env=env, cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


HUGE = str(10**4000)
HUGE_FLAG_ARGV = [
    ["generate", "--n", HUGE],
    ["generate", "--a", HUGE, "--n", "10"],
    ["records", "--limit", HUGE],
    *(["export-figures", which, "--limit", HUGE]
      for which in ("fig1", "fig2", "fig3", "fig4", "all")),
    ["scan", "--bound", HUGE],
    *(["diff-bfile", flag, HUGE] for flag in ("--a", "--offset", "--from")),
    *(["verify", suite, f"--{flag}", HUGE] for suite, row in TABLE.items() for flag in row.flags),
]


@pytest.mark.parametrize("argv", HUGE_FLAG_ARGV,
                         ids=[" ".join(argv).replace(HUGE, "10**4000") for argv in HUGE_FLAG_ARGV])
def test_every_numeric_flag_at_10_to_the_4000(tmp_path, capsys, monkeypatch, argv):
    # An oversized value ends the run with a documented exit code; a usage
    # or input error prints one error line and no traceback.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "1000")
    if argv[0] == "export-figures":
        argv = [*argv, "--out-dir", str(tmp_path)]
    elif argv[0] == "diff-bfile":
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 1\n2 3\n3 2\n")
        argv = ["diff-bfile", str(bfile), *argv[1:]]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2, 3), code
    if code in (2, 3):
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert len(err) < 200, err  # a refused request shows no int past 20 digits


GRAMMAR_VALUES = [1, 2, 3, 2**31, 2**63 - 1, 2**63 + 1, 10**4000]


def _grammar_argv(rng, tmp_path, bfile):
    """One argv drawn from ``cli.build_parser()``: a subcommand, a choice
    for each positional, every required flag and each other flag at even
    odds; past a suite name, a flag that suite does not take at 1 in 8.  A
    number is one of GRAMMAR_VALUES, a path lies in tmp_path and diff-bfile
    reads bfile."""
    def draw(actions):
        argv, takes = [], None
        for action in actions:
            if isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
                continue
            if not action.option_strings:  # a positional
                argv.append(rng.choice(sorted(action.choices)) if action.choices else str(bfile))
                takes = TABLE[argv[-1]].flags if argv[-1] in TABLE else None
                continue
            odds = 0.5 if takes is None or action.dest in takes else 0.125
            if not action.required and rng.random() >= odds:
                continue
            argv.append(action.option_strings[0])
            if action.nargs == 0:
                continue
            if action.choices:
                argv.append(rng.choice(sorted(action.choices)))
            elif action.type is None:
                argv.append(str(tmp_path / f"out{rng.randrange(4)}"))
            else:
                argv.append(str(rng.choice(GRAMMAR_VALUES)))
        return argv

    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = rng.choice(sorted(sub.choices))
    return [*draw(a for a in parser._actions if a is not sub), command,
            *draw(sub.choices[command]._actions)]


def test_seeded_argv_from_the_parser_grammar(tmp_path):
    # Forty argv drawn from the parser, each run in its own process with a
    # small term cap and 512 MiB of address space: every run ends with a
    # documented exit code, and a usage or input error names itself on
    # stderr with no traceback.
    rng = random.Random(29)
    bfile = tmp_path / "b.txt"
    bfile.write_text("1 1\n2 3\n3 2\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), GCDPERM_MAX_TERMS="1000")
    for _ in range(40):
        argv = _grammar_argv(rng, tmp_path, bfile)
        proc = subprocess.run([sys.executable, "-c", _capped_main(512 << 20), *argv],
                              env=env, cwd=tmp_path, capture_output=True, text=True,
                              timeout=60)
        shown = " ".join(argv).replace(str(10**4000), "10**4000")
        assert proc.returncode in (0, 1, 2, 3), (shown, proc.returncode, proc.stderr)
        assert "Traceback" not in proc.stderr, (shown, proc.stderr)
        if proc.returncode in (2, 3):
            assert "error:" in proc.stderr, (shown, proc.stderr)


def _simulated_generate(n, fmt="csv", with_derivative=False, a=3):
    # Expected `generate --a A` output, built from the simulation engine.
    terms = generate_prefix(a, n + 1).terms
    sep = " " if fmt == "plain" else ","
    rows = [] if fmt == "plain" else ["n,f_n,g_n" if with_derivative else "n,f_n"]
    for i in range(1, n + 1):
        fields = [i, terms[i]] + ([terms[i + 1] - terms[i]] if with_derivative else [])
        rows.append(sep.join(map(str, fields)))
    return "".join(row + "\n" for row in rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 70_000])
@pytest.mark.parametrize(
    "flags,kind",
    [([], {}), (["--format", "plain"], {"fmt": "plain"}),
     (["--with-derivative"], {"with_derivative": True})],
)
def test_generate_f3_matches_simulation(tmp_path, capsys, n, flags, kind):
    want = _simulated_generate(n, **kind)
    out_file = tmp_path / "f3.out"
    code, out, _ = run(capsys, "generate", "--a", "3", "--n", str(n), *flags,
                       "--out", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_bytes() == want.encode("ascii")
    code, out, _ = run(capsys, "generate", "--a", "3", "--n", str(n), *flags)
    assert code == 0
    assert out == want


GENERATE_FORMATS = [
    ([], {}),
    (["--format", "plain"], {"fmt": "plain"}),
    (["--with-derivative"], {"with_derivative": True}),
    (["--format", "plain", "--with-derivative"], {"fmt": "plain", "with_derivative": True}),
]


@pytest.mark.parametrize("n", [WRITE_CHUNK_LINES - 1, WRITE_CHUNK_LINES, WRITE_CHUNK_LINES + 1,
                               2 * WRITE_CHUNK_LINES + 1])
@pytest.mark.parametrize("a", [3, 7])
def test_generate_chunk_edges_match_simulation(tmp_path, capsys, a, n):
    # The writer interleaves whole column chunks; n puts the last row just
    # before, at, and just past the end of a chunk.
    out_file = tmp_path / "f.out"
    for flags, kind in GENERATE_FORMATS:
        want = _simulated_generate(n, a=a, **kind)
        code, out, _ = run(capsys, "generate", "--a", str(a), "--n", str(n), *flags)
        assert code == 0 and _first_difference(out, want) is None, flags
        code, out, _ = run(capsys, "generate", "--a", str(a), "--n", str(n), *flags,
                           "--out", str(out_file))
        assert code == 0 and out == ""
        assert out_file.read_bytes() == want.encode("ascii"), flags


def test_generate_plain_with_derivative_writes_plain_lines(capsys):
    # An explicit --format plain is kept: the derivative is a third field.
    code, out, _ = run(capsys, "generate", "--a", "3", "--n", "8", "--format", "plain",
                       "--with-derivative")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 1 2" and lines[6] == "7 6 5" and len(lines) == 8


# SHA-256 of each CSV, pinned from the row-at-a-time writer that the column
# writer replaced.
SCAN_3000_SHA256 = "18d89117e362797797e18a26a9ee9e486eb20f578a8af3e861f70c865e8880ab"
FIGURES_SHA256 = {
    ("--limit", "3"): {
        "fig1.csv": "d0a821054b303950655427e3cf8053e7fb3ac97ed56ffaebef8665a546b6ddbf",
        "fig2.csv": "2f75c2eafeab9e7e0901aad12dde86049886df5032c312365d6812f25bc77f1e",
        "fig3.csv": "126ac36819ae0e642571dba691d1a69bea8777bc97be969635fe43c410b2269d",
        "fig4.csv": "7279623f749793a9880b893cae99787957ccd2b5126feac8637263a8a321d26b",
    },
    (): {
        "fig1.csv": "09c9398ce5131f4d22a00140bdf13da886d748f0315208fd46c6c1cd17d75581",
        "fig2.csv": "9794f9d23cc0bc91af5a23fc65e0bbbb4128afa98704609f4542f2da289105d9",
        "fig3.csv": "a52b5d835705371ebc843383e4dace0db18e070c0b808383a259214fa8ad2585",
        "fig4.csv": "78209eed32535549524a91ed808eb8f6c3031ce20c3dcfac41e424e9d024c168",
    },
}


def test_scan_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--bound", "3000", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_3000_SHA256


@pytest.mark.parametrize("flags", sorted(FIGURES_SHA256))
def test_export_figures_bytes_are_pinned(tmp_path, capsys, flags):
    # With --limit 3, fig1 has no twin-prime gap at all: a header and no rows.
    code, _, _ = run(capsys, "export-figures", "all", "--out-dir", str(tmp_path), *flags)
    assert code == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == FIGURES_SHA256[flags]


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "1"],
    ["generate", "--n", "-3"],
    ["generate", "--n", "ten"],
    ["generate", "--a", "1", "--n", "5"],
    ["generate", "--a", "0", "--n", "5"],
    ["diff-bfile", "b.txt", "--a", "1"],
])
def test_bad_seed_or_term_count_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("raw", ["abc", "0", "-1"])
@pytest.mark.parametrize("a", ["3", "5"])
def test_bad_term_cap_env_is_usage_error(tmp_path, capsys, monkeypatch, raw, a):
    monkeypatch.setenv("GCDPERM_MAX_TERMS", raw)
    target = tmp_path / "out.csv"
    code, out, err = run(capsys, "generate", "--a", a, "--n", "10", "--out", str(target))
    assert code == 2
    assert "GCDPERM_MAX_TERMS" in err and out == ""
    assert not target.exists()


def test_cap_exit_code_f3_with_derivative(tmp_path, capsys, monkeypatch):
    # --with-derivative needs one term past --n, and that term counts too.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "100")
    target = tmp_path / "out.csv"
    code, _, err = run(capsys, "generate", "--a", "3", "--n", "100", "--with-derivative",
                       "--out", str(target))
    assert code == 2 and "cap" in err
    assert not target.exists()
    code, out, _ = run(capsys, "generate", "--a", "3", "--n", "99", "--with-derivative")
    assert code == 0 and out == _simulated_generate(99, with_derivative=True)


@pytest.mark.parametrize("flag", ["--limit", "--bound", "--n", "--kmax", "--budget"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_verify_flags_reject_non_positive(capsys, flag, value):
    # --budget is no longer an option: argparse rejects it whatever its value.
    for suite in ("prop3", "thm2", "cor1"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["0", "-1"])
def test_export_figures_limit_rejects_non_positive(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["export-figures", "fig2", "--out-dir", str(tmp_path / "figs"), "--limit", value])
    assert exc.value.code == 2
    assert not (tmp_path / "figs").exists()


# Chunks of indices across 9,999/10,000 (the template starts), 16,384/16,385
# (a chunk edge), 19,999/20,000, 99,999/100,000 and 999,999/1,000,000 (the
# part above the four low digits gains a digit), and chunks that start and
# end in the middle of a 10^4 stretch.
TEMPLATE_SPANS = [(1, 16_385), (16_385, 32_769), (9_990, 10_011), (19_999, 20_001),
                  (99_990, 100_011), (999_999, 1_000_002), (12_345, 12_346), (54_321, 71_000)]


def _one_percent(row_format, chunk):
    """A chunk's rows by one % over its row format repeated: the oracle of the template."""
    return row_format.encode("ascii") * len(chunk[0]) % tuple(v for row in zip(*chunk) for v in row)


@pytest.mark.parametrize("row_format", ["%d,%d\n", "%d %d\n", "%d,%d,%d\n", "%d,%d,%d,%d,%d\n",
                                        "%d,%%,%d\n"])
def test_formatted_index_template_matches_one_percent_per_chunk(row_format):
    width = row_format.replace("%%", "").count("%")  # a literal %% takes no field

    def columns(s, e):  # the index, then columns of either sign
        return (range(s, e), *([(i % 3 - 1) * i * (k + 2) for i in range(s, e)]
                               for k in range(width - 1)))

    # One call builds the template once and reads it for every later chunk.
    got = list(cli._formatted(row_format, TEMPLATE_SPANS, columns))
    assert len(got) == len(TEMPLATE_SPANS)
    for span, data in zip(TEMPLATE_SPANS, got):
        assert data == _one_percent(row_format, columns(*span)), span
    for span in TEMPLATE_SPANS[::-1]:
        assert list(cli._formatted(row_format, [span], columns)) == [
            _one_percent(row_format, columns(*span))], span


def test_formatted_keeps_a_first_column_that_is_no_step_1_range():
    # scan's first column is a tuple of the seeds 2, 4, 6, 12, ...; it and a
    # range of step 6 past 10^4 keep a %d per row.
    seeds = (2, 4, *range(6, 6 * 40_000, 6))

    def scan_columns(s, e):
        return tuple(zip(*[(a, b"c3" if a % 4 else b"identity", a - 1, a % 2, a % 3, 1)
                           for a in seeds[s - 1 : e - 1]]))

    def stepped_columns(s, e):
        return range(6 * s, 6 * e, 6), [i * i for i in range(s, e)]

    for row_format, columns in (("%d,%s,%d,%d,%d,%d\n", scan_columns),
                                ("%d,%d\n", stepped_columns), ("%d,%%,%d\n", stepped_columns)):
        spans = [(1, WRITE_CHUNK_LINES + 1), (30_000, 40_001)]
        got = list(cli._formatted(row_format, spans, columns))
        assert got == [_one_percent(row_format, columns(*span)) for span in spans]
        assert got[1].startswith(b"%d," % columns(30_000, 30_001)[0][0])


@pytest.mark.parametrize("n", [9_999, 10_000, 10_001, 100_000, 100_001])
def test_generate_around_the_index_template_matches_simulation(capsys, n):
    for flags, kind in GENERATE_FORMATS:
        code, out, _ = run(capsys, "generate", "--a", "3", "--n", str(n), *flags)
        assert code == 0 and _first_difference(out, _simulated_generate(n, **kind)) is None, flags


def test_records_around_the_index_template_match_a_row_by_row_oracle(capsys):
    # The CSV of a smaller limit is the header and the first rows of the largest.
    values = record_values(10**6)
    want = _records_csv_by_rows(values[100_000]).splitlines(keepends=True)
    for rows in (9_999, 10_000, 10_001, 99_999, 100_000, 100_001):
        code, out, _ = run(capsys, "records", "--limit", str(values[rows - 1]))
        assert code == 0 and _first_difference(out, "".join(want[: rows + 1])) is None, rows


def test_fig2_matches_simulation_at_default_span(tmp_path, capsys):
    code, _, _ = run(capsys, "export-figures", "fig2", "--out-dir", str(tmp_path))
    assert code == 0
    terms = generate_prefix(3, 12_001).terms
    want = "t,g_t\n" + "".join(f"{t},{terms[t + 1] - terms[t]}\n" for t in range(1, 12_001))
    assert (tmp_path / "fig2.csv").read_bytes() == want.encode("ascii")



@pytest.mark.parametrize("value", ["0", "-5"])
def test_scan_flags_reject_non_positive(tmp_path, capsys, value):
    out = tmp_path / "scan.csv"
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--bound", value, "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "thm2", "--budget", "5"],
    ["scan", "--bound", "40", "--budget", "5"],
    ["records", "--limit", "100", "--cache", "F"],
])
def test_removed_options_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    # --budget (the term cap is the one limit) and --cache (records are
    # recomputed) are gone: argparse rejects them before anything runs.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,takes", [
    (["prop3", "--bound", "7"], "--n, --kmax"),
    (["prop3", "--n", "2", "--limit", "9"], "--n, --kmax"),
    (["cor2", "--n", "3"], "--limit"),
    (["thm6", "--bound", "100"], "--n"),
])
def test_verify_flag_the_suite_does_not_take_is_usage_error(capsys, argv, takes):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert f"takes {takes}" in err


@pytest.mark.parametrize("argv", [["thm5", "--n", "1"], ["thm6", "--n", "1"],
                                  ["thm1", "--limit", "2"]])
def test_verify_value_below_the_suite_range_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "must be >=" in err


@pytest.mark.parametrize("suite", ["thm5", "thm8-recurrence"])
def test_verify_index_at_the_record_ceiling_is_refused_before_any_check(capsys, monkeypatch,
                                                                        suite):
    # Record queries stop below P_3248, so --n 3248 is refused before any query.
    def refuse(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(suites, "is_record", refuse)
    monkeypatch.setattr(suites, "build_density_ledger", refuse)
    code, out, err = run(capsys, "verify", suite, "--n", "3248")
    assert code == 2 and out == ""
    assert err == (f"error: verify {suite}: n must be < 3248: "
                   "the f_3 records are exact only below P_3248\n")


def test_vacuous_checks_print_vacuous(capsys):
    # n=1 and n=6 have no prime index k*P_n + 1 with k <= 1.
    code, out, _ = run(capsys, "verify", "prop3", "--n", "6", "--kmax", "1")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["VACUOUS"] + ["PASS"] * 4 + ["VACUOUS"]
    assert lines[-1] == "prop3: 4/4 checks passed, 2 vacuous"

    # f_3 has one ETP up to index 5 and f_7 none: no pair of ETPs to check.
    code, out, _ = run(capsys, "verify", "thm1", "--limit", "5")
    assert code == 0
    assert "PASS" not in out and out.count("VACUOUS") == 4
    assert out.splitlines()[-1] == "thm1: 0/0 checks passed, 4 vacuous"

    code, out, _ = run(capsys, "verify", "prop3", "--n", "6", "--kmax", "100")
    assert code == 0 and "VACUOUS" not in out
    assert out.splitlines()[-1] == "prop3: 6/6 checks passed"


# `gcdperm verify --help` at 80 columns, byte for byte.
VERIFY_HELP = """\
usage: gcdperm verify [-h] [--limit LIMIT] [--bound BOUND] [--n N]
                      [--kmax KMAX]
                      suite

positional arguments:
  suite          one of: cor1, cor2, prop1, prop2, prop3, thm1, thm10, thm2,
                 thm3, thm4, thm5, thm6, thm7, thm8-recurrence

options:
  -h, --help     show this help message and exit
  --limit LIMIT  index/value limit
  --bound BOUND  seed bound
  --n N          primorial index
  --kmax KMAX    multiplier bound

suites, each with the flags it takes and their defaults:
  thm1             ETP recursion: next ETP is record+1, no turning points in between
                   --limit 10000
  cor1             odd-index identity f_3(2k+1)=2k; every prime >= 5 is a record; parities
                   --limit 100000
  prop1            f_3(2k+1) = 2k for all k up to the limit
                   --limit 100000
  prop2            f_3(3k+1) = 3k for all 2 <= k up to the limit
                   --limit 100000
  prop3            forward difference >= 2n+1 at prime indices k*P_n + 1
                   --n 4 --kmax 8
  thm2             odd seeds merge into f_3 with every ETP even
                   --bound 999
  thm3             multiples of 6 settle to identity or merge, ETPs even
                   --bound 300
  thm4             record-adjacency membership test agrees with simulation
                   --bound 300
  thm5             P_n +- 1 and 2 P_n +- 1 are records
                   --n 4
  thm6             translation f(P_n + k) = f(k) + P_n on [p_{n+1}, 2 P_n]
                   --n 3
  thm7             r P_n +- 1 records for r < p_{n+1}; translation on the full range
                   --n 3
  thm8-recurrence  window counts satisfy w_{n+1} = w_n p_{n+1} - s_{n+1}
                   --n 5
  thm10            primorial-representation membership test agrees with simulation; identity count matches the band count
                   --bound 300
  cor2             exceptional-seed count from the density bands matches a brute-force count
                   --limit 1000000
"""


def test_verify_help_lists_each_suite_with_its_flags(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == VERIFY_HELP


def test_traced_run_finds_every_hook_point():
    # The traced benchmark run wraps library names from outside the package;
    # it must still find each of them.  thm4 and thm7 run the record
    # membership queries of classify and of the primorial record check, and
    # thm4's even seeds run classify's attempts and its short simulation.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    script = ("import sys, tracer\n"
              "t = tracer.Tracer()\n"
              "t.install()\n"
              "from gcdperm import cli\n"
              "for argv in (['prop3', '--n', '2'], ['thm4', '--bound', '60'],\n"
              "             ['thm7', '--n', '3']):\n"
              "    before = {k: v[0] for k, v in t.counted.items()}\n"
              "    if cli.main(['verify', *argv]):\n"
              "        sys.exit(1)\n"
              "    for name in ('classify.attempts', 'sequence.extend_to'):\n"
              "        print('calls', argv[0], name, t.counted[name][0] - before.get(name, 0))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    summaries = [line for line in lines if "checks passed" in line]
    assert summaries == ["prop3: 2/2 checks passed", "thm4: 1/1 checks passed",
                         "thm7: 2/2 checks passed"]
    calls = {tuple(line.split()[1:3]): int(line.split()[3])
             for line in lines if line.startswith("calls ")}
    assert calls[("thm4", "classify.attempts")] >= 1
    assert calls[("thm4", "sequence.extend_to")] >= 1


def test_closed_stdout_ends_quietly():
    # A reader that takes one line and closes the pipe: the writer gets
    # EPIPE on its next chunk and exits 0 with nothing on stderr.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "gcdperm", "generate", "--n", "200000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root)
    assert proc.stdout.readline() == b"n,f_n\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# --- the forked writer -------------------------------------------------------
#
# Output of more than one chunk is cut into one contiguous share per usable
# CPU; forked children format the shares after the first.  The tests force
# the share count through ``cli._usable_cpus``, so they fork on a host of
# any size.

def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch):
    """Wrap os.fork; the list it returns gains the pid of each child forked."""
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _records_limit(rows):
    return record_values(10**6)[rows - 1]


def _scan_bound(rows):
    # scan's seeds are 2, 4, 6, 12, ...: 2 + bound // 6 of them for bound >= 6.
    return 6 * (rows - 2)


CHUNK_EDGES = {"0 rows": 0, "1 chunk": WRITE_CHUNK_LINES, "1 chunk + 1": WRITE_CHUNK_LINES + 1,
               "2 chunks": 2 * WRITE_CHUNK_LINES, "3 chunks": 3 * WRITE_CHUNK_LINES}
FORKED_ARGV = [
    *[(f"{name} {edge}", ("generate", "--a", "3", "--n", str(rows), *flags))
      for name, flags in (("csv", ()), ("plain", ("--format", "plain")),
                          ("derivative", ("--with-derivative",)))
      for edge, rows in CHUNK_EDGES.items() if rows],
    *[(f"records {edge}", ("records", "--limit", str(_records_limit(rows))))
      for edge, rows in CHUNK_EDGES.items() if rows],
    ("scan 0 rows", ("scan", "--bound", "1")),
    *[(f"scan {edge}", ("scan", "--bound", str(_scan_bound(rows))))
      for edge, rows in CHUNK_EDGES.items() if rows],
]
FORKED_SHA256 = {
    ("generate", "--a", "3", "--n", "40000"): GENERATE_SHA256[3, ()],
    ("generate", "--a", "3", "--n", "40000", "--with-derivative"):
        GENERATE_SHA256[3, ("--with-derivative",)],
    ("scan", "--bound", "3000"): SCAN_3000_SHA256,
}


@pytest.mark.parametrize("argv", [argv for _, argv in FORKED_ARGV] + list(FORKED_SHA256),
                         ids=[name for name, _ in FORKED_ARGV] + ["pinned"] * len(FORKED_SHA256))
def test_forked_writer_writes_the_bytes_of_one_process(tmp_path, capsys, monkeypatch, argv):
    target = tmp_path / "out.csv"
    outputs = {}
    # The writer is under test, not the scan: the four runs share one.
    monkeypatch.setattr(cli, "scan_identity_seeds", functools.cache(cli.scan_identity_seeds))
    for shares in ("default", 1, 3):
        if shares != "default":
            monkeypatch.setattr(cli, "_usable_cpus", lambda shares=shares: shares)
        forks = _count_forks(monkeypatch)
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        outputs[shares] = target.read_bytes()
        rows = outputs[shares].count(b"\n") - (argv[-2:] != ("--format", "plain"))
        chunks = -(-rows // WRITE_CHUNK_LINES)
        if shares != "default":
            assert len(forks) == (min(shares, chunks) - 1 if chunks > 1 else 0)
        _assert_no_child_left()
    code, out, _ = run(capsys, *argv)  # three shares, to stdout
    assert code == 0
    assert outputs[1] == outputs["default"] == outputs[3] == out.encode("ascii")
    if argv in FORKED_SHA256:
        assert hashlib.sha256(outputs[3]).hexdigest() == FORKED_SHA256[argv]
    _assert_no_child_left()


def _fail_in_children(monkeypatch, failure):
    """Make the chunk formatting call failure() first in every process but this one."""
    parent, formatted = os.getpid(), cli._formatted

    def patched(*args):
        if os.getpid() != parent:
            failure()
        return formatted(*args)

    monkeypatch.setattr(cli, "_formatted", patched)


def test_a_failed_formatting_process_exits_3(tmp_path, capsys, monkeypatch):
    def fail():
        raise RuntimeError("formatting failed")

    _fail_in_children(monkeypatch, fail)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    for argv in (("generate", "--n", "40000"), ("records", "--limit", "200000")):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.csv"))
        assert code == 3 and out == "", argv
        assert err.startswith("error: ") and "formatting" in err, err
        _assert_no_child_left()
        code, out, err = run(capsys, *argv)
        assert code == 3 and err.startswith("error: "), argv
        _assert_no_child_left()


def test_a_closed_stdout_kills_the_formatting_processes(tmp_path, monkeypatch):
    # The children sleep; only the kill on the error path ends them before
    # the writer reaps them.
    _fail_in_children(monkeypatch, lambda: time.sleep(60))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    calls = []

    def closed(data):
        calls.append(data)
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_write_stdout", closed)
    t0 = time.monotonic()
    with open(tmp_path / "stdout.txt", "w") as stdout, redirect_stdout(stdout):
        code = main(["generate", "--n", "40000"])
    assert code == 0 and len(calls) == 1
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()



@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors in /proc")
@pytest.mark.parametrize("target", ["text buffer", "file"])
def test_a_closed_stdout_leaves_no_descriptor_open(tmp_path, monkeypatch, target):
    # A stdout with no descriptor has none to point at devnull; a file's
    # descriptor is pointed at devnull, and devnull's own is closed again.
    def closed(data):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_write_stdout", closed)
    with (io.StringIO() if target == "text buffer" else open(tmp_path / "out", "w")) as stdout:
        before = len(os.listdir("/proc/self/fd"))
        with redirect_stdout(stdout):
            code = main(["generate", "--n", "5"])
        assert code == 0
        assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("a", [2**63 - 1, 2**63, 2**64 + 1])
def test_generate_seeds_past_64_bits(capsys, naive_prefix, a):
    f = naive_prefix(a, 6)
    rows = [(n, f[n], f[n + 1] - f[n]) for n in range(1, 6)]
    expected = {
        (): "n,f_n\n" + "".join(f"{n},{v}\n" for n, v, _ in rows),
        ("--format", "plain"): "".join(f"{n} {v}\n" for n, v, _ in rows),
        ("--with-derivative",): "n,f_n,g_n\n" + "".join(f"{n},{v},{g}\n" for n, v, g in rows),
    }
    for flags, text in expected.items():
        assert run(capsys, "generate", "--a", str(a), "--n", "5", *flags) == (0, text, ""), flags

def test_records_limit_obeys_the_term_cap(capsys, monkeypatch):
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "1000")
    code, out, err = run(capsys, "records", "--limit", "1000")
    assert code == 0 and err == "" and out.splitlines()[-1].split(",")[1] == "997"
    code, out, err = run(capsys, "records", "--limit", "1001")
    assert code == 2 and out == ""
    assert err == ("error: requested the records up to 1001; cap is 1000 "
                   "(set GCDPERM_MAX_TERMS to raise it)\n")


def test_export_figures_obeys_the_term_cap(tmp_path, capsys, monkeypatch):
    # fig3 reads the records up to 10 count + 100, bounded as records --limit is.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "1000")
    out_dir = tmp_path / "figs"
    code, _, err = run(capsys, "--quiet", "export-figures", "fig3", "--out-dir", str(out_dir),
                       "--limit", "90")
    assert code == 0 and err == "" and (out_dir / "fig3.csv").exists()
    out_dir = tmp_path / "over"
    code, out, err = run(capsys, "export-figures", "fig3", "--out-dir", str(out_dir),
                         "--limit", "91")
    assert code == 2 and out == ""
    assert err == ("error: requested the records up to 1010; cap is 1000 "
                   "(set GCDPERM_MAX_TERMS to raise it)\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("which,limit,message", [
    ("fig1", "1001", "requested the primes up to 1001; cap is 1000"),
    ("fig2", "1000", "requested 1001 terms of f_3; cap is 1000"),
    ("fig4", "91", "requested the records up to 1010; cap is 1000"),
    ("all", "91", "requested the records up to 1010; cap is 1000"),
])
def test_export_figures_checks_every_figure_before_writing(tmp_path, capsys, monkeypatch,
                                                          which, limit, message):
    # Under all, fig1 and fig2 fit at 91, fig3 does not: nothing is written.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "1000")
    code, out, err = run(capsys, "export-figures", which, "--out-dir", str(tmp_path / "figs"),
                         "--limit", limit)
    assert (code, out) == (2, "") and message in err
    assert not (tmp_path / "figs").exists()
