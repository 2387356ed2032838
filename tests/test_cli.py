import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gcdperm import generate_prefix, record_values
from gcdperm.cli import WRITE_CHUNK_LINES, main
from gcdperm.primes import is_prime


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


def test_records_csv_matches_a_row_by_row_oracle(tmp_path, capsys):
    # The writer formats whole chunks of rows at once; the limits put the
    # last row at, and one past, the end of a chunk, and on both sides of
    # the record 30031 = 30030 + 1.
    one_chunk = record_values(10**6)[WRITE_CHUNK_LINES - 1]
    four_chunks = record_values(10**6)[4 * WRITE_CHUNK_LINES - 1]
    target = tmp_path / "records.csv"
    for limit in (5, 6, 7, 30_030, 30_031, one_chunk, one_chunk + 1,
                  four_chunks, four_chunks + 1):
        want = _records_csv_by_rows(limit)
        code, out, _ = run(capsys, "records", "--limit", str(limit))
        assert code == 0 and _first_difference(out, want) is None, limit
        code, out, _ = run(capsys, "records", "--limit", str(limit), "--out", str(target))
        assert code == 0 and out == ""
        assert _first_difference(target.read_bytes().decode("ascii"), want) is None, limit
    assert want.count("\n") == 4 * WRITE_CHUNK_LINES + 1


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


@pytest.mark.parametrize("suite", ["thm6", "thm7"])
def test_verify_translation_n8_runs_under_the_default_term_cap(capsys, monkeypatch, suite):
    # A simulated prefix would need about 2.3e8 terms of f_3; the record
    # walks simulate none.
    monkeypatch.delenv("GCDPERM_MAX_TERMS", raising=False)
    code, out, _ = run(capsys, "verify", suite, "--n", "8")
    assert code == 0 and "FAIL" not in out
    assert "maximal" in out and "21, 213393181" in out


@pytest.mark.parametrize("argv", [["thm5", "--n", "19"], ["thm6", "--n", "18"],
                                  ["thm7", "--n", "18"]])
def test_verify_past_the_primality_bound_is_usage_error(capsys, argv):
    # Each reaches values past 3.3e24 (P_18 is about 1.2e23), where is_prime is unproven.
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "proven exact only below 3,317,044,064,679,887,385,961,981" in err


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
