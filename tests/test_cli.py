import os
import subprocess
import sys
from pathlib import Path

import pytest

from gcdperm import generate_prefix, record_values
from gcdperm.cli import main
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


def test_verify_thm7_n8_stops_at_the_term_cap(capsys, monkeypatch):
    # The record half has no cap (44 is_record queries near 2e8); the
    # translation half asks for about 2.3e8 terms of f_3.
    monkeypatch.delenv("GCDPERM_MAX_TERMS", raising=False)
    code, out, err = run(capsys, "verify", "thm7", "--n", "8")
    assert code == 2 and out == ""
    assert "terms of f_3; cap is 5000000" in err


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


def _simulated_generate(n, fmt="csv", with_derivative=False):
    # Expected `generate --a 3` output, built from the simulation engine.
    terms = generate_prefix(3, n + 1).terms
    if with_derivative:
        rows = ["n,f_n,g_n"]
        rows += [f"{i},{terms[i]},{terms[i + 1] - terms[i]}" for i in range(1, n + 1)]
    elif fmt == "plain":
        rows = [f"{i} {terms[i]}" for i in range(1, n + 1)]
    else:
        rows = ["n,f_n"] + [f"{i},{terms[i]}" for i in range(1, n + 1)]
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


def test_verify_help_lists_each_suite_with_its_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for suite, flags in (("prop3", "--n 4 --kmax 8"), ("thm2", "--bound 999"),
                         ("cor2", "--limit 1000000"), ("thm8-recurrence", "--n 5")):
        i = next(i for i, line in enumerate(lines) if line.split()[:1] == [suite])
        assert lines[i + 1].strip() == flags


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
