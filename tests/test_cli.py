import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gpgraphs import (GPGraph, SizeBudgetExceeded, build_field, build_graph, cli, families, fields,
                      run_verification, spectra)
from gpgraphs.cli import build_report_rows, render_records, render_table
from gpgraphs.numbertheory import prime_power
from gpgraphs.spectra import Nature
from oracles import parse_records

GOLDEN = Path(__file__).parent / "golden"


def test_report_rows_are_sorted_by_k():
    rows = build_report_rows(49)
    assert [row.k for row in rows] == [1, 2, 3, 4, 6, 8, 12, 16, 24, 48]
    assert all(row.q == 49 and row.p == 7 and row.m == 2 for row in rows)


def test_report_rows_tiny_field():
    rows = build_report_rows(4)
    assert [(row.k, row.structure) for row in rows] == [(1, "K(4)"), (3, "2xK(2)")]


# sha256 of `report --q Q` stdout for every prime power 2 <= Q <= 343, ascending,
# as the spectrum and the traversal of every graph gave it
REPORT_DIGESTS = {
    "table": "64092a3aa14094b4ce039910bac828666bc4944e78bf748764424f0fee2dcdf7",
    "records": "f9a7aaf7518b4a7fe451f15452887f22f8e15ba8129c7a0d79da985ee9327c4a",
}


def test_report_of_every_field_up_to_343_is_pinned(capsys):
    digests = {fmt: hashlib.sha256() for fmt in REPORT_DIGESTS}
    for q in range(2, 344):
        if prime_power(q) is None:
            continue
        for fmt, digest in digests.items():
            assert cli.main(["report", "--q", str(q), "--format", fmt]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert {fmt: digest.hexdigest() for fmt, digest in digests.items()} == REPORT_DIGESTS


@pytest.mark.parametrize("q, digest", [
    (2401, "402a1017f315fcf366ed14f947af11c1d75693dce0862518ea2ed5edb4beaca9"),
    (2399, "ec218b59a92896289be288ace4f1b137eefc84216de2b2abf04139f26baf89c8"),
])
def test_report_builds_no_spectrum(monkeypatch, q, digest):
    def refuse(graph):
        raise AssertionError(f"report built the spectrum of GP({graph.k},{graph.field.q})")

    monkeypatch.setattr(spectra, "spectrum", refuse)
    monkeypatch.setattr(cli, "spectrum", refuse)
    assert hashlib.sha256(render_table(build_report_rows(q)).encode()).hexdigest() == digest


def test_records_round_trip():
    rows = build_report_rows(81)
    assert parse_records(render_records(rows)) == rows


def test_table_and_records_carry_identical_data():
    rows = build_report_rows(25)
    table = render_table(rows)
    records = [json.loads(line) for line in render_records(rows).splitlines()]
    assert len(records) == len(rows)
    lines = table.splitlines()
    assert lines[0].split() == list(cli.ROW_FIELDS)
    for line, record in zip(lines[1:], records):
        for name in ("q", "k", "n", "mu", "period"):
            assert str(record[name]) in line.split()
    # absent values are "-" in the table and null in the records
    k6 = next(r for r in records if r["k"] == 6)
    assert k6["g"] is None and k6["w"] is None and k6["srg"] is None


def test_cli_report_exit_codes(capsys):
    assert cli.main(["report", "--q", "25"]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--q", "24"]) == 2
    assert "not a prime power" in capsys.readouterr().err


def test_cli_report_records_format(capsys):
    assert cli.main(["report", "--q", "25", "--format", "records"]) == 0
    out = capsys.readouterr().out
    rows = parse_records(out)
    assert rows == build_report_rows(25)


def test_cli_verify_passes(capsys):
    assert cli.main(["verify", "--max-q", "16"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert len([line for line in out.splitlines() if " pass " in line]) == 8


def test_cli_verify_reports_corrupted_nature_rule(monkeypatch, capsys):
    # sabotage the arithmetic nature rule; the sweep must fail and name (k, q)
    monkeypatch.setattr(spectra, "nature_for", lambda p, m, k: Nature.INTEGRAL)
    assert cli.main(["verify", "--max-q", "49"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "first counterexample: q=3 k=2" in out


def test_cli_violated_law_exits_1_with_one_line(monkeypatch, capsys):
    # families checks each emitted graph's nature in-call; spectrum checks nothing
    monkeypatch.setattr(families, "nature_for", lambda p, m, k: Nature.COMPLEX)
    assert cli.main(["families", "--kind", "SubfieldDivisor", "--p", "7", "--k", "3",
                     "--max-q", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SubfieldDivisor: GP(3,343) must be integral\n"


def test_cli_spectrum(capsys):
    assert cli.main(["spectrum", "--q", "25", "--k", "8"]) == 0
    out = capsys.readouterr().out
    assert "nature=complex" in out and "mu=7" in out
    assert "x1" in out and "3.000000" in out


def test_cli_spectrum_exact_output(capsys):
    # row order: real part descending, then imaginary part, then coefficients
    assert cli.main(["spectrum", "--q", "25", "--k", "8"]) == 0
    assert capsys.readouterr().out == (
        "q=25 k=8 n=3 nature=complex mu=7 components=1\n"
        "3                                     3.000000  x1\n"
        "-z^2 - z^3                            1.618034  x6\n"
        "-2 - 2*z - z^2 - 2*z^3     -0.190983-1.314328i  x3\n"
        "2*z + z^3                  -0.190983+1.314328i  x3\n"
        "1 + z^2 + z^3                        -0.618034  x6\n"
        "-1 - z - z^2 + z^3         -1.309017-2.126627i  x3\n"
        "z + 2*z^2                  -1.309017+2.126627i  x3\n")
    assert cli.main(["spectrum", "--q", "7", "--k", "6"]) == 0
    assert capsys.readouterr().out == (
        "q=7 k=6 n=1 nature=complex mu=7 components=1\n"
        "1                                             1.000000  x1\n"
        "-1 - z - z^2 - z^3 - z^4 - z^5      0.623490-0.781831i  x1\n"
        "z                                   0.623490+0.781831i  x1\n"
        "z^5                                -0.222521-0.974928i  x1\n"
        "z^2                                -0.222521+0.974928i  x1\n"
        "z^4                                -0.900969-0.433884i  x1\n"
        "z^3                                -0.900969+0.433884i  x1\n")
    # at k = p - 1, zeta^46 = -1 - z - ... - z^45 is one 46-term line, and
    # every exact value is padded to its width
    assert cli.main(["spectrum", "--q", "47", "--k", "46"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "2225c8eea3db59a4c51191e43e087c2038b3dc8eda8949fba1a18b83d8981c08"
    header, *lines = out.splitlines()
    assert header == "q=47 k=46 n=1 nature=complex mu=47 components=1" and len(lines) == 47
    longest = next(line for line in lines if line.startswith("-1 - z - z^2"))
    assert longest.split("  ")[0].count(" - ") == 45
    assert {len(line) for line in lines} == {len(longest)}


def test_cli_waring_with_witness(capsys):
    assert cli.main(["waring", "--q", "25", "--k", "8", "--witness", "16"]) == 0
    out = capsys.readouterr().out
    assert "g=4 w=3" in out
    assert "g-witness" in out and "w-witness" in out
    # GP(8, 25) is directed, so its signed witness is shorter
    assert out.splitlines()[2] == "w-witness for 3a+1 (length 3): 3a+1 = (1)^8 - (3a+3)^8 - (3a+3)^8"
    # k = 28 reduces to gcd(28, 24) = 4, and GP(4, 25) is undirected, so its
    # signed witness is its unsigned one
    assert cli.main(["waring", "--q", "25", "--k", "28", "--witness", "16"]) == 0
    _, g_line, w_line = capsys.readouterr().out.splitlines()
    assert g_line == ("g-witness for 3a+1 (length 3): "
                      "3a+1 = (1)^4 + (a+2)^4 + (a+2)^4") and w_line == "w" + g_line[1:]
    assert cli.main(["waring", "--q", "25", "--k", "6"]) == 0
    assert "do not exist" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["spectrum", "--q", "25", "--k", "0"],
    ["spectrum", "--q", "25", "--k", "-3"],
    ["waring", "--q", "25", "--k", "8", "--witness", "999"],
    ["verify", "--max-q", "5", "--jobs", "0"],
    ["verify", "--max-q", "5", "--jobs", "-2"],
    ["verify", "--max-q", "1"],
    ["verify", "--max-q", "-5"],
    ["families", "--kind", "Tower", "--p", "2", "--k", "3", "--d", "2", "--max-q", "1"],
    ["families", "--kind", "Tower", "--p", "2", "--k", "3", "--d", "2", "--max-q", "-5"],
    ["report", "--q", "abc"],
    ["bogus"],
    ["report"],
    # p^133 has over 5000 digits, more than str() prints: the message names it as a power
    ["families", "--kind", "Tower", "--p", str(10 ** 39 + 3), "--k", "4", "--d", "133",
     "--max-q", str(10 ** 43)],
])
def test_cli_bad_values_exit_2_with_one_line(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _command_options() -> dict[str, list[argparse.Action]]:
    """Each command's own options, read from the parser that main uses."""
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in parser._actions if a.option_strings and a.dest != "help"]
            for name, parser in sub.choices.items()}


BUDGET = fields.DEFAULT_SIZE_BUDGET
LONG = st.integers(10 ** 39, 10 ** 80) | st.sampled_from([10 ** 39 + 3, 10 ** 60 + 7])  # two are prime
INTEGERS = (st.integers(-10 ** 6, -1) | st.sampled_from([0, 1])
            | st.sampled_from([q for q in range(2, 257) if prime_power(q)])
            | st.sampled_from([n for n in range(6, 257) if not prime_power(n)])
            | st.just(BUDGET + 1) | LONG).map(str) | st.just("9" * 5000)  # past int()'s digit limit
# verify at the budget would run for hours: --max-q is small or refused
MAX_Q = (st.integers(-3, 64) | st.just(BUDGET + 1) | LONG).map(str)


@st.composite
def argvs(draw):
    command, options = draw(st.sampled_from(sorted(_command_options().items())))
    argv = [command]
    for action in options:
        if action.required or draw(st.booleans()):
            values = (st.sampled_from(action.choices) if action.choices
                      else MAX_Q if action.dest == "max_q" else INTEGERS)
            argv += [action.option_strings[0], draw(values)]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argvs())
def test_every_generated_argv_exits_0_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        lines = err.getvalue().splitlines()
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), (argv, code, lines)


# a 61-digit semiprime with no factor below 10^6: factorize would refuse it, so the budget must come first
SEMIPRIME = 1000000000000000000000000000057 * 1000000000000000000000000000099


@pytest.mark.parametrize("argv, message", [
    (["report", "--q", str(SEMIPRIME)], f"error: q = {SEMIPRIME} exceeds the size budget 1048576"),
    (["spectrum", "--q", str(SEMIPRIME), "--k", "2"],
     f"error: q = {SEMIPRIME} exceeds the size budget 1048576"),
    (["waring", "--q", str(SEMIPRIME), "--k", "2"],
     f"error: q = {SEMIPRIME} exceeds the size budget 1048576"),
    (["verify", "--max-q", "5000000"], "error: max_q = 5000000 exceeds the size budget 1048576"),
], ids=["report", "spectrum", "waring", "verify"])
def test_over_budget_input_is_refused_before_any_work(package_env, argv, message):
    proc = subprocess.run([sys.executable, "-m", "gpgraphs", *argv], capture_output=True,
                          text=True, env=package_env, timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr == message + "\n"


def test_every_command_reads_the_budget_from_fields(monkeypatch, capsys):
    monkeypatch.setattr(fields, "DEFAULT_SIZE_BUDGET", 8)
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    for argv in (["report", "--q", "9"], ["spectrum", "--q", "9", "--k", "2"],
                 ["waring", "--q", "9", "--k", "2"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: q = 9 exceeds the size budget 8\n")
    built = []
    honest = fields.build_field
    monkeypatch.setattr(fields, "build_field", lambda p, m: built.append(p ** m) or honest(p, m))
    with pytest.raises(SizeBudgetExceeded, match="^max_q = 9 exceeds the size budget 8$"):
        run_verification(9)
    assert built == []  # refused before any field is built
    assert all(o.failed == 0 for o in run_verification(8)) and built == [2, 3, 4, 5, 7, 8]


def test_report_and_spectrum_list_no_connection_set(monkeypatch, capsys):
    read = []
    honest = GPGraph.connection.func
    monkeypatch.setattr(GPGraph, "connection",
                        property(lambda graph: read.append((graph.field.q, graph.k)) or honest(graph)))
    for q in (729, 2399, 2401):
        build_report_rows(q)
    assert cli.main(["spectrum", "--q", "2401", "--k", "1"]) == 0
    assert read == []
    build_graph(build_field(7, 4), 1).connection  # the count works: every read is counted
    assert read == [(2401, 1)]


def test_cli_families(capsys):
    assert cli.main(["families", "--kind", "CyclotomicValue", "--p", "3", "--d", "6",
                     "--max-q", "729"]) == 0
    assert capsys.readouterr().out == "k=7 q=729 integral=yes\n"
    assert cli.main(["families", "--kind", "Tower", "--p", "3", "--k", "2", "--d", "2",
                     "--max-q", "81", "--format", "records"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["k"], r["q"]) for r in records] == [(2, 9), (20, 81)]
    assert cli.main(["families", "--kind", "TotientPower", "--p", "7", "--k", "3"]) == 2
    assert "gcd" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    # 3^1000000 > 10^6: Phi_1000000(3) took 19 s to compute and was never used
    ["--kind", "CyclotomicValue", "--p", "3", "--d", "1000000"],
    # k divides every emitted q - 1, so q > k > max_q: factoring k took over 30 s and went unused
    ["--kind", "TotientPower", "--p", "5", "--k", "10000000000000431000000000002257"],
    # the first q is p^k: computing p^500000003 ran past 15 s
    ["--kind", "SubfieldDivisor", "--p", "1000000007", "--k", "500000003", "--max-q", "100"],
], ids=["CyclotomicValue", "TotientPower", "SubfieldDivisor"])
def test_family_beyond_max_q_prints_nothing_at_once(package_env, args):
    proc = subprocess.run([sys.executable, "-m", "gpgraphs", "families", *args],
                          capture_output=True, text=True, env=package_env, timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


@pytest.mark.parametrize("k, d, code, err", [
    # 3^100000000 > 10^6: building it took over 20 s, and nothing was emitted
    ("1", "100000000", 0, ""),
    # the hypotheses are still checked, in arithmetic mod k
    ("7", "100000001", 2, "error: base k = 7 does not divide q - 1 = 3^100000001 - 1\n"),
    ("2", "100000001", 2, "error: tower base GP(2,3^100000001) is not integral\n"),
])
def test_tower_family_with_d_beyond_max_q_returns_at_once(package_env, k, d, code, err):
    proc = subprocess.run([sys.executable, "-m", "gpgraphs", "families", "--kind", "Tower",
                           "--p", "3", "--k", k, "--d", d], capture_output=True, text=True,
                          env=package_env, timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


def test_one_parser_serves_every_call(monkeypatch, capsys):
    built = []
    parser_class = cli._Parser  # the subcommand parsers are built as type(parser), uncounted
    counting = lambda *args, **kwargs: built.append(1) or parser_class(*args, **kwargs)
    monkeypatch.setattr(cli, "_Parser", counting)
    cli._parser.cache_clear()
    assert built == []  # nothing is built before the first call
    for argv in (["spectrum", "--q", "25", "--k", "8"], ["waring", "--q", "25", "--k", "8"],
                 ["families", "--kind", "Tower", "--p", "3", "--k", "2", "--d", "2", "--max-q", "81"]):
        assert cli.main(argv) == 0
    assert len(built) == 1


def test_no_argument_carries_over_between_calls(capsys):
    assert cli.main(["report", "--q", "25", "--format", "records"]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--q", "25"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "report_q25.txt").read_text()
    assert cli.main(["spectrum", "--q", "25"]) == 2  # missing --k
    capsys.readouterr()
    assert cli.main(["spectrum", "--q", "25", "--k", "8"]) == 0
    assert capsys.readouterr().out.startswith("q=25 k=8 n=3 nature=complex mu=7 components=1\n")


def test_cli_usage_error_exit_code(capsys):
    # a parse error prints one line and no usage line
    assert cli.main(["report"]) == 2
    assert capsys.readouterr() == ("", "error: the following arguments are required: --q\n")


def test_console_script_installed(package_env):
    proc = subprocess.run([sys.executable, "-m", "gpgraphs.cli", "report", "--q", "9"],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("q")


def test_python_m_gpgraphs(package_env):
    proc = subprocess.run([sys.executable, "-m", "gpgraphs", "verify", "--max-q", "9"],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("OK: 8 check categories")


def test_spectrum_output_does_not_depend_on_the_blas_thread_count(package_env):
    # the float images of GP(10006, 10007) differ in their last bits between one
    # and two BLAS threads; the printed values, rounded to six places, must not
    def digest(threads):
        env = dict(package_env, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        argv = [sys.executable, "-m", "gpgraphs", "spectrum", "--q", "10007", "--k", "10006"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env) as proc:
            sha = hashlib.sha256()
            for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):  # about 890 MB of padded lines
                sha.update(chunk)
        assert proc.returncode == 0
        return sha.hexdigest()

    assert digest(1) == digest(2)
