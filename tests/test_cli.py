import json

import pytest

from gpgraphs import cli, spectra
from gpgraphs.cli import build_report_rows, parse_records, render_records, render_table
from gpgraphs.spectra import Nature


def test_report_rows_are_sorted_by_k():
    rows = build_report_rows(49)
    assert [row.k for row in rows] == [1, 2, 3, 4, 6, 8, 12, 16, 24, 48]
    assert all(row.q == 49 and row.p == 7 and row.m == 2 for row in rows)


def test_report_rows_tiny_field():
    rows = build_report_rows(4)
    assert [(row.k, row.structure) for row in rows] == [(1, "K(4)"), (3, "2xK(2)")]


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
    monkeypatch.setattr(spectra, "nature_arithmetic", lambda graph: Nature.INTEGRAL)
    assert cli.main(["verify", "--max-q", "49"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "first counterexample: q=3 k=2" in out


def test_cli_violated_law_exits_1_with_one_line(monkeypatch, capsys):
    monkeypatch.setattr(spectra, "nature_arithmetic", lambda graph: Nature.INTEGRAL)
    assert cli.main(["spectrum", "--q", "25", "--k", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: GP(8,25): eigenvalue nature complex must match the arithmetic rule\n"


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


def test_cli_waring_with_witness(capsys):
    assert cli.main(["waring", "--q", "25", "--k", "8", "--witness", "16"]) == 0
    out = capsys.readouterr().out
    assert "g=4 w=3" in out
    assert "g-witness" in out and "w-witness" in out
    assert cli.main(["waring", "--q", "25", "--k", "6"]) == 0
    assert "do not exist" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["spectrum", "--q", "25", "--k", "0"],
    ["spectrum", "--q", "25", "--k", "-3"],
    ["waring", "--q", "25", "--k", "8", "--witness", "999"],
    ["verify", "--max-q", "5", "--jobs", "0"],
    ["verify", "--max-q", "5", "--jobs", "-2"],
])
def test_cli_bad_values_exit_2_with_one_line(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["report"])  # missing --q
    assert exc.value.code == 2


def test_console_script_installed(package_env):
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "gpgraphs.cli", "report", "--q", "9"],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("q")
