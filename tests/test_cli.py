import errno
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ramlab import cli
from ramlab.cli import run
from ramlab.ring import SystemConfig, parse


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_k0(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "k0", "--m", "1", "--prec", "10")
    assert code == 0
    assert json.loads(out)["payload"]["ord"] == 2


def test_ord_theta(capsys):
    code, out, _ = invoke(
        capsys,
        "--format",
        "json",
        "ord",
        "--poly",
        "z*(E4^3-E6^2)",
        "--m",
        "1",
        "--prec",
        "10",
    )
    assert code == 0
    assert json.loads(out)["payload"]["ord"] == "2"


def test_stable_e4_false(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json", "stable", "--poly", "E4", "--m", "1"
    )
    assert code == 0
    assert json.loads(out)["payload"]["stable"] is False


def test_stable_delta_cofactor(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json", "stable", "--poly", "E4^3-E6^2", "--m", "1"
    )
    payload = json.loads(out)["payload"]
    assert payload["stable"] is True
    assert payload["cofactor"] == "E2"


def test_verify_system_exit_code(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json", "verify-system", "--m", "3", "--prec", "30"
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["ok"] is True
    literal = [e for e in payload["errata"] if not e["ok"]]
    assert literal and literal[0]["first_mismatch"] == 1


def test_series_dump(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json", "series", "--which", "E4", "--prec", "3"
    )
    assert code == 0
    assert json.loads(out)["payload"]["coefficients"] == ["1", "240", "2160", "6720"]


def test_series_g_and_theta(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json", "series", "--which", "g[0,1]", "--prec", "2"
    )
    assert json.loads(out)["payload"]["coefficients"] == ["0", "1", "3/2"]
    code, out, _ = invoke(
        capsys, "--format", "json", "series", "--which", "Theta", "--prec", "3"
    )
    assert json.loads(out)["payload"]["coefficients"] == ["0", "0", "1728", "-41472"]


def test_ak(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "ak", "--k", "6", "--prec", "20")
    assert code == 0
    monomials = json.loads(out)["payload"]["monomials"]
    assert {"e4_exp": 0, "e6_exp": 2, "coefficient": "250/691"} in monomials
    assert {"e4_exp": 3, "e6_exp": 0, "coefficient": "441/691"} in monomials


def test_deriv(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json", "deriv", "--poly", "E4^3-E6^2", "--m", "1"
    )
    assert json.loads(out)["payload"]["derivative"] == "E2*E4^3 - E2*E6^2"


def test_coefficients_past_the_digit_limit(capsys):
    # 5,000 digits, past the 4,300 that Python converts between int and str
    # by default; the command lifts the limit only while it runs
    digits = "1" + "0" * 4998 + "7"
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = invoke(
        capsys, "--format", "json", "deriv", "--poly", f"{digits}*E4", "--m", "1"
    )
    assert code == 0
    # D(E4) = (E2*E4 - E6)/3, and 3 does not divide the coefficient
    assert json.loads(out)["payload"]["derivative"] == f"{digits}/3*E2*E4 - {digits}/3*E6"
    code, out, _ = invoke(capsys, "deriv", "--poly", f"{digits}*E4", "--m", "1")
    assert code == 0 and f'"derivative": "{digits}/3*E2*E4' in out
    for fmt in ("json", "text"):
        code, out, _ = invoke(
            capsys, "--format", fmt, "stable", "--poly", f"{digits}*(E4^3 - E6^2)", "--m", "1"
        )
        assert code == 0 and '"cofactor": "E2"' in out
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_auxsearch_json_witness_round_trip(capsys):
    code, out, _ = invoke(
        capsys,
        "--format",
        "json",
        "auxsearch",
        "--m",
        "1",
        "--d0",
        "1",
        "--d",
        "1",
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    row = payload["rows"][0]
    witness = parse(row["witness"], SystemConfig(1))
    assert not witness.is_zero()
    assert payload["exponent_operational"] == 4
    assert payload["exponent_paper"] == 3


def test_auxsearch_csv(capsys):
    code, out, _ = invoke(
        capsys, "--format", "csv", "auxsearch", "--m", "1", "--grid", "1:0"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,d0,d,T,n_star,ord,ratio_num,ratio_den,flag"
    assert lines[1] == "1,0,0,1,0,0,0,1,0"
    assert lines[2] == "1,1,0,2,1,1,1,2,0"


@pytest.mark.parametrize(
    "argv, flagged",
    [
        (("--grid", "1:2"), []),
        (("--grid", "1:2", "--prec", "12"), [{"d0": 0, "d": 2}, {"d0": 1, "d": 2}]),
        (("--d0", "1", "--d", "2", "--prec", "12"), [{"d0": 1, "d": 2}]),
    ],
    ids=["grid-1:2", "grid-1:2-prec-12", "limited-cell"],
)
def test_auxsearch_summary_is_recomputed_from_its_rows(capsys, argv, flagged):
    from fractions import Fraction

    from ramlab.arith import fraction_str

    code, out, _ = invoke(capsys, "--format", "json", "auxsearch", "--m", "1", *argv)
    assert code == 0
    payload = json.loads(out)["payload"]
    rows = payload["rows"]
    for key in ("ratio", "ratio_paper"):
        assert payload[f"max_{key}"] == fraction_str(max(Fraction(r[key]) for r in rows))
    assert payload["flagged"] == [{"d0": r["d0"], "d": r["d"]} for r in rows if r["precision_limited"]]
    assert payload["flagged"] == flagged
    # and --strict reads the same flagged cells
    code, _, _ = invoke(capsys, "--strict", "auxsearch", "--m", "1", *argv)
    assert code == (1 if flagged else 0)


# the CSV of the benchmark's two `search` grids
SEARCH_GRID_CSV = {
    ("1", "1:2"): (
        "m,d0,d,T,n_star,ord,ratio_num,ratio_den,flag\n"
        "1,0,0,1,0,0,0,1,0\n"
        "1,0,1,5,4,4,1,4,0\n"
        "1,0,2,15,14,14,14,81,0\n"
        "1,1,0,2,1,1,1,2,0\n"
        "1,1,1,10,9,9,9,32,0\n"
        "1,1,2,30,29,29,29,162,0\n"
    ),
    ("3", "1:1"): (
        "m,d0,d,T,n_star,ord,ratio_num,ratio_den,flag\n"
        "3,0,0,1,0,0,0,1,0\n"
        "3,0,1,8,7,7,7,128,0\n"
        "3,1,0,2,1,1,1,2,0\n"
        "3,1,1,16,15,15,15,256,0\n"
    ),
}


@pytest.mark.parametrize("m, grid", sorted(SEARCH_GRID_CSV))
def test_auxsearch_builds_csv_only_for_csv_output(capsys, monkeypatch, m, grid):
    from ramlab import multlab

    rendered = []
    real = multlab._rows_to_csv

    def recording(rows):
        rendered.append(rows)
        return real(rows)

    monkeypatch.setattr(multlab, "_rows_to_csv", recording)
    for fmt in ("text", "json"):
        code, out, _ = invoke(capsys, "--format", fmt, "auxsearch", "--m", m, "--grid", grid)
        assert code == 0 and out
    assert rendered == []
    code, out, _ = invoke(capsys, "--format", "csv", "auxsearch", "--m", m, "--grid", grid)
    assert code == 0 and len(rendered) == 1
    assert out == SEARCH_GRID_CSV[m, grid]


def test_csv_only_for_auxsearch(capsys):
    code, _, err = invoke(capsys, "--format", "csv", "k0", "--m", "1", "--prec", "10")
    assert code == 2
    assert "csv" in err


def test_determinism(capsys):
    args = ("--format", "json", "auxsearch", "--m", "1", "--d0", "0", "--d", "1")
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2


def test_parse_error_exit_2(capsys):
    code, _, err = invoke(capsys, "ord", "--poly", "E7", "--m", "1", "--prec", "5")
    assert code == 2
    assert "unknown variable" in err


@pytest.mark.parametrize(
    "text, col", [("E2^\u00b2", 4), ("3\u00b2", 2), ("g[\u00b2,3]", 3)]
)
def test_non_decimal_digit_is_a_syntax_error(capsys, text, col):
    code, out, err = invoke(capsys, "deriv", "--poly", text, "--m", "3")
    assert code == 2 and out == ""
    assert err == (
        "error: polynomial syntax error: unexpected character '\u00b2' "
        f"(line 1, column {col})\n"
    )


def test_oversized_power_is_refused_before_it_runs(capsys):
    code, out, err = invoke(capsys, "deriv", "--poly", "(z+E2+E4+E6)^200", "--m", "1")
    assert code == 2 and out == ""
    assert "polynomial syntax error: power may have 1373701 terms" in err


def test_deep_parentheses_exit_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "deriv", "--poly", "(" * 300 + "E2" + ")" * 300, "--m", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: polynomial syntax error: parentheses nest 101 deep, over the limit 100 "
        "(line 1, column 101)\n"
    )


# each subcommand's --help and the params lines of its text record, as
# printed when the options were listed twice, in the parser and the record
GLOBAL_OPTIONS = """\
options:
  -h, --help            show this help message and exit
  --format {json,csv,text}
  --out FILE
  --strict              exit 1 on a precision-limited auxsearch cell, or when
                        ord's order is not resolved at --prec
"""
HELP_AND_PARAMS = {
    "series": (
        ["--which", "E4", "--prec", "3"],
        """\
usage: ramlab series [-h] [--format {json,csv,text}] [--out FILE] [--strict]
                     --which WHICH --prec PREC

""" + GLOBAL_OPTIONS + """\
  --which WHICH         E2k, g[u,v], Delta or Theta
  --prec PREC
""",
        ["which: E4", "prec: 3"],
    ),
    "verify-system": (
        ["--m", "1", "--prec", "3"],
        """\
usage: ramlab verify-system [-h] [--format {json,csv,text}] [--out FILE]
                            [--strict] --m M --prec PREC

""" + GLOBAL_OPTIONS + """\
  --m M
  --prec PREC
""",
        ["m: 1", "prec: 3"],
    ),
    "ak": (
        ["--k", "2"],
        """\
usage: ramlab ak [-h] [--format {json,csv,text}] [--out FILE] [--strict] --k K
                 [--prec PREC]

""" + GLOBAL_OPTIONS + """\
  --k K
  --prec PREC
""",
        ["k: 2", "prec: 60"],
    ),
    "ord": (
        ["--poly", "E2 - 1", "--m", "1", "--prec", "3"],
        """\
usage: ramlab ord [-h] [--format {json,csv,text}] [--out FILE] [--strict]
                  --poly POLY --m M --prec PREC

""" + GLOBAL_OPTIONS + """\
  --poly POLY
  --m M
  --prec PREC
""",
        ["poly: E2 - 1", "m: 1", "prec: 3"],
    ),
    "deriv": (
        ["--poly", "E2", "--m", "1"],
        """\
usage: ramlab deriv [-h] [--format {json,csv,text}] [--out FILE] [--strict]
                    --poly POLY --m M

""" + GLOBAL_OPTIONS + """\
  --poly POLY
  --m M
""",
        ["poly: E2", "m: 1"],
    ),
    "stable": (
        ["--poly", "E4", "--m", "1"],
        """\
usage: ramlab stable [-h] [--format {json,csv,text}] [--out FILE] [--strict]
                     --poly POLY --m M

""" + GLOBAL_OPTIONS + """\
  --poly POLY
  --m M
""",
        ["poly: E4", "m: 1"],
    ),
    "k0": (
        ["--m", "1", "--prec", "10"],
        """\
usage: ramlab k0 [-h] [--format {json,csv,text}] [--out FILE] [--strict] --m M
                 --prec PREC

""" + GLOBAL_OPTIONS + """\
  --m M
  --prec PREC
""",
        ["m: 1", "prec: 10"],
    ),
    "auxsearch": (
        ["--m", "1", "--grid", "0:1"],
        """\
usage: ramlab auxsearch [-h] [--format {json,csv,text}] [--out FILE]
                        [--strict] --m M [--d0 D0] [--d D] [--prec PREC]
                        [--grid GRID]

""" + GLOBAL_OPTIONS + """\
  --m M
  --d0 D0
  --d D
  --prec PREC           default: adaptive
  --grid GRID           D0MAX:DMAX grid of budgets
""",
        ["m: 1", "budgets: [{'d0': 0, 'd': 0}, {'d0': 0, 'd': 1}]", "prec: None"],
    ),
}



@pytest.mark.parametrize("name", list(HELP_AND_PARAMS))
def test_help_and_params_lines_are_pinned(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    argv, help_text, params = HELP_AND_PARAMS[name]
    assert invoke(capsys, name, "--help") == (0, help_text, "")
    code, out, _ = invoke(capsys, name, *argv)
    lines = out.splitlines()
    assert code == 0 and lines[0] == f"subcommand: {name}"
    assert lines[1:lines.index("{")] == [f"  {line}" for line in params]


def test_top_level_help_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usage = """\
usage: ramlab [-h] [--format {json,csv,text}] [--out FILE] [--strict]
              {series,verify-system,ak,ord,deriv,stable,k0,auxsearch} ...

Exact computations around the extended Ramanujan system.

positional arguments:
  {series,verify-system,ak,ord,deriv,stable,k0,auxsearch}
    series              dump a series' exact coefficients
    verify-system       check the differential system
    ak                  reduction polynomial for E_{2k}
    ord                 order of vanishing of an evaluated polynomial
    deriv               apply the derivation D
    stable              principal D-stability check
    k0                  order of vanishing of the Theta evaluation
    auxsearch           auxiliary polynomial vanishing search

"""
    assert invoke(capsys, "--help") == (0, usage + GLOBAL_OPTIONS, "")


def test_usage_error_exit_2(capsys):
    assert run(["no-such-subcommand"]) == 2
    capsys.readouterr()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "dump.json"
    code = run(
        [
            "--format",
            "json",
            "--out",
            str(target),
            "series",
            "--which",
            "Delta",
            "--prec",
            "2",
        ]
    )
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["payload"]["coefficients"] == ["0", "1728", "-41472"]


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_out_to_an_unwritable_path_exits_2(tmp_path, capsys, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "dump.json"
    code, out, err = invoke(capsys, "--out", str(target), "series", "--which", "E4", "--prec", "3")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "target, reason",
    [
        (".", errno.EISDIR),
        ("missing/dump.json", errno.ENOENT),
        ("missing/", errno.EISDIR),
        ("a-file/dump.json", errno.ENOTDIR),
        ("a-file/", errno.EISDIR),
    ],
    ids=["directory", "missing-parent", "missing-directory", "file-parent", "file-as-directory"],
)
def test_unwritable_out_is_refused_before_the_command_runs(
    tmp_path, capsys, monkeypatch, target, reason
):
    # the reason is the one open(target, "w") gives, and nothing is created
    monkeypatch.setattr(cli, "_dispatch", lambda args: pytest.fail("the command ran"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-file").write_text("kept")
    code, out, err = invoke(capsys, "--out", target, "verify-system", "--m", "7", "--prec", "3000")
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: {os.strerror(reason)}\n"
    with pytest.raises(OSError) as exc:
        open(target, "w")
    assert exc.value.errno == reason
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file"]
    assert (tmp_path / "a-file").read_text() == "kept"


def test_empty_out_is_refused_not_read_as_standard_output(tmp_path, capsys, monkeypatch):
    # open("", "w") fails with ENOENT, so "" names no file, not stdout
    monkeypatch.setattr(cli, "_dispatch", lambda args: pytest.fail("the command ran"))
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, "--out", "", "k0", "--m", "1", "--prec", "5")
    assert (code, out) == (2, "")
    assert err == "error: cannot write : No such file or directory\n"
    with pytest.raises(OSError) as exc:
        open("", "w")
    assert exc.value.errno == errno.ENOENT
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("budget", [("--d0", "1", "--d", "1"), ("--d0", "1"), ("--d", "1")])
def test_auxsearch_refuses_a_grid_with_a_single_budget(capsys, monkeypatch, budget):
    from ramlab import multlab

    monkeypatch.setattr(multlab, "experiment_grid", lambda *a: pytest.fail("the search ran"))
    code, out, err = invoke(capsys, "auxsearch", "--m", "1", *budget, "--grid", "1:1")
    assert (code, out) == (2, "")
    assert err == "error: auxsearch takes either --d0 and --d, or --grid, not both\n"


def test_strict_flag_on_unresolved_ord(capsys):
    # a polynomial vanishing past --prec leaves its order unresolved; the zero
    # polynomial is refused (test_ord_refuses_the_zero_polynomial)
    code, out, _ = invoke(
        capsys,
        "--format",
        "json",
        "--strict",
        "ord",
        "--poly",
        "z^5",
        "--m",
        "1",
        "--prec",
        "3",
    )
    assert code == 1
    assert json.loads(out)["payload"]["ord"] == ">=4"


def test_ord_of_a_huge_power_of_z_builds_only_the_precision(capsys):
    # z^(10^9) is a shift past the precision, not 10^9 stored zeros
    start = time.monotonic()
    code, out, _ = invoke(capsys, "--format", "json", "ord", "--poly", "z^1000000000*E4", "--m", "1", "--prec", "5")
    assert time.monotonic() - start < 1
    assert code == 0
    assert json.loads(out)["payload"] == {"ord": ">=6", "finite": False}


def test_verify_system_prec_0_is_rejected(capsys):
    # --prec 0 compares no coefficient, and --prec 1 only z^0, which always matches
    code, out, err = invoke(capsys, "verify-system", "--m", "1", "--prec", "0")
    assert code == 2
    assert out == ""
    assert "--prec: must be at least 2, got 0" in err


def test_series_refuses_g_outside_its_index_range(capsys):
    code, out, err = invoke(capsys, "series", "--which", "g[3,3]", "--prec", "3")
    assert (code, out, err) == (2, "", "error: u must satisfy 0 <= u < v\n")


def test_series_negative_prec_is_rejected(capsys):
    code, out, err = invoke(capsys, "series", "--which", "E4", "--prec", "-3")
    assert code == 2
    assert out == ""
    assert "--prec: must be at least 0, got -3" in err


def test_auxsearch_negative_prec_is_rejected(capsys):
    code, out, err = invoke(
        capsys, "auxsearch", "--m", "1", "--d0", "0", "--d", "1", "--prec", "-1"
    )
    assert code == 2
    assert out == ""
    assert "--prec: must be at least 0, got -1" in err
    assert "constant term" not in err


@pytest.mark.parametrize("m, grid", sorted(SEARCH_GRID_CSV))
def test_csv_auxsearch_builds_no_json_or_text_payload(capsys, monkeypatch, m, grid):
    from ramlab import multlab, ring

    def refuse(*args):
        raise AssertionError("CSV output built the JSON/text payload")

    monkeypatch.setattr(multlab, "_experiment_rows", refuse)
    monkeypatch.setattr(ring, "format_polynomial", refuse)
    code, out, _ = invoke(capsys, "--format", "csv", "auxsearch", "--m", m, "--grid", grid)
    assert code == 0
    assert out == SEARCH_GRID_CSV[m, grid]


@pytest.mark.parametrize("m, grid", sorted(SEARCH_GRID_CSV))
def test_every_grid_cell_reports_what_it_reports_searched_alone(capsys, m, grid):
    # a grid's cells share one function tuple; each cell's record, its
    # precision included, is still the one it has as a grid of its own
    def cells(fmt, *argv):
        code, out, _ = invoke(capsys, "--format", fmt, "auxsearch", "--m", m, *argv)
        assert code == 0
        return json.loads(out)["payload"]["rows"] if fmt == "json" else out.splitlines()[1:]

    d0max, dmax = map(int, grid.split(":"))
    for fmt in ("json", "csv"):
        alone = [cells(fmt, "--d0", str(d0), "--d", str(d))
                 for d0 in range(d0max + 1) for d in range(dmax + 1)]
        assert cells(fmt, "--grid", grid) == [row for rows in alone for row in rows]


@pytest.mark.parametrize(
    "argv",
    [
        ("k0", "--m", "1", "--prec", "0"),  # would fail with exit 1 inside k0
        ("k0", "--m", "2", "--prec", "10"),  # would fail with exit 2 inside k0
        ("verify-system", "--m", "3", "--prec", "30"),
        ("deriv", "--poly", "E2", "--m", "1"),
    ],
)
def test_csv_is_refused_before_the_command_runs(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "_dispatch", lambda args: pytest.fail("the command ran"))
    code, out, err = invoke(capsys, "--format", "csv", *argv)
    assert (code, out) == (2, "")
    assert err == "error: csv output is only available for auxsearch\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("deriv", "--poly", "3^10000000*E2", "--m", "1"),
         "coefficient power may have 20000000 bits, over the limit 200000"),
        (("deriv", "--poly", "(z+E2+E4+E6)^80", "--m", "1"),
         "power may make 90224497 term products, over the limit 2500000"),
        (("stable", "--poly", "(z+1)^99999", "--m", "1"),
         "power may make 3746805621 term products, over the limit 2500000"),
        (("auxsearch", "--m", "7", "--d0", "1", "--d", "3"),
         "the cell m=7, d0=1, d=3 has T=3080 basis monomials, over the limit 240"),
        (("auxsearch", "--m", "7", "--grid", "1:3"),
         "the cell m=7, d0=0, d=3 has T=1540 basis monomials, over the limit 240"),
        (("deriv", "--poly", "(3^99999*E2+1)^8", "--m", "1"),
         "power's coefficients may have 5705901 bits, over the limit 2000000"),
        (("deriv", "--poly", "(z+1)^2577", "--m", "1"),
         "power's coefficients may have 6646084 bits, over the limit 2000000"),
        (("deriv", "--poly", "(3^35000*E2+1)^8", "--m", "1"),
         "power's largest coefficient may have 443792 bits, over the limit 200000"),
        (("deriv", "--poly", "E2", "--m", "401"), "m=401 is over the limit 199"),
    ],
)
def test_oversized_requests_exit_2_at_once_stating_the_bound(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "argv, bound",
    [
        (("series", "--which", "E200000", "--prec", "50"), "the weight 200000"),
        (("series", "--which", "E8002", "--prec", "0"), "the weight 8002"),
        (("ak", "--k", "341"), "k=341"),
        (("ak", "--k", "100000", "--prec", "0"), "k=100000"),
    ],
)
def test_an_eisenstein_index_over_its_bound_exits_2_before_any_work(capsys, monkeypatch, argv, bound):
    # the Bernoulli numbers, the divisor sums and the Weierstrass recurrence
    # are replaced, so a broken bound fails here and never starts them
    from ramlab import _checks, forms

    def refuse(*args):
        raise AssertionError("the unbounded work started")

    for module, name in [(forms, "bernoulli"), (forms, "divisor_power_sums"),
                         (_checks, "bernoulli"), (_checks, "eisenstein_polynomial")]:
        monkeypatch.setattr(module, name, refuse)
    limit = forms.MAX_EISENSTEIN_WEIGHT if argv[0] == "series" else _checks.MAX_AK_INDEX
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {bound} is over the limit {limit}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        # the budget is checked before m: a valid and an invalid m give the same refusal
        (("--m", "1", "--d0", "-1", "--d", "1"), "degree budgets must be nonnegative"),
        (("--m", "2", "--d0", "-1", "--d", "1"), "degree budgets must be nonnegative"),
        (("--m", "201", "--grid", "0:0"), "m=201 is over the limit 199"),
    ],
)
def test_auxsearch_refusals_exit_2_with_their_message(capsys, argv, message):
    code, out, err = invoke(capsys, "auxsearch", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_an_oversized_grid_is_refused_before_the_rest_of_it_is_built(capsys, monkeypatch):
    # 1,002,001 cells; the grid is read in order and stops at its first cell
    # over the limit, d0=0 d=7, so only the eight cells up to it are built
    from ramlab.multlab import Cell

    built = []
    check = Cell.__post_init__

    def counting(self):
        built.append((self.d0, self.d))
        if len(built) > 100:
            raise RuntimeError("the grid was built past its first oversized cell")
        check(self)

    monkeypatch.setattr(Cell, "__post_init__", counting)
    code, out, err = invoke(capsys, "auxsearch", "--m", "1", "--grid", "1000:1000")
    assert (code, out) == (2, "")
    assert err == "error: the cell m=1, d0=0, d=7 has T=330 basis monomials, over the limit 240\n"
    assert built == [(0, d) for d in range(8)]


@pytest.mark.parametrize(
    "argv",
    [
        ("deriv", "--poly", "E2"),
        ("stable", "--poly", "z"),
        ("ord", "--poly", "z", "--prec", "3"),
        ("verify-system", "--prec", "2"),
        ("k0", "--prec", "3"),
        ("auxsearch", "--d0", "0", "--d", "0"),
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_refuses_the_same_m_before_building_its_variables(capsys, monkeypatch, argv):
    from ramlab import _checks, _parse, _system, forms, multlab, ring
    from ramlab.arith import MAX_M

    def refuse(*args):
        raise AssertionError("a variable, velocity, series or tuple was built")

    # every per-name builder, under each name a module imports it by
    for module, name in [(forms, "function_tuple"), (multlab, "function_tuple"), (forms, "_generator_side"),
                         (ring, "_unit"), (_parse, "_unit"),
                         (_system, "velocity"), (_checks, "velocity")]:
        monkeypatch.setattr(module, name, refuse)
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv, "--m", str(MAX_M + 2))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: m={MAX_M + 2} is over the limit {MAX_M}\n")


# a child that runs the CLI under an address-space limit
BOUNDED_CHILD = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
    "from ramlab.cli import run; sys.exit(run(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("deriv", "--poly", "E2", "--m", "199"),
         'subcommand: deriv\n  poly: E2\n  m: 199\n{\n  "derivative": "1/12*E2^2 - 1/12*E4"\n}\n'),
        (("stable", "--poly", "E4^3-E6^2", "--m", "199"),
         'subcommand: stable\n  poly: E4^3-E6^2\n  m: 199\n{\n  "stable": true,\n  "cofactor": "E2"\n}\n'),
        (("ord", "--poly", "E2", "--m", "199", "--prec", "300"),
         'subcommand: ord\n  poly: E2\n  m: 199\n  prec: 300\n{\n  "ord": "0",\n  "finite": true\n}\n'),
    ],
    ids=["deriv", "stable", "ord"],
)
def test_a_command_at_the_largest_m_builds_only_what_it_reads(argv, expected):
    # 10,004 variables: a table over all of them, of units, velocities or
    # series, takes 1.7-1.9 GiB; the variables these commands read, 18 MiB
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", BOUNDED_CHILD.format(limit=512 << 20), *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")


@pytest.mark.parametrize("m", [63, 199])
def test_auxsearch_runs_past_the_recursion_limit_in_variables(capsys, m):
    # over 1,000 variables: the basis is enumerated without a frame per variable
    code, out, err = invoke(
        capsys, "--format", "json", "auxsearch", "--m", str(m), "--d0", "0", "--d", "0"
    )
    assert (code, err) == (0, "")
    row = json.loads(out)["payload"]["rows"][0]
    assert (row["T"], row["n_star"], row["witness"]) == (1, 0, "1")


def _readme_cli_lines() -> list[str]:
    """The `ramlab ...` lines of the README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("ramlab ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_lines_run_and_print_what_they_state(capsys, line):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:]
    code, _, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    code, out, _ = invoke(capsys, "--format", "json", *argv)
    payload = json.loads(out)["payload"]
    comment = comment.strip()
    if argv[0] == "deriv":
        assert comment == f"-> {payload['derivative']}"
    elif argv[0] == "stable":
        assert payload["stable"] and comment == f"stable, cofactor {payload['cofactor']}"
    elif argv[0] == "k0":
        assert comment.startswith(f"-> {payload['ord']}, ")


# one command per subcommand and per output format it accepts, with its exit
# code and the sha256 of its stdout: a change to any byte a subcommand prints
# fails here
PINNED_OUTPUT = {
    "series-text": (("series", "--which", "g[1,3]", "--prec", "12"),
                   0, "43fd6c06636b79a57206c092fde0ff5f3f981444d8ea0492222d6e0b3974c54f"),
    "series-json": (("--format", "json", "series", "--which", "g[1,3]", "--prec", "12"),
                   0, "3ce31da50835ba326654886948a35020b9087a28126a3caaf80564536435b10d"),
    "verify-system-text": (("verify-system", "--m", "3", "--prec", "20"),
                          0, "d27ec5d094db9216fc860ac92f9016e2bf6dda554c18a69e0f034b6a089ad3df"),
    "verify-system-json": (("--format", "json", "verify-system", "--m", "3", "--prec", "20"),
                          0, "4fa3b6da75586cd64fadc2d444998d228b31e522ca938fe0151b61248e106422"),
    "ak-text": (("ak", "--k", "12", "--prec", "30"),
               0, "c318537f1c371f07b075e910a325b881642b311d72495950e0dde86fea54262d"),
    "ak-json": (("--format", "json", "ak", "--k", "12", "--prec", "30"),
               0, "7c2b1b8657f4df653eafedbbb2c03bc96305e006cbacf3ae13474e2fedfe6020"),
    "ord-text": (("ord", "--poly", "z*(E4^3-E6^2)", "--m", "1", "--prec", "10"),
                0, "8f330dbf3869ff5d8c8c9003e5fa2c3201fd84a482db810b1f5f0b5396b62fc7"),
    "ord-json": (("--format", "json", "ord", "--poly", "z*(E4^3-E6^2)", "--m", "1", "--prec", "10"),
                0, "d438e773305c5f4b13973e94cc9c5d33799e400a1762cc44b9628b6df048518e"),
    "deriv-text": (("deriv", "--poly", "E2*g[1,3]^2 - 1/2*z*E6", "--m", "3"),
                  0, "9b90d80c929276475c09e17ccf32b82e378d6f92c270b4be3872cb3ea75c2446"),
    "deriv-json": (("--format", "json", "deriv", "--poly", "E2*g[1,3]^2 - 1/2*z*E6", "--m", "3"),
                  0, "8f1562338c100f3af9911b231760472455558db7147a435643cc4770bb652389"),
    "stable-text": (("stable", "--poly", "(E4^3-E6^2)^2*z", "--m", "1"),
                   0, "7900ebc31958f1c7af2ebed89355f6bff9df97b432e287f99d41fca7712d2529"),
    "stable-json": (("--format", "json", "stable", "--poly", "(E4^3-E6^2)^2*z", "--m", "1"),
                   0, "94b3e8d89132f019f2058508660c33b92ed52b44ced5f145aad068110fce37a1"),
    "k0-text": (("k0", "--m", "3", "--prec", "10"),
               0, "01dae308f9ada09fba50b59e60f8ce129557344b4b060554b806a5a2f391a4d1"),
    "k0-json": (("--format", "json", "k0", "--m", "3", "--prec", "10"),
               0, "32b645df48fb57749e39770f632b37b853506e86c13acbac43581799cf3f2f2f"),
    "auxsearch-text-m1": (("auxsearch", "--m", "1", "--grid", "1:2"),
                         0, "2769bb38985e1ce6e708092accc2db534dac5ff5881fd3fb6e8e9ee0d2b597fd"),
    "auxsearch-json-m1": (("--format", "json", "auxsearch", "--m", "1", "--grid", "1:2"),
                         0, "2c8e7e6a27d896ba183c904a3c23d28543262ce3e54eff5427f9177036487336"),
    "auxsearch-csv-m1": (("--format", "csv", "auxsearch", "--m", "1", "--grid", "1:2"),
                        0, "8fb7e01ae956ff7740eee375111855496c5e95cdda696127b57b5644b586c29b"),
    "auxsearch-text-m3": (("auxsearch", "--m", "3", "--grid", "1:1"),
                         0, "4802e4cde67d576f9c5e2f6072b6e4e813241bddfa8d76192cba8066918f7c8c"),
    "auxsearch-json-m3": (("--format", "json", "auxsearch", "--m", "3", "--grid", "1:1"),
                         0, "d7c33c07e5ee676e8b9bab727be7978858130b253fe598b1c8b6d5c07cfdf08c"),
    "auxsearch-csv-m3": (("--format", "csv", "auxsearch", "--m", "3", "--grid", "1:1"),
                        0, "f206520efd91ecf2da87aa098b4f9ef17feeded1fc053e02c5baba95438f4f5b"),
    # the single-budget form: the rank benchmark's cell, and a precision-limited
    # cell, whose --strict run prints the same bytes and exits 1
    "auxsearch-text-rank": (("auxsearch", "--m", "5", "--d0", "3", "--d", "1", "--prec", "57"),
                           0, "ca4a72f194b883875cb69c29289580fd87af7bc52c067bfdba94cf03fb4b07b6"),
    "auxsearch-json-rank": (("--format", "json", "auxsearch", "--m", "5", "--d0", "3", "--d", "1",
                             "--prec", "57"),
                           0, "d9f66f5fee7a2dd7285030284ef4bacb34aae142b2dfb7a659708ad72d013912"),
    "auxsearch-csv-rank": (("--format", "csv", "auxsearch", "--m", "5", "--d0", "3", "--d", "1",
                            "--prec", "57"),
                          0, "267f5ffc6cc0100d42bbb0da64a9ece254d0700d83fea7661f49abc645fb07a0"),
    "auxsearch-text-limited": (("auxsearch", "--m", "1", "--d0", "1", "--d", "2", "--prec", "12"),
                              0, "b7955198f946a040f08ef10f8383fba5e81ad72ee88a18d4ddb165f91873077b"),
    "auxsearch-json-limited": (("--format", "json", "auxsearch", "--m", "1", "--d0", "1", "--d", "2",
                                "--prec", "12"),
                              0, "3319711d936c3ac71afff9b9ac6250af9b313ebf3b5008f4f89088aaa0b86176"),
    "auxsearch-csv-limited": (("--format", "csv", "auxsearch", "--m", "1", "--d0", "1", "--d", "2",
                               "--prec", "12"),
                             0, "991f1b017241dcc7422e86052041bedbfa1969ac5bda91826ceae3ea669a6706"),
    "auxsearch-text-limited-strict": (("--strict", "auxsearch", "--m", "1", "--d0", "1", "--d", "2",
                                       "--prec", "12"),
                                     1, "b7955198f946a040f08ef10f8383fba5e81ad72ee88a18d4ddb165f91873077b"),
    "auxsearch-json-limited-strict": (("--format", "json", "--strict", "auxsearch", "--m", "1", "--d0", "1",
                                       "--d", "2", "--prec", "12"),
                                     1, "3319711d936c3ac71afff9b9ac6250af9b313ebf3b5008f4f89088aaa0b86176"),
    "auxsearch-csv-limited-strict": (("--format", "csv", "--strict", "auxsearch", "--m", "1", "--d0", "1",
                                      "--d", "2", "--prec", "12"),
                                    1, "991f1b017241dcc7422e86052041bedbfa1969ac5bda91826ceae3ea669a6706"),
}


@pytest.mark.parametrize("argv, code, digest", PINNED_OUTPUT.values(), ids=PINNED_OUTPUT.keys())
def test_every_subcommand_prints_the_pinned_bytes(capsys, argv, code, digest):
    got, out, _ = invoke(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


@pytest.mark.parametrize("poly", ["0", "E2-E2"])
def test_ord_refuses_the_zero_polynomial(capsys, poly):
    # its order is infinite at every precision, so no --prec resolves it
    code, out, err = invoke(capsys, "ord", "--poly", poly, "--m", "1", "--prec", "3")
    assert (code, out, err) == (2, "", "error: the zero polynomial has no order of vanishing\n")


@pytest.mark.parametrize(
    "argv",
    [("deriv", "--poly", "E2", "--m", "1"), ("k0", "--m", "1", "--prec", "5"),
     ("auxsearch", "--m", "1", "--d0", "0", "--d", "0")],
)
def test_only_the_named_subcommand_builds_its_options(capsys, monkeypatch, argv):
    import argparse

    added = []
    original = argparse.ArgumentParser.add_argument

    def recording(self, *args, **kwargs):
        added.extend(arg for arg in args if arg.startswith("--"))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
    assert invoke(capsys, *argv)[0] == 0
    own = {f"--{option}" for option in cli._COMMANDS[argv[0]][1]}
    assert set(added) - {"--help", "--format", "--out", "--strict"} == own
