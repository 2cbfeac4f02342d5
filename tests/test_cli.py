import errno
import json
import os
import shlex
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
    rendered = []
    real = cli._rows_to_csv

    def recording(rows):
        rendered.append(rows)
        return real(rows)

    monkeypatch.setattr(cli, "_rows_to_csv", recording)
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


@pytest.mark.parametrize("budget", [("--d0", "1", "--d", "1"), ("--d0", "1"), ("--d", "1")])
def test_auxsearch_refuses_a_grid_with_a_single_budget(capsys, monkeypatch, budget):
    from ramlab import multlab

    monkeypatch.setattr(multlab, "experiment_grid", lambda *a: pytest.fail("the search ran"))
    code, out, err = invoke(capsys, "auxsearch", "--m", "1", *budget, "--grid", "1:1")
    assert (code, out) == (2, "")
    assert err == "error: auxsearch takes either --d0 and --d, or --grid, not both\n"


def test_strict_flag_on_unresolved_ord(capsys):
    # zero polynomial never happens, but a deep vanishing probe can exceed prec
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
    from ramlab import ring

    def refuse(*args):
        raise AssertionError("CSV output built the JSON/text payload")

    monkeypatch.setattr(cli, "_experiment_rows", refuse)
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
    from ramlab import forms, multlab, ring
    from ramlab.arith import MAX_M

    def refuse(*args):
        raise AssertionError("function_tuple ran")

    monkeypatch.setattr(forms, "function_tuple", refuse)
    monkeypatch.setattr(multlab, "function_tuple", refuse)
    built = ring._units.cache_info().misses, ring._velocities.cache_info().misses
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv, "--m", str(MAX_M + 2))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: m={MAX_M + 2} is over the limit {MAX_M}\n")
    assert (ring._units.cache_info().misses, ring._velocities.cache_info().misses) == built


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
