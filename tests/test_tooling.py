import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramlab

SOURCES = sorted(Path(ramlab.__file__).parent.glob("*.py"))

# prints the modules loaded once the code above it has run
LOADED = """
import json, sys
{code}
print(json.dumps(sorted(sys.modules)))
"""

# standard modules that only code generation or introspection needs
HEAVY = {"dataclasses", "inspect", "dis", "ast"}


def test_source_has_no_assert_statements():
    # python -O strips assert, so a check written with it would not run
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_source_builds_no_code_at_run_time():
    # dataclasses compiles each class's methods with exec, and importing it
    # loads inspect, dis and ast: start-up cost paid by every process
    def offends(node) -> bool:
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").split(".")[0] == "dataclasses"
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("exec", "eval")
        )

    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if offends(node)
    ]
    assert found == []


def test_no_module_imports_typing():
    # annotations are never evaluated (from __future__ import annotations),
    # and importing typing costs every process several milliseconds.  Checked
    # in the source, because some hosts' site hooks load typing anyway
    def offends(node) -> bool:
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "typing" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "typing"

    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if offends(node)
    ]
    assert found == []


def imported_layers(path: Path) -> set[str]:
    """The ramlab modules a source file imports anywhere, inside functions too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("ramlab.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "ramlab":
                    continue
                module = module.partition(".")[2]
            # "from . import ring" names the module; "from .ring import x" a member
            found |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
    return found


def test_only_multlab_imports_linalg_and_ring_imports_no_upper_layer():
    # the ring states D and E_{2k} by itself; checked in the source, because a
    # lazy import that no test command reaches would not show in sys.modules
    imports = {path.stem: imported_layers(path) for path in SOURCES}
    assert imports["ring"] & {"forms", "multlab", "_linalg"} == set()
    assert imports["_system"] & {"forms", "multlab", "_linalg"} == set()
    assert [name for name, layers in imports.items() if "_linalg" in layers] == ["multlab"]
    # the walk sees imports inside functions, in both relative forms
    assert {"forms", "ring"} <= imports["_checks"] and "_parse" in imports["ring"]


def test_trace_shim_targets_resolve():
    # the benchmark's traced runs wrap these names; a rename must not
    # silently leave a span unwrapped.  Importing the shim installs nothing.
    from ramlab import _linalg, arith, cli, forms, multlab, ring, series, stability

    holders = (arith, series, forms, ring, stability, multlab, _linalg, cli,
               series.TruncatedSeries, ring.Polynomial, _linalg.RowReducer)
    before = [dict(vars(holder)) for holder in holders]
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_shim.py"
    spec = importlib.util.spec_from_file_location("trace_shim", path)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    assert [dict(vars(holder)) for holder in holders] == before
    assert shim.SPANS
    missing = [
        name
        for name, (owner, attr) in shim.SPANS.items()
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize(
    "argv",
    [
        ("deriv", "--poly", "E2*g[1,3]^2 - 1/2*z*E6", "--m", "3"),
        ("stable", "--poly", "(E4^3 - E6^2)^2*g[0,3]", "--m", "3"),
        ("ord", "--poly", "z*(E4^3-E6^2)", "--m", "1", "--prec", "10"),
    ],
    ids=["deriv", "stable", "ord"],
)
def test_commands_parse_through_ring_parse(monkeypatch, capsys, argv):
    # the trace shim's ring.parse span must hold all of parsing, although
    # the parser itself lives in another module
    from ramlab import cli, ring

    calls = []
    real = ring.parse

    def recorder(text, cfg):
        calls.append((text, cfg.m))
        return real(text, cfg)

    monkeypatch.setattr(ring, "parse", recorder)
    assert cli.run(list(argv)) == 0
    assert calls == [(argv[2], int(argv[4]))]
    capsys.readouterr()


def modules_after(code: str) -> list[str]:
    """The modules a fresh interpreter has loaded after running code."""
    env = dict(os.environ, PYTHONPATH=str(Path(ramlab.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", LOADED.format(code=code)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def loaded_after(code: str) -> list[str]:
    """The ramlab modules a fresh interpreter has loaded after running code."""
    return [m for m in modules_after(code) if m.split(".")[0] == "ramlab"]


def run_cli(*argv: str) -> str:
    return f"from ramlab.cli import run\nif run({list(argv)!r}):\n    sys.exit(1)"


# one run of each subcommand that computes something
COMMANDS = {
    "deriv": run_cli("deriv", "--poly", "E2*g[1,3]^2 - 1/2*z*E6", "--m", "3"),
    "stable": run_cli("stable", "--poly", "(E4^3 - E6^2)^2*g[0,3]", "--m", "3"),
    "series": run_cli("series", "--which", "Theta", "--prec", "30"),
    "verify-system": run_cli("verify-system", "--m", "3", "--prec", "30"),
    "ak": run_cli("ak", "--k", "12"),
    "k0": run_cli("k0", "--m", "1", "--prec", "10"),
    "auxsearch": run_cli("auxsearch", "--m", "1", "--d0", "1", "--d", "1"),
}


@pytest.mark.parametrize(
    "code, expected",
    [
        ("import ramlab", ["ramlab"]),
        ("import ramlab.cli", ["ramlab", "ramlab.cli"]),
        ("from ramlab import Polynomial", ["ramlab", "ramlab.arith", "ramlab.ring"]),
        (
            COMMANDS["deriv"],
            ["ramlab", "ramlab._parse", "ramlab._system", "ramlab.arith", "ramlab.cli",
             "ramlab.ring"],
        ),
        (
            run_cli("deriv", "--poly", "E2", "--m", "7"),
            ["ramlab", "ramlab._parse", "ramlab._system", "ramlab.arith", "ramlab.cli",
             "ramlab.ring"],
        ),
        (
            COMMANDS["stable"],
            ["ramlab", "ramlab._parse", "ramlab._system", "ramlab.arith", "ramlab.cli",
             "ramlab.ring", "ramlab.stability"],
        ),
        (
            COMMANDS["series"],
            ["ramlab", "ramlab.arith", "ramlab.cli", "ramlab.forms", "ramlab.series"],
        ),
        (
            COMMANDS["verify-system"],
            ["ramlab", "ramlab._checks", "ramlab._system", "ramlab.arith", "ramlab.cli",
             "ramlab.forms", "ramlab.ring", "ramlab.series"],
        ),
        (
            COMMANDS["ak"],
            ["ramlab", "ramlab._checks", "ramlab._system", "ramlab.arith", "ramlab.cli",
             "ramlab.forms", "ramlab.ring", "ramlab.series"],
        ),
        (
            COMMANDS["k0"],
            ["ramlab", "ramlab.arith", "ramlab.cli", "ramlab.forms", "ramlab.series"],
        ),
        (
            COMMANDS["auxsearch"],
            ["ramlab", "ramlab._linalg", "ramlab.arith", "ramlab.cli", "ramlab.forms",
             "ramlab.multlab", "ramlab.ring", "ramlab.series"],
        ),
    ],
    ids=["import-ramlab", "import-cli", "import-polynomial", "deriv", "deriv-m7", "stable",
         "series", "verify-system", "ak", "k0", "auxsearch"],
)
def test_each_entry_point_loads_only_the_layers_it_runs(code, expected):
    # deriv and stable never need multlab, and at every m they need neither
    # the q-series layers (series, forms) nor _linalg: the ring writes each
    # closing velocity's E_{2k} in E4 and E6 itself, and ak reads it from
    # there.  k0 is a q-series fact and loads no ring.  Only auxsearch loads
    # _linalg, and only the commands that parse load the parser, _parse.
    # Only the commands that apply or check D load it, _system; only
    # verify-system and ak load the checks, _checks; the search loads neither
    assert loaded_after(code) == expected


# each module that holds names of another, and the names it resolves from there
MOVED = {
    "ring": ("_system", ["eisenstein_polynomial", "velocity", "derive", "_velocities"]),
    "forms": ("_checks", ["AkPolynomial", "ak_polynomial", "EquationCheck", "SystemReport",
                          "verify_system"]),
    "_linalg": ("_bareiss", ["RowReducer", "solve_square"]),
}


@pytest.mark.parametrize("old", MOVED)
def test_moved_names_resolve_at_their_old_home_to_the_same_object(old):
    home, names = MOVED[old]
    old_module = importlib.import_module(f"ramlab.{old}")
    new_module = importlib.import_module(f"ramlab.{home}")
    for name in names:
        assert getattr(old_module, name) is getattr(new_module, name)
    assert set(new_module.__all__) <= set(old_module.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        old_module.no_such_name


@pytest.mark.parametrize("old", MOVED)
def test_importing_a_module_loads_none_of_the_modules_it_resolves_names_from(old):
    homes = {f"ramlab.{home}" for home, _ in MOVED.values()}
    assert homes & set(loaded_after(f"import ramlab.{old}")) == set()


@pytest.fixture(scope="module")
def heavy_at_start() -> set[str]:
    """The heavy modules a bare interpreter on this host loads anyway."""
    return HEAVY & set(modules_after("pass"))


@pytest.mark.parametrize("code", COMMANDS.values(), ids=COMMANDS.keys())
def test_no_command_loads_code_generation_modules(code, heavy_at_start):
    assert HEAVY & set(modules_after(code)) <= heavy_at_start


def test_package_names_resolve_on_first_use():
    from ramlab import Order, Polynomial, SystemConfig, TruncatedSeries, ring, series

    assert (Polynomial, SystemConfig) == (ring.Polynomial, ring.SystemConfig)
    assert (Order, TruncatedSeries) == (series.Order, series.TruncatedSeries)
    with pytest.raises(AttributeError):
        ramlab.no_such_name


def test_csv_auxsearch_does_not_load_the_csv_module():
    code = run_cli("--format", "csv", "auxsearch", "--m", "1", "--d0", "1", "--d", "1")
    assert "csv" not in modules_after(code)


@pytest.mark.parametrize(
    "argv",
    [("k0", "--m", "1", "--prec", "10"), ("verify-system", "--m", "3", "--prec", "30")],
    ids=["k0", "verify-system"],
)
def test_refused_csv_loads_no_layer(argv):
    argv = ["--format", "csv", *argv]
    code = f"from ramlab.cli import run\nif run({argv!r}) != 2:\n    sys.exit(1)"
    assert loaded_after(code) == ["ramlab", "ramlab.cli"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_every_name_in_all_resolves(path):
    # a name deleted from a module but left in its __all__ breaks star imports
    module = "ramlab" if path.stem == "__init__" else f"ramlab.{path.stem}"
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    names = importlib.import_module(module).__all__
    assert names and [name for name in names if name not in namespace] == []


def test_refused_auxsearch_budget_loads_no_layer():
    argv = ["auxsearch", "--m", "1", "--d0", "1", "--d", "1", "--grid", "1:1"]
    code = f"from ramlab.cli import run\nif run({argv!r}) != 2:\n    sys.exit(1)"
    assert loaded_after(code) == ["ramlab", "ramlab.cli"]
