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
# standard modules that only the argparse parser needs: its messages load
# gettext and locale
ARGPARSE = {"argparse", "gettext", "locale"}


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
    # the ring is the polynomial algebra alone, and _system states D and
    # E_{2k} by itself; checked in the source, because a lazy import that no
    # test command reaches would not show in sys.modules
    imports = {path.stem: imported_layers(path) for path in SOURCES}
    assert imports["ring"] <= {"arith", "_parse"}
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
ARGV = {
    "deriv": ("deriv", "--poly", "E2*g[1,3]^2 - 1/2*z*E6", "--m", "3"),
    "stable": ("stable", "--poly", "(E4^3 - E6^2)^2*g[0,3]", "--m", "3"),
    "series": ("series", "--which", "Theta", "--prec", "30"),
    "verify-system": ("verify-system", "--m", "3", "--prec", "30"),
    "ak": ("ak", "--k", "12"),
    "ord": ("ord", "--poly", "z*(E4^3-E6^2)", "--m", "1", "--prec", "10"),
    "k0": ("k0", "--m", "1", "--prec", "10"),
    "auxsearch": ("auxsearch", "--m", "1", "--d0", "1", "--d", "1"),
}
COMMANDS = {command: run_cli(*argv) for command, argv in ARGV.items()}

# each entry point's code and the ramlab modules it loads
LOADS = {
    "import-ramlab": ("import ramlab", ["ramlab"]),
    "import-cli": ("import ramlab.cli", ["ramlab", "ramlab.cli"]),
    "deriv": (
        COMMANDS["deriv"],
        ["ramlab", "ramlab._parse", "ramlab._system", "ramlab.arith", "ramlab.cli",
         "ramlab.ring"],
    ),
    # a command line not in the canonical form loads the argparse parser
    "deriv-argparse": (
        run_cli("deriv", "--poly", "E2", "--m=1"),
        ["ramlab", "ramlab._argparse", "ramlab._parse", "ramlab._system", "ramlab.arith",
         "ramlab.cli", "ramlab.ring"],
    ),
    "deriv-m7": (
        run_cli("deriv", "--poly", "E2", "--m", "7"),
        ["ramlab", "ramlab._parse", "ramlab._system", "ramlab.arith", "ramlab.cli",
         "ramlab.ring"],
    ),
    "stable": (
        COMMANDS["stable"],
        ["ramlab", "ramlab._parse", "ramlab._system", "ramlab.arith", "ramlab.cli",
         "ramlab.ring", "ramlab.stability"],
    ),
    "series": (
        COMMANDS["series"],
        ["ramlab", "ramlab.arith", "ramlab.cli", "ramlab.forms", "ramlab.series"],
    ),
    "verify-system": (
        COMMANDS["verify-system"],
        ["ramlab", "ramlab._checks", "ramlab._system", "ramlab.arith", "ramlab.cli",
         "ramlab.forms", "ramlab.ring", "ramlab.series"],
    ),
    "ak": (
        COMMANDS["ak"],
        ["ramlab", "ramlab._checks", "ramlab._system", "ramlab.arith", "ramlab.cli",
         "ramlab.forms", "ramlab.ring", "ramlab.series"],
    ),
    "k0": (
        COMMANDS["k0"],
        ["ramlab", "ramlab.arith", "ramlab.cli", "ramlab.forms", "ramlab.series"],
    ),
    "auxsearch": (
        COMMANDS["auxsearch"],
        ["ramlab", "ramlab._linalg", "ramlab.arith", "ramlab.cli", "ramlab.forms",
         "ramlab.multlab", "ramlab.ring", "ramlab.series"],
    ),
    "ord": (
        COMMANDS["ord"],
        ["ramlab", "ramlab._parse", "ramlab.arith", "ramlab.cli", "ramlab.forms",
         "ramlab.ring", "ramlab.series"],
    ),
}


@pytest.mark.parametrize("code, expected", LOADS.values(), ids=LOADS.keys())
def test_each_entry_point_loads_only_the_layers_it_runs(code, expected):
    # deriv and stable never need multlab, and at every m they need neither
    # the q-series layers (series, forms) nor _linalg: the ring writes each
    # closing velocity's E_{2k} in E4 and E6 itself, and ak reads it from
    # there.  k0 is a q-series fact and loads no ring.  Only auxsearch loads
    # _linalg, and only the commands that parse load the parser, _parse.
    # Only the commands that apply or check D load it, _system; only
    # verify-system and ak load the checks, _checks; the search loads neither
    assert loaded_after(code) == expected


def test_each_handler_lives_in_a_module_its_command_loads():
    # so no command compiles a module for its handler alone
    from ramlab import cli

    assert set(cli._COMMANDS) == set(COMMANDS)
    for command, (_, _, (home, name)) in cli._COMMANDS.items():
        module = importlib.import_module(f"ramlab.{home}")
        assert getattr(module, name).__module__ == module.__name__
        assert module.__name__ in LOADS[command][1]


def test_the_front_end_runs_no_function_for_one_subcommand_alone(capsys):
    # each subcommand's own code is its handler; cli holds only what the
    # subcommands share
    from ramlab import cli

    runs: dict[str, set[str]] = {}

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == cli.__file__:
            runs.setdefault(frame.f_code.co_name, set()).add(command)

    csv = ("--format", "csv", "auxsearch", "--m", "1", "--grid", "1:1")
    for command, argv in [*ARGV.items(), ("auxsearch", csv)]:
        sys.setprofile(record)
        try:
            assert cli.run(list(argv)) == 0
        finally:
            sys.setprofile(None)
    capsys.readouterr()
    assert runs["_dispatch"] == set(COMMANDS)
    assert {name: sorted(commands) for name, commands in runs.items() if len(commands) == 1} == {}


# each module that forwards names, and the modules that define them
FORWARDS = {"ring": ("_system", "forms"), "forms": ("_checks",), "_linalg": ("_bareiss",)}


@pytest.mark.parametrize("old", FORWARDS)
def test_each_module_forwards_exactly_the_trace_shims_targets(old):
    # the forwards serve only the shim, which wraps a name where it reads it;
    # every other caller imports a name from the module that defines it
    from ramlab import _linalg, forms

    module = importlib.import_module(f"ramlab.{old}")
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_shim.py"
    spec = importlib.util.spec_from_file_location("trace_shim", path)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    # the shim also reads the class whose methods it wraps as _linalg.RowReducer
    targets = set(shim.SPANS.values()) | {(_linalg, "RowReducer")}
    for home in map(importlib.import_module, (f"ramlab.{name}" for name in FORWARDS[old])):
        defined = {name for name, value in vars(home).items()
                   if getattr(value, "__module__", None) == home.__name__}
        forwarded = {name for name in defined if hasattr(module, name)}
        assert forwarded == {attr for owner, attr in targets if owner is module} & defined
        assert forwarded and all(getattr(module, name) is getattr(home, name) for name in forwarded)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    if old == "ring":
        assert module.evaluate is forms.evaluate


@pytest.mark.parametrize("old", FORWARDS)
def test_importing_a_module_loads_none_of_the_modules_it_resolves_names_from(old):
    # nor any other forwarding module's home (forms is one, of ring.evaluate);
    # and the ring loads no q-series layer
    homes = {f"ramlab.{home}" for homes in FORWARDS.values() for home in homes}
    loaded = set(loaded_after(f"import ramlab.{old}"))
    assert (homes - {f"ramlab.{old}"}) & loaded == set()
    if old == "ring":
        assert loaded & {"ramlab.forms", "ramlab.series"} == set()


@pytest.fixture(scope="module")
def at_start() -> set[str]:
    """The modules a bare interpreter on this host loads anyway."""
    return set(modules_after("pass"))


@pytest.mark.parametrize("code", COMMANDS.values(), ids=COMMANDS.keys())
def test_no_command_loads_code_generation_modules(code, at_start):
    assert HEAVY & set(modules_after(code)) <= at_start


@pytest.mark.parametrize("command", [*COMMANDS, "import-cli"])
def test_no_canonical_command_loads_argparse_and_only_stable_loads_heapq(command, at_start):
    # a canonical command line is parsed from cli's tables; heapq serves
    # only exact division, which only stable runs
    loaded = set(modules_after(COMMANDS.get(command, "import ramlab.cli"))) - at_start
    assert loaded & ARGPARSE == set()
    assert ("heapq" in loaded) == (command == "stable" and "heapq" not in at_start)


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


def test_refused_empty_out_loads_no_layer():
    argv = ["--out", "", "k0", "--m", "1", "--prec", "5"]
    code = f"from ramlab.cli import run\nif run({argv!r}) != 2:\n    sys.exit(1)"
    assert loaded_after(code) == ["ramlab", "ramlab.cli"]


def test_refused_auxsearch_budget_loads_no_layer():
    argv = ["auxsearch", "--m", "1", "--d0", "1", "--d", "1", "--grid", "1:1"]
    code = f"from ramlab.cli import run\nif run({argv!r}) != 2:\n    sys.exit(1)"
    assert loaded_after(code) == ["ramlab", "ramlab.cli"]
