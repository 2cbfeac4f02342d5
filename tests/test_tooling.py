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

# prints the ramlab modules loaded once the code above it has run
LOADED = """
import json, sys
{code}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "ramlab")))
"""


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


def loaded_after(code: str) -> list[str]:
    """The ramlab modules a fresh interpreter has loaded after running code."""
    env = dict(os.environ, PYTHONPATH=str(Path(ramlab.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", LOADED.format(code=code)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def run_cli(*argv: str) -> str:
    return f"from ramlab.cli import run\nif run({list(argv)!r}):\n    sys.exit(1)"


@pytest.mark.parametrize(
    "code, expected",
    [
        ("import ramlab", ["ramlab"]),
        ("import ramlab.cli", ["ramlab", "ramlab.cli"]),
        ("from ramlab import Polynomial", ["ramlab", "ramlab.arith", "ramlab.ring"]),
        (
            run_cli("deriv", "--poly", "E2*g[1,3]^2 - 1/2*z*E6", "--m", "3"),
            ["ramlab", "ramlab.arith", "ramlab.cli", "ramlab.ring"],
        ),
        (
            run_cli("stable", "--poly", "(E4^3 - E6^2)^2*g[0,3]", "--m", "3"),
            ["ramlab", "ramlab.arith", "ramlab.cli", "ramlab.ring", "ramlab.stability"],
        ),
        (
            run_cli("series", "--which", "Theta", "--prec", "30"),
            ["ramlab", "ramlab.arith", "ramlab.cli", "ramlab.forms", "ramlab.series"],
        ),
        (
            run_cli("verify-system", "--m", "3", "--prec", "30"),
            ["ramlab", "ramlab.arith", "ramlab.cli", "ramlab.forms", "ramlab.ring",
             "ramlab.series"],
        ),
    ],
    ids=["import-ramlab", "import-cli", "import-polynomial", "deriv", "stable", "series",
         "verify-system"],
)
def test_each_entry_point_loads_only_the_layers_it_runs(code, expected):
    # deriv and stable need neither the q-series layers (series, forms) nor
    # _linalg and multlab; below m=7 no closing velocity needs A_k, so
    # verify-system, like series, does not load _linalg
    assert loaded_after(code) == expected


def test_package_names_resolve_on_first_use():
    from ramlab import Order, Polynomial, SystemConfig, TruncatedSeries, ring, series

    assert (Polynomial, SystemConfig) == (ring.Polynomial, ring.SystemConfig)
    assert (Order, TruncatedSeries) == (series.Order, series.TruncatedSeries)
    with pytest.raises(AttributeError):
        ramlab.no_such_name
