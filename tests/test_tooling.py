import ast
import importlib.util
from pathlib import Path

import ramlab

SOURCES = sorted(Path(ramlab.__file__).parent.glob("*.py"))


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
