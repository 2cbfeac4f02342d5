import ast
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
