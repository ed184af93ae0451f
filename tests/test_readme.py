"""The README's library quick tour runs as written and shows what it returns."""

import ast
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def quick_tour() -> str:
    """The python block under the README's "Library quick tour" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_runs_as_written():
    block = quick_tour()
    namespace: dict = {}
    values = []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            values.append(eval(compile(ast.Expression(statement.value), "README", "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    flat, square_zero, prim, cone = values
    # each shown result is the repr of what the line returns
    for value in (flat, square_zero, prim):
        assert f"# {value!r}\n" in block
    assert flat is True
    assert (square_zero.trials, square_zero.failures) == (20, 0)
    assert prim == {"P0+": 1, "P1+": 1, "P2+": 0, "P2-": 0, "P1-": 0, "P0-": 0}
    # "same numbers, gradings C0..C5"
    assert cone == {f"C{g}": dim for g, dim in enumerate(prim.values())}
