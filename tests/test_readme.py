"""The README's library quickstart runs and shows the values its comments claim."""
import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_source() -> str:
    text = README.read_text()
    section = text[text.index("## Library quickstart") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run_quickstart() -> dict[str, tuple[object, str]]:
    """Execute the block statement by statement; map the source of every
    top-level expression to its value and the comment on its line."""
    source = quickstart_source()
    lines = source.splitlines()
    namespace: dict = {}
    values = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            line = lines[node.end_lineno - 1]
            comment = line.partition("#")[2].strip()
            values[ast.get_source_segment(source, node)] = (value, comment)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return values


def test_quickstart_values():
    values = run_quickstart()
    assert values["dp.rank"] == (2, "2")
    uniform, comment = values["is_quotient_of_uniform(dp, 4)"]
    assert uniform.is_quotient is True and comment.endswith("true")
    oracle, comment = values["is_quotient_rank(positroid_of(dp), uniform_matroid(4, 6))"]
    assert oracle.is_quotient is True and comment == "oracle agrees"
    shift_set, comment = values["recover_shift_set(pi, sigma)"]
    assert shift_set == frozenset({1, 3, 5, 8})
    assert eval(comment, {"frozenset": frozenset}) == shift_set
