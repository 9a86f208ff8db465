"""The README's library quickstart runs and shows the values its comments
claim, and every command of its CLI block runs with the exit code it should."""
import ast
import json
import re
import shlex
from pathlib import Path

from positroids import DecoratedPermutation, positroid_of, uniform_matroid
from positroids.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def block(heading: str, lang: str) -> str:
    text = README.read_text()
    section = text[text.index(heading) :]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def quickstart_source() -> str:
    return block("## Library quickstart", "python")


def cli_commands() -> list[list[str]]:
    """The argv of every ``positroids`` line of the CLI block, backslash
    continuations joined and comments dropped."""
    source = block("## CLI", "sh").replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in source.splitlines() if line.startswith("positroids ")]


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


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POSITROID_MAX_N", raising=False)
    # the files the check-quotient line names: a quotient of U_{4,6}
    m = positroid_of(DecoratedPermutation.from_text("1o 5 4 6 2 3"))
    (tmp_path / "m.json").write_text(json.dumps(m.to_json()))
    (tmp_path / "n.json").write_text(json.dumps(uniform_matroid(4, 6).to_json()))
    false_verdicts = {"check-uniform", "check-lpm-quotient"}
    commands = cli_commands()
    assert {argv[0] for argv in commands} >= {"convert", "enumerate", "check-quotient"} | false_verdicts
    for argv in commands:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == (1 if argv[0] in false_verdicts else 0), (argv, err)
        assert err == "", argv
