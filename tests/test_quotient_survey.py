"""scripts/quotient_survey.py run as a subprocess, as a user runs it."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def survey(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "quotient_survey.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_small_survey():
    result = survey("--n", "3")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "decorated permutations on [3]: 16"
    assert lines[-3].startswith("elementary flag pairs with rank(pi)=1: 7 ")


def test_refused_n_is_an_error_line_and_exit_two():
    result = survey("--n", "9")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: flag pair enumeration supports 1 <= n <= 8, got n=9\n"
    assert "Traceback" not in result.stderr
