"""The README's examples run as documented, and `gea` exports what it lists."""

import re
import shlex
from pathlib import Path

import pytest

import gea
from gea import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(text, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in fenced(README.split("## Command line", 1)[1], "sh")[0].splitlines()
            if line.startswith("gea ")]
assert COMMANDS, "the Command line section lists no gea command"


def test_library_example_runs():
    (example,) = fenced(README, "python")
    exec(compile(example, "README.md", "exec"), {})


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_command_line_example_exits_as_documented(args, tmp_path, monkeypatch, capsys):
    # Corpus paths are relative to the repository; --out writes to tmp_path.
    argv = [str(ROOT / a) if a.startswith("src/") else a for a in args]
    monkeypatch.chdir(tmp_path)
    expected = 3 if any(a.endswith("no_states.json") for a in args) else 0
    assert cli.main(argv) == expected, capsys.readouterr().out
    if "--out" in args:
        assert (tmp_path / args[args.index("--out") + 1]).is_file()


def test_star_import_binds_every_public_name_once():
    namespace = {}
    exec("from gea import *", namespace)
    assert len(set(gea.__all__)) == len(gea.__all__)
    assert set(gea.__all__) <= namespace.keys()
    removed = {"FiniteVector", "vector_state", "basic_solution_feasible", "bound_constant",
               "find_order_witness", "find_separating_state", "normalize_state",
               "extract_states", "verify_bounded"}
    assert not removed & set(gea.__all__)
