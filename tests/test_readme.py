"""README's library example and command-line section, checked against the
code, so the one copy of each cannot drift from it."""
from __future__ import annotations

import argparse
import inspect
import re
from pathlib import Path

from palmdpp import cli
from palmdpp.errors import TOKENS

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def test_library_example_runs_and_its_comments_hold():
    block, = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert abs(namespace["p"] - 1.0) <= 1e-12  # "p == 1 for a projection kernel"
    assert abs(namespace["report"].p_u - 0.75) <= 1e-12  # "0.75 == alpha * beta"


def test_command_line_section_names_every_command_flag_token_and_exit_code():
    sections = {part.split("\n", 1)[0]: part for part in re.split(r"^## ", README, flags=re.M)}
    text = sections["Command line"]
    parser = cli.build_parser()
    commands, = [a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    flags = {option for p in (parser, *commands.values()) for a in p._actions
             for option in a.option_strings if option.startswith("--")}
    assert [c for c in commands if f"palmdpp {c} " not in text] == []
    # whole flags only: --model must not be found inside --models
    assert sorted(f for f in flags if not re.search(re.escape(f) + r"(?![\w-])", text)) == []
    assert [t for t in TOKENS if f"`{t}`" not in text] == []
    # every exit code a command or main returns has its own item in the list
    returned = {int(c) for c in re.findall(r"^\s+return (\d+)$", inspect.getsource(cli), re.M)}
    assert returned == {0, 2, 3, 4, 5}
    assert {int(c) for c in re.findall(r"^- `(\d+)` ", text, re.M)} == returned
