"""``docs/CONFIG.md`` lists exactly the knobs the code has.

Its flag tables must name the ``--`` options of the two CLI parsers,
and its environment table the ``REPRO_*`` string literals in ``src/``:
a flag or variable added, renamed or removed on one side only fails
here.  The README's lint paragraph must list exactly the rules
``python -m repro.analysis lint`` runs.  The CI ``docs-gate`` job runs
this file.
"""

import ast
import os
import re

from repro.analysis.rules import rule_ids
from repro.experiments.cli import build_parser as experiments_parser
from repro.serve.http import build_parser as serve_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "docs", "CONFIG.md")
README = os.path.join(ROOT, "README.md")
SRC = os.path.join(ROOT, "src")

ENV_VAR = re.compile(r"REPRO_[A-Z0-9_]+")


def _section(heading: str) -> str:
    """The text of ``docs/CONFIG.md`` under ``## heading``, up to the next one."""
    with open(CONFIG, "r", encoding="utf-8") as handle:
        text = handle.read()
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


def _first_cells(heading: str) -> list:
    """First word of each table row's backticked first cell in that section."""
    return re.findall(r"^\| `([^` ]+)[^`]*` \|", _section(heading), flags=re.MULTILINE)


def _long_options(parser) -> list:
    return sorted(
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    )


def _env_literals() -> list:
    found = set()
    for directory, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            found.update(
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ENV_VAR.fullmatch(node.value)
            )
    return sorted(found)


def test_serve_flags_match_the_parser():
    documented = sorted(_first_cells("`python -m repro.serve` flags"))
    assert documented == _long_options(serve_parser())


def test_experiments_flags_match_the_parser():
    documented = sorted(_first_cells("`python -m repro.experiments` flags"))
    assert documented == _long_options(experiments_parser())


def test_environment_table_matches_the_variables_in_src():
    documented = sorted(_first_cells("Environment variables"))
    assert documented == _env_literals()


def test_readme_lint_paragraph_lists_every_rule():
    with open(README, "r", encoding="utf-8") as handle:
        text = handle.read()
    start = text.index("**Lint.**")
    paragraph = text[start : text.index("`--strict`", start)]
    documented = re.findall(r"^- `([^`]+)`", paragraph, flags=re.MULTILINE)
    assert documented == rule_ids()
