"""tools/count_lines.py: code lines and public names of a package."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "count_lines.py")

INIT = '''"""A fixture package.

Its docstring spans lines that are not code.
"""

# A comment line.
from .a import f, g  # a trailing comment

h = 1

__all__ = [
    "f", "g", "h",
]
'''

MODULE = '''"""Module a."""


def f():
    """Docstring of f."""
    return 1  # a comment


def g():
    return 2
'''


CONFIGS = '''from dataclasses import dataclass, field


@dataclass(frozen=True)
class SizeConfig:
    width: int
    area: int = field(init=False)
    depth: int = field(default=1)


@dataclass
class StepParams:
    rate: float = 0.1


class PlainConfig:
    ignored: int


@dataclass
class Other:
    ignored: int
'''


def _tool():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_and_public_names(tmp_path, capsys):
    (tmp_path / "__init__.py").write_text(INIT)
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text(CONFIGS)
    assert _tool().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "wc", "-l", "code"],
        ["__init__.py", "13", "5"],
        ["a.py", "10", "4"],
        ["b.py", "22", "14"],
        ["total", "45", "23"],
        ["__all__", "names", "3"],
        ["config", "fields", "3"],
    ]


def test_a_module_without_all_exports_no_names():
    assert _tool().exported_names("x = 1\n") == 0
