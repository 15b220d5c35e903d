"""tools/loc.py: the committed code-line and task-site counter."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

spec = importlib.util.spec_from_file_location("loc_tool", TOOL)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SAMPLE = '''"""Module docstring.

Two lines of it.
"""

import asyncio  # trailing comments do not stop a line counting

# a comment line


class Thing:
    """Class docstring."""

    x = "# not a comment"

    def run(self):
        """Method docstring."""
        text = """a string that
        spans lines is code"""
        return asyncio.ensure_future(
            self.go()
        )
'''


def test_counts_code_not_comments_blanks_or_docstrings():
    # import, class, x, def, text (2 lines), return (3 lines)
    assert loc.code_lines(SAMPLE) == 9


def test_lists_task_creation_sites():
    assert loc.task_sites(SAMPLE) == [(20, "ensure_future")]


def test_cli_totals_a_directory(capsys, tmp_path):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[:2] == ["10", "total"]
    assert loc.main(["--tasks", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[:2] == ["1", "total"]
