"""`scripts/code_lines.py`, the code-line counter."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# A comment line.
import os  # a trailing comment


class Box:
    """Class docstring."""

    size = 1 + \\
        2

    def area(self):
        """Function docstring."""

        text = """not a
docstring"""
        return self.size
'''


def test_count_skips_comments_blank_lines_and_docstrings():
    # import, class, size's two lines, def, text's two lines, return.
    assert code_lines.count(SAMPLE) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("y = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"8 {tmp_path / 'a.py'}", f"1 {tmp_path / 'b.py'}", "9 total"]
