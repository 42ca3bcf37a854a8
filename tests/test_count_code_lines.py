"""``scripts/count_code_lines.py`` counts the lines that hold code: docstrings,
comments and blank lines count nothing, and a token that spans lines counts
on each of them."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("count_code_lines",
                                               ROOT / "scripts" / "count_code_lines.py")
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

_MODULE = '''\
"""Module docstring,
over two lines."""

# a comment line

import os  # a trailing comment


class Point:
    """Class docstring."""

    def label(self):
        """Function
        docstring."""

        # an indented comment
        text = """one
two"""
        return text + os.sep
'''


@pytest.mark.parametrize("source, count", [
    # import, class, def, the string's two lines and return
    pytest.param(_MODULE, 6, id="module"),
    pytest.param('"""Only a docstring."""\n\n# and a comment\n', 0, id="docstring-only"),
    # a string that is not a docstring counts, on each of its lines
    pytest.param('x = 1\n"""not a\ndocstring"""\n', 3, id="bare-string"),
    pytest.param("x = (1,\n     2)  # note\n", 2, id="bracketed-expression"),
    pytest.param("x = 1; y = 2  # two statements, one line\n", 1, id="one-line"),
])
def test_code_lines_counts_only_code(tmp_path, source, count):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert count_code_lines.code_lines(path) == count


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_MODULE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    assert count_code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["6", str(tmp_path / "a.py")], ["1", str(tmp_path / "sub" / "b.py")], ["7", "total"]]
