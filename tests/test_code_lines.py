import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = '''"""Module
docstring."""

# a comment
def f(x):
    """One line."""
    y = (x +
         1)  # trailing comment
    return """a
string"""


class C:
    """Class
    docstring."""
    z = 0
'''
    # def, the two lines of y, the two of the returned string, class, z
    assert _tool().code_lines(source) == 7


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n')
    assert _tool().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "2", "3"]
    assert lines[-1].split()[1] == "total"
