import importlib.util
import subprocess
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


def test_against_a_revision_prints_both_counts(tmp_path, monkeypatch, capsys):
    # a.py changes, b.py is new and gone.py is deleted since the commit;
    # a file absent at one side counts 0 there
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "gone.py").write_text("y = 2\nz = 3\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (pkg / "a.py").write_text('"""doc"""\nx = 1\ny = 2\n')
    (pkg / "gone.py").unlink()
    (pkg / "b.py").write_text("w = 4\n")
    monkeypatch.chdir(tmp_path)
    assert _tool().main(["--against", "HEAD", "pkg"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["1", "2", "pkg/a.py"], ["0", "1", "pkg/b.py"],
                    ["2", "0", "pkg/gone.py"], ["3", "3", "total"]]
    assert _tool().main(["--against", "HEAD", "pkg/a.py", "pkg/b.py"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["1", "2", "pkg/a.py"], ["0", "1", "pkg/b.py"], ["1", "3", "total"]]
    assert _tool().main(["--against", "no-such-rev", "pkg"]) == 2
