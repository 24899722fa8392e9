"""tools/probe.py: rows taken at REF and here in turn, each section in a
fresh interpreter, and a tree without the batch float kernel."""

import importlib
import re
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def probe(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("probe")


def test_the_side_that_goes_first_alternates_and_the_ratio_is_here_over_ref(
        probe, monkeypatch, capsys):
    calls = []

    def side(src, row):
        calls.append(src)
        return (3.0, 1.0) if src == probe.HERE else (2.0, 1.0)

    monkeypatch.setattr(probe, "_side", side)
    rows = [("trace", "ray", 10, 1)] * 4
    probe.main("REF", rows)
    assert calls == ["REF", probe.HERE, probe.HERE, "REF"] * 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("== trace:") and len(lines) == 5
    for line in lines[1:]:
        assert line.split()[4:] == ["2.000", "1.000", "3.000", "1.000", "1.500"]


def test_each_section_prints_its_row_from_a_fresh_interpreter(probe, capsys):
    rows = [("writer", "ladder", 9), ("writer", "heavy-scan", 50), ("tower", 2),
            ("trace", "ray", 200, 1), ("trace", "backward", 200, 1),
            ("decided", 200), ("heavy", 200, 1)]
    probe.main(None, rows)
    lines = capsys.readouterr().out.splitlines()
    widths = {"writer": 3, "tower": 6, "trace": 2, "decided": 3, "heavy": 4}
    printed = [line for line in lines if not line.startswith("==")]
    assert sum(line.startswith("== ") for line in lines) == len(widths)
    assert len(printed) == len(rows)
    for row, line in zip(rows, printed):
        label = " ".join(map(str, row))
        assert line.startswith(label)
        numbers = [float(x) for x in line[len(label):].split()]
        assert len(numbers) == widths[row[0]] and all(x >= 0 for x in numbers)
        assert numbers[0] > 0, line
    # both traces' 200 visits on the three alphas
    assert printed[5].split()[3] == "1200"


def test_a_tree_without_the_batch_float_kernel_says_so(probe, tmp_path, capsys):
    (tmp_path / "rotn").mkdir()
    (tmp_path / "rotn" / "__init__.py").write_text("")
    (tmp_path / "rotn" / "exactreal.py").write_text("")
    probe.main(str(tmp_path), [("decided", 200)])
    row = capsys.readouterr().out.splitlines()[1]
    # REF's note, this checkout's numbers, and no ratio
    assert re.fullmatch(r"decided 200 +no batch float kernel \(exactreal\._surd_floats\) "
                        r"in this tree +\d+\.\d{4} +1200 +\d+  -", row), row
