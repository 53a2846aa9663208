"""The comparator behind ``benchmarks/``' golden tables
(``benchmarks/common.py``'s ``check_golden``), on files of its own: no
benchmark runs here."""

import importlib.util
import pathlib

import pytest

COMMON = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "common.py"
_spec = importlib.util.spec_from_file_location("benchmarks_common", COMMON)
common = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(common)

FIRST = "E1: first table\nx  y\n-  -\n1  2"
SECOND = "E2: second table\nkey  value\n---  -----\n  a      1\n  b      2"


def test_an_equal_text_passes(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text(FIRST + "\n\n" + SECOND + "\n")
    common.check_golden(path, [FIRST, SECOND])


def test_a_one_cell_change_names_the_file_the_line_and_the_table(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text(FIRST + "\n\n" + SECOND + "\n")
    changed = SECOND.replace("b      2", "b      3")
    with pytest.raises(AssertionError) as failure:
        common.check_golden(path, [FIRST, changed])
    message = str(failure.value)
    assert message.startswith(f"{path}:10: in table 'E2: second table'")
    assert "'  b      2'" in message and "'  b      3'" in message
    # a table missing from the end is a mismatch too
    with pytest.raises(AssertionError) as failure:
        common.check_golden(path, [FIRST])
    assert str(failure.value).startswith(
        f"{path}:5: in table 'E1: first table'\n"
        "  golden:  ''\n  printed: (end of text)")


def test_a_missing_golden_is_written_and_the_test_fails(tmp_path):
    path = tmp_path / "golden" / "new.txt"
    with pytest.raises(AssertionError, match="golden written, re-run"):
        common.check_golden(path, [FIRST, SECOND])
    assert path.read_text() == FIRST + "\n\n" + SECOND + "\n"
    common.check_golden(path, [FIRST, SECOND])
