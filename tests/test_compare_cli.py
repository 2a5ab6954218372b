"""``tools/compare_cli.py``'s line comparison, on texts built here."""

import importlib.util
import pathlib
from collections import defaultdict

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_cli.py"
_SPEC = importlib.util.spec_from_file_location("compare_cli", _PATH)
compare_cli = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_cli)


def _deltas():
    return defaultdict(lambda: [0.0, 0.0, 0, "", 0, 0])


def test_every_differing_line_is_shown_and_later_moves_counted():
    old = "upper bound: 1.5 bits\nmode: uniform\ngap: 0.25 bits\nS={1,2} blocks\ncf rate: 1 bits\n"
    new = "upper bound: 1.5 bits\nmode: coordinate\ngap: 0.5 bits\nS={1,3} rows\ncf rate: 2 bits\n"
    deltas = _deltas()
    moved, diffs = compare_cli.compare_lines("run", "cfrate", old, new, deltas)
    assert diffs == [("mode: uniform", "mode: coordinate"), ("S={1,2} blocks", "S={1,3} rows")]
    assert moved == 2
    assert deltas[("cfrate", "gap:")][:4] == [0.25, 0.5, 1, "run"]
    assert deltas[("cfrate", "cf rate:")][:4] == [1.0, 0.5, 1, "run"]


def test_number_moves_alone_show_no_difference():
    compare, deltas = compare_cli.compare_lines, _deltas()
    assert compare("run", "bound", "x: 1\ny: 2\n", "x: 1\ny: 3\n", deltas) == (1, [])
    assert compare("run", "bound", "x: 1\n", "x: 1\n", deltas) == (0, [])


def test_texts_of_different_lengths_give_counts_and_first_difference():
    moved, diffs = compare_cli.compare_lines("run", "bound", "a\nb\n", "a\nb\nc\n", _deltas())
    assert (moved, diffs) == (0, [("2 lines", "3 lines"), ("(no line)", "c")])


def test_first_difference():
    assert compare_cli.first_difference("a\nb\nc\n", "a\nx\ny\n") == ("b", "x")
    assert compare_cli.first_difference("a\nb\n", "a\n") == ("b", "(no line)")
    assert compare_cli.first_difference("a\n", "a\n") is None
