"""CHANGES.md stays a log one can scan: an entry numbered
``FIRST_CAPPED`` or later is at most ``CAP`` characters (earlier entries
predate the cap).  Measured numbers belong in BENCH_HISTORY.jsonl,
methods and experiment claims in EXPERIMENTS.md, contracts in
DESIGN.md; an entry says what changed and points there."""

import pathlib
import re

CHANGES = pathlib.Path(__file__).resolve().parent.parent / "CHANGES.md"
FIRST_CAPPED = 28
CAP = 1_500


def _entries(text):
    """``(pr number, entry)`` pairs: an entry runs from its ``PR N:`` line
    to the next one, surrounding whitespace stripped."""
    starts = [(int(match.group(1)), match.start())
              for match in re.finditer(r"^PR (\d+):", text, re.MULTILINE)]
    ends = [start for _number, start in starts[1:]] + [len(text)]
    return [(number, text[start:end].strip())
            for (number, start), end in zip(starts, ends)]


def test_capped_changes_entries_fit_the_cap():
    entries = _entries(CHANGES.read_text(encoding="utf-8"))
    assert [number for number, _entry in entries][:2] == [1, 2]
    too_long = [(number, len(entry)) for number, entry in entries
                if number >= FIRST_CAPPED and len(entry) > CAP]
    assert too_long == [], f"entries over {CAP} characters: {too_long}"


def test_the_cap_counts_what_it_is_for():
    bodies = {7: "x" * 2_000, 8: "short\n  and indented", 9: "é" * 1_495}
    text = "\n\n".join(f"PR {number}: {body}" for number, body in bodies.items()) + "\n"
    assert [(number, len(entry)) for number, entry in _entries(text)] == [
        (7, 2_006), (8, 26), (9, 1_501)]
