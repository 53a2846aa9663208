"""Shared helpers for the experiment benchmarks (E1–E19).

Each ``test_eN_*`` module reproduces one table/figure from the
reconstructed evaluation (see DESIGN.md's experiment index): it runs
the experiment, prints the table, asserts the qualitative *shape* the
taxonomy predicts, and registers a representative kernel with
pytest-benchmark.

Every table a test prints through :func:`emit` is also checked against
its golden, ``golden/<module>.<test name>.txt`` (the test name carries
its parametrize id): ``conftest.py`` hands what the test emitted to
:func:`check_golden` once the test body has passed.  A missing golden
is written and the test fails; to re-baseline a table, delete its file
and run the test twice.
"""

from __future__ import annotations

from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

#: What the running test has emitted so far, in order (``conftest.py``
#: empties it as each test starts).
EMITTED: list[str] = []


def show(capsys, text: str) -> None:
    """Print to the real terminal (not captured); nothing is checked."""
    with capsys.disabled():
        print()
        print(text)


def emit(capsys, text: str) -> None:
    """Print a results table, and record it for the test's golden."""
    show(capsys, text)
    EMITTED.append(text)


def check_golden(path: Path, texts: list[str]) -> None:
    """Compare ``texts``, one blank line apart, with the file at ``path``
    (trailing spaces ignored).  A mismatch names the file, the first
    line that differs and the title of the table it is in."""
    __tracebackhide__ = True
    lines = [line.rstrip() for line in "\n\n".join(texts).splitlines()]
    if not path.exists():
        path.parent.mkdir(exist_ok=True)
        path.write_text("".join(line + "\n" for line in lines))
        raise AssertionError(f"{path}: golden written, re-run")
    golden = path.read_text().splitlines()
    if lines == golden:
        return
    at = next((i for i, (mine, theirs) in enumerate(zip(lines, golden))
               if mine != theirs), min(len(lines), len(golden)))
    title = next((golden[i] for i in range(min(at, len(golden) - 1), -1, -1)
                  if i == 0 or not golden[i - 1]), "")

    def line(of):
        return repr(of[at]) if at < len(of) else "(end of text)"
    raise AssertionError(
        f"{path}:{at + 1}: in table {title!r}\n"
        f"  golden:  {line(golden)}\n  printed: {line(lines)}\n"
        "(delete the file to re-baseline)")

