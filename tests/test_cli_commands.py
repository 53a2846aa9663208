"""``repro bench`` / ``sweep`` / ``load`` / ``scale`` / ``multiregion``
/ ``chaos`` through ``main([...])``: bad input is one line on stderr
and exit 2, never a traceback; the scenario-script commands print their
report and replay it under ``--check-determinism``.  Every ``python -m repro``
command line in the docs and CI parses, and every command has a
``--help``.
"""

import pathlib
import re
import shlex

import pytest

from repro.cli import _parser, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md",
        ".github/workflows/ci.yml")
COMMANDS = ["examples", "run", "pbs", "spectrum", "protocols", "trace",
            "bench", "sweep", "chaos", "load", "scale",
            "multiregion", "selftest"]


@pytest.mark.parametrize("argv, cause", [
    (["bench", "--scenario", "nope"], "bench failed: unknown scenario 'nope'"),
    (["bench", "--quick", "--repeat", "0"], "bench failed: repeats must be"),
    (["bench", "--quick", "--workers", "0"], "bench failed: workers must be"),
    (["sweep", "--scenario", "nope"], "sweep failed: unknown scenario 'nope'"),
    (["sweep", "--workers", "0"], "sweep failed: workers must be"),
    (["scale", "--protocol", "nope"], "unknown protocol(s): nope"),
    (["load", "--storm", "--protocol", "nope"], "unknown protocol(s): nope"),
    (["load", "--protocol", "nope"], "unknown protocol(s): nope"),
    (["load", "--preset", "Z"], "unknown preset(s): Z"),
    (["multiregion", "--protocol", "nope"], "unknown protocol(s): nope"),
    (["load", "--nodes", "0"], "need at least one replica"),
    (["load", "--rate", "0"], "rate must be positive"),
    (["load", "--check-determinism"],
     "--check-determinism replays the --storm demo"),
    (["chaos", "--stack", "cached[write_through]:cached"],
     "stack 'cached[write_through]:cached': a cache over 'cached'"),
    (["chaos", "--stack", "sharded:cached[write_through]:quorum"],
     "stack 'sharded:cached[write_through]:quorum': sharded: must sit"),
    (["chaos", "--stack", "session[ryw]:quorum"],
     "stack 'session[ryw]:quorum': unknown layer 'session[ryw]'"),
    (["chaos", "--stack", "nope"], "stack 'nope': unknown protocol 'nope'"),
    (["chaos", "--plan", "nope"], "unknown plan 'nope'"),
    (["load", "--storm", "--nodes", "0"], "need at least one replica"),
])
def test_bad_input_is_one_line_and_exit_2(capsys, argv, cause):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(cause)
    assert len(captured.err.splitlines()) == 1


def test_cli_load_prints_the_open_loop_table(capsys):
    assert main(["load", "--duration", "300", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "open-loop poisson load: quorum" in out
    assert "goodput (ops/s)" in out


def test_cli_scale_replays_its_fingerprint(capsys):
    assert main(["scale", "--seed", "5", "--peak", "3", "--rate", "300",
                 "--check-determinism"]) == 0
    out = capsys.readouterr().out
    assert "no acked write lost: True" in out
    assert out.rstrip().endswith(
        "determinism: identical fingerprints on a second run"
    )


def test_cli_multiregion_replays_its_fingerprint(capsys):
    assert main(["multiregion", "--quick", "--protocol", "quorum",
                 "--check-determinism"]) == 0
    out = capsys.readouterr().out
    assert "quorum" in out and "PASS" in out
    assert "determinism: identical fingerprints on a second run" in out


def _logical_lines(text):
    """The lines of ``text``, each shell ``\\`` continuation and each
    YAML ``>`` folded block joined into one."""
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if line.rstrip().endswith(": >"):
            indent = len(line) - len(line.lstrip())
            folded = []
            while (index < len(lines) and lines[index].strip()
                   and len(lines[index]) - len(lines[index].lstrip()) > indent):
                folded.append(lines[index].strip())
                index += 1
            yield " ".join(folded)
            continue
        while line.endswith("\\") and index < len(lines):
            line = line[:-1] + " " + lines[index].strip()
            index += 1
        yield line


def _documented_argvs():
    """``(where, argv)`` per ``python -m repro`` (or ``repro.cli``)
    command line in the docs and CI.  A ``$name`` takes the value of the
    last ``name="..."`` line above it; a bare mention with no command
    is not a command line."""
    for doc in DOCS:
        variables = {}
        for line in _logical_lines((ROOT / doc).read_text(encoding="utf-8")):
            variables.update(re.findall(r'^\s*(\w+)="([^"]*)"', line))
            for match in re.finditer(r"python -m repro(?:\.cli)?\b([^`#]*)",
                                     line):
                words = re.sub(r"\$(\w+)", lambda m: variables[m.group(1)],
                               match.group(1))
                argv = shlex.split(words)
                if argv:
                    yield doc, argv


DOCUMENTED = list(_documented_argvs())


def test_the_docs_hold_command_lines():
    assert len(DOCUMENTED) >= 32
    assert {doc for doc, _argv in DOCUMENTED} >= {
        "README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"}


@pytest.mark.parametrize(
    "argv", [argv for _doc, argv in DOCUMENTED],
    ids=[f"{doc}:{' '.join(argv)}" for doc, argv in DOCUMENTED],
)
def test_documented_command_lines_parse(argv):
    assert _parser().parse_args(argv).command == argv[0]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_has_help(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith(
        f"usage: python -m repro {command}")


def test_help_lists_the_commands_in_order(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    listed = re.findall(r"^    (\w+) +\S", capsys.readouterr().out, re.M)
    assert listed == COMMANDS
