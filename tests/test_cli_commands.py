"""``repro bench`` / ``sweep`` / ``load`` / ``scale`` / ``multiregion``
through ``main([...])``: bad input is one line on stderr and exit 2,
never a traceback; the scenario-script commands print their report and
replay it under ``--check-determinism``.
"""

import pytest

from repro.cli import main


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
    (["load", "--protocol", "bayou"],
     "bayou replicas are direct-attach: service_time would"),
    (["load", "--storm", "--protocol", "bayou"],
     "bayou replicas are direct-attach: service_time, queue_limit, "
     "admission_rate, admission_burst would"),
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
