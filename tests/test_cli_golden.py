"""Golden stdout, stderr, exit codes and output files of the cell commands.

``tests/data/cli_golden.json`` holds what ``repro run``, ``tracesim``,
``ptsim`` and ``verify`` printed at scale 0.05, seed 0, captured from
the commands as they were before they built ``ExperimentSpec`` lists
and ran them through ``execute_spec``.  ``OUT`` in a case's argv and
stdout stands for the file the case writes (a ``--trace-out`` log or a
``--metrics-out`` registry); the file is pinned as its first line plus
the SHA-256 of the rest, so a byte-identical file matches both.

One difference is deliberate: ``tracesim --metrics --trace-out`` logs
the full-cache run under the label ``execute_spec`` gives every
information-source run (``Mig/Rep``) where the hand-built command used
the metric's name (``FC``).  The table rows still name the metric.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text()
)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_command_output_matches_golden(case, tmp_path, capsys):
    want = GOLDEN[case]
    out = str(tmp_path / "out")
    argv = [out if arg == "OUT" else arg for arg in want["argv"]]
    code = main([*argv, "--scale", "0.05", "--seed", "0"])
    captured = capsys.readouterr()
    assert captured.out.replace(out, "OUT") == want["stdout"]
    assert captured.err == want["stderr"]
    assert code == want["exit"]
    if "log_head" in want:
        head, _, body = Path(out).read_bytes().partition(b"\n")
        assert head.decode() == want["log_head"]
        assert hashlib.sha256(body).hexdigest() == want["log_body_sha256"]
