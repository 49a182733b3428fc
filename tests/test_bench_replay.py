"""The benchmark's traced replay of ``report`` writes the same bytes as the job.

``perfbench/run.py --trace 1`` replays a sweep workload's ``report`` job one
public call at a time and fails unless every file the replay writes is
byte-identical to the job's. This runs both sweep workloads at the smoke
test's tiny sizes, so a change to ``report`` that the replay no longer
matches fails here, in seconds, rather than in a traced benchmark run.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import replay  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

from xlalign.cli import main  # noqa: E402

TINY_DOCS = (("matthew", 40), ("john", 30))


@pytest.mark.parametrize("name", ["sweep_dense", "sweep_ragged"])
def test_replay_writes_the_bytes_of_the_report_job(tmp_path, name):
    workload = WORKLOADS[name]
    sizes = dataclasses.replace(
        workload.sizes, docs=TINY_DOCS, dim=8, words_per_verse=(3, 6), concepts=60
    )
    # the smoke test's seed: at 8 dimensions some seeds give a pair whose
    # margin is degenerate, and the job then exits 1 or 2
    manifest = generate(workload, 3, tmp_path / "inputs", sizes)
    for argv in manifest["jobs"]:
        assert main(argv) == 0
    out = Path(manifest["out"])

    replay_out = tmp_path / "replay_out"
    replay.replay_report(replay.Tracer(), manifest["config"], replay_out)
    written = {p.relative_to(replay_out): p.read_bytes() for p in replay_out.rglob("*")}
    assert written
    for relative, data in written.items():
        assert (out / relative).read_bytes() == data, relative
