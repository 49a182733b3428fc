"""Smoke test of the benchmark itself at a tiny size.

    python3 -m pytest perfbench/test_smoke.py      # from the repository root

Checks that one seed always generates the same inputs, that the oracle
accepts the program's real outputs and rejects deliberately perturbed ones,
and that BENCHMARK.json names exactly the workloads and metrics the
benchmark prints.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402
from xlalign.cli import main as xlalign_main  # noqa: E402
from xlalign.pipeline import REPORT_SCHEMAS  # noqa: E402

TINY_DOCS = (("matthew", 40), ("john", 30))


def tiny(name: str):
    workload = WORKLOADS[name]
    sizes = workload.sizes
    if sizes.embeddings:
        return workload, dataclasses.replace(sizes, docs=TINY_DOCS, dim=8, words_per_verse=(3, 6), concepts=60)
    return workload, dataclasses.replace(
        sizes, languages=12, docs=TINY_DOCS, concepts=60, typology_missing=1, zero_shot=4, unknown_order=1
    )


def run_jobs(manifest: dict) -> Path:
    out = Path(manifest["out"])
    out.mkdir(parents=True, exist_ok=True)
    for argv in manifest["jobs"]:
        assert xlalign_main(argv) == 0
    return out


def files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(tmp_path, name):
    workload, sizes = tiny(name)
    generate(workload, 5, tmp_path / "a", sizes)
    generate(workload, 5, tmp_path / "b", sizes)
    generate(workload, 6, tmp_path / "c", sizes)
    first = files(tmp_path / "a")
    assert first == files(tmp_path / "b")
    assert first != files(tmp_path / "c")


def _perturb_csv_cell(path: Path, column: str) -> tuple[str, str]:
    """Scale one cell of the first data row by 1 + 1e-6; returns that row's pair."""
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-6))
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return cells[0], cells[1]


@pytest.mark.parametrize("name", ["sweep_dense", "sweep_ragged"])
def test_oracle_accepts_outputs_and_rejects_a_perturbed_metric(tmp_path, name):
    workload, sizes = tiny(name)
    manifest = generate(workload, 3, tmp_path, sizes)
    out = run_jobs(manifest)
    pairs = oracle.sample_pairs(manifest, np.random.default_rng(0), 99)
    checks = oracle.Checks()
    oracle.check_outputs(checks, manifest, out, REPORT_SCHEMAS)
    oracle.check_pair_metrics(checks, manifest, out, pairs)
    assert checks.failures == [] and checks.attempted > 0

    _perturb_csv_cell(out / "metrics.csv", "svg")
    checks = oracle.Checks()
    oracle.check_pair_metrics(checks, manifest, out, pairs)
    assert len(checks.failures) == 1 and "svg" in checks.failures[0]


def test_oracle_rejects_perturbed_statistics(tmp_path):
    workload, sizes = tiny("analyze_many")
    manifest = generate(workload, 3, tmp_path, sizes)
    out = run_jobs(manifest)
    pairs = oracle.sample_pairs(manifest, np.random.default_rng(0), 5)
    checks = oracle.Checks()
    oracle.check_outputs(checks, manifest, out, REPORT_SCHEMAS)
    oracle.check_overlaps(checks, manifest, out, pairs)
    oracle.check_statistics(checks, out, Path(manifest["metrics_csv"]), np.random.default_rng(0), 4)
    assert checks.failures == []

    corr = json.loads((out / "analysis_corr.json").read_text())
    for per_feature in corr["pearson"].values():
        for feature, r in per_feature.items():
            if r is not None:
                per_feature[feature] = r * (1 + 1e-6)
    (out / "analysis_corr.json").write_text(json.dumps(corr))
    perturbed = _perturb_csv_cell(out / "features.csv", "char_overlap")
    checks = oracle.Checks()
    oracle.check_overlaps(checks, manifest, out, [perturbed])
    oracle.check_statistics(checks, out, Path(manifest["metrics_csv"]), np.random.default_rng(0), 4)
    assert any("char_overlap" in f for f in checks.failures)
    assert any("pearson" in f for f in checks.failures)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # every listed workload exists with the same reason; analyze_many is runnable but unlisted
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values() if w.name != "analyze_many"
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = run.layer_metrics([], None, 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: unit for k, (_, unit) in layers.items()}


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep_dense", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
