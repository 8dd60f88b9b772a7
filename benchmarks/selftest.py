"""Self-test of the benchmark, kept out of the tier-1 suite by its file name.

    python3 -m pytest benchmarks/selftest.py -q

Runs every workload at the tiny size, traced and untraced, and checks that
every metric is emitted, that wrong outputs count as failed passes, that
the inputs follow the seed, and that the benchmark refuses to run without
the vibroprint sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
THROUGHPUT = {
    "design-grid": "grid_cells_per_s",
    "analyze-long": "audio_s_per_s",
    "analyze-many": "audio_s_per_s",
    "analyze-spectra": "audio_s_per_s",
}
FACTS = {"nproc", "python", "numpy", "scipy", "vibroprint", "git_commit", "source_sha256", "seed", "platform"}


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_and_record(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict, str]:
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((run.RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record, proc.stdout


def test_spec_matches_the_emitted_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    assert [m["unit"] for m in SPEC["per_layer"]] == list(LAYER_METRICS.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics(workload):
    result, record, stdout = result_and_record(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    emitted = {"wall_s_p50", "wall_ref_p50", "setup_s", "peak_rss_mb", "error_rate", "reference_s_p50", THROUGHPUT[workload]}
    assert set(record["metrics"]) == emitted
    assert record["metrics"]["error_rate"]["value"] == 0.0
    assert all(f"  {name} " in stdout for name in emitted)
    assert set(record["facts"]) == FACTS and record["facts"]["seed"] == 3


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_layer_metrics(workload):
    result, record, stdout = result_and_record(workload, trace=1)
    assert result["correct"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(values) == list(LAYER_METRICS)
    assert all(f"  {name} " in stdout for name in LAYER_METRICS)
    assert values["cli.run.busy_s"] > values["cli.run.self_s"] > 0
    size = workloads.TINY_WORKLOADS[workload]
    if workload == "design-grid":
        # Two scans per material today: the region, then the layouts' repeat of it.
        assert values["design.feasible_region.calls"] == 2 * len(size.materials)
        assert values["beams.frequency_bounds.calls"] == values["design.cells_scanned"]
        assert values["signals.spectrum.calls"] == 0
    else:
        assert values["simulate.slide_signal.calls"] == size.recordings
        assert values["dataset.read_recording_bundle.calls"] == size.recordings
        assert values["signals.spectrum.calls_per_recording"] == (2.0 if size.write_spectra else 1.0)
        assert (values["signals.write_spectrum_csv.calls"] > 0) == size.write_spectra
        assert values["cli.pool.parallelism"] >= 1.0
        assert values["design.feasible_region.calls"] == 0
    assert (run.RESULTS / f"{workload}.spans.csv").is_file()


def test_truncated_auc_csv_counts_as_failed_passes(monkeypatch, capsys):
    vp = run.import_vibroprint()
    original = vp.cli.run

    def run_then_truncate(argv):
        code = original(argv)
        auc = Path(argv[argv.index("--output-dir") + 1]) / "auc.csv"
        auc.write_text("".join(auc.read_text().splitlines(keepends=True)[:-1]))
        return code

    monkeypatch.setattr(vp.cli, "run", run_then_truncate)
    argv = ["--workload", "analyze-long", "--seed", "4", "--seconds", "0.3", "--trace", "0", "--size", "tiny"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    record = json.loads((run.RESULTS / "analyze-long-seed4-trace0.json").read_text())
    assert record["metrics"]["error_rate"]["value"] == 1.0
    assert any("auc.csv has" in problem for problem in record["passes"][0]["problems"])


def test_inputs_follow_the_seed(tmp_path):
    vp = run.import_vibroprint()
    size = workloads.TINY_WORKLOADS["analyze-many"]
    digests = [size.digest(size.setup(vp, seed, tmp_path / str(i))) for i, seed in enumerate((5, 5, 6))]
    assert digests[0] == digests[1] != digests[2]


def test_clipping_fails_the_generator(tmp_path, monkeypatch):
    vp = run.import_vibroprint()
    monkeypatch.setattr(workloads, "BASE_AMPLITUDES", (0.5, 0.25))
    with pytest.raises(UserWarning, match="clipped"):
        workloads.TINY_WORKLOADS["analyze-long"].setup(vp, 1, tmp_path)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("analyze-long", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
