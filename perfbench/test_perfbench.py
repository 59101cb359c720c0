"""Tests of the benchmark itself: its declared metrics, the determinism of
its per-layer counts and the refusal to report timings for wrong results.

    python3 -m pytest perfbench

Each test starts real workers, so the suite takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run


def test_benchmark_json_declares_the_printed_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == [run.HERE.name]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_layer_counts_do_not_depend_on_the_hash_seed(monkeypatch):
    counts = []
    for hash_seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        out = run.spawn("trace", "sweep5", 0, time.perf_counter() + run.RUN_LIMIT_S)
        assert all(ok for _, ok in out["checks"]), out["checks"]
        layers = out["layers"]
        counts.append(
            [
                layers["lattice.rows_inserted"],
                layers["presentation.lattice_builds"],
                layers["lattice.stored_nnz"],
            ]
        )
    assert counts[0] == counts[1]
    assert min(counts[0]) > 0


def _copy_benchmark(tmp_path, with_sources: bool):
    bench = tmp_path / run.HERE.name
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    if with_sources:
        (tmp_path / "src").symlink_to(run.SRC, target_is_directory=True)
    return bench


def _run(bench, *args):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=bench.parent,
        capture_output=True,
        text=True,
        timeout=run.RUN_LIMIT_S + 10,
    )


def test_wrong_expected_value_suppresses_timings(tmp_path):
    bench = _copy_benchmark(tmp_path, with_sources=True)
    expected = json.loads((bench / "expected.json").read_text())
    expected["g0six"]["hilbert"][-1] += 1
    (bench / "expected.json").write_text(json.dumps(expected))

    proc = _run(bench, "--workload", "g0six", "--seed", "0", "--seconds", "1")

    assert proc.returncode == 1
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert all(m["unit"] != "s" for m in result["metrics"].values())
    assert not any(line.split()[-1:] == ["s"] for line in lines[:-1])


def test_refuses_to_run_without_sources(tmp_path):
    bench = _copy_benchmark(tmp_path, with_sources=False)

    proc = _run(bench, "--workload", "g0six", "--seed", "0", "--seconds", "1")

    assert proc.returncode == 2
    assert proc.stdout == ""
