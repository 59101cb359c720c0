"""Benchmark of ellchow: cold solves of named workloads, gated on frozen
expected values.

    python3 perfbench/run.py --workload g0six --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run it from the root of a checkout; it needs nothing but the checkout's
``src`` directory.  Workloads (see ``workloads.py``): ``g0six``, ``sweep5``,
``torsion5``, ``lift6``, or ``all`` for each in turn.

Every solve runs cold, in a fresh worker process (``worker.py``), one worker
at a time: a closed loop with one caller, where the next solve starts after
the previous one ends.  A timed run (``--trace 0``) runs solves until the
next one would end after ``--seconds`` (at least one), with ``SETUP_RUNS``
workers that only set up before them and as many after them, and reports
medians over the run:

* ``wall_s`` — time of a cold solve whose results passed the gate;
* ``setup_s`` — worker start, ``import ellchow`` and building the inputs;
* ``peak_rss_mb`` — peak resident memory of a solving worker;
* ``pass_ratio`` — checks passed over checks attempted.

Both times are rescaled to a reference CPU speed: ``t * REFERENCE_PROBE_S /
p``, where ``p`` is the time of the fixed loop ``worker.probe_s`` measured
while ``t`` was measured: sampled every 0.2 s during a solve, and just
before and after a set-up.  On a shared host the CPU runs a fifth to a half
slower for tens of seconds to minutes at a time; that moves unscaled times
between runs by more than any bound this benchmark could keep, and the
rescaling removes most of it.  The unscaled medians are printed too, as
``unscaled.wall_s`` and ``unscaled.setup_s``, and every worker's raw
readings are kept in the run's record.

A traced run (``--trace 1``) runs one solve with the wrappers of
``layers.py`` installed and reports the per-layer metrics of ``PER_LAYER``
and its own wall time, ``trace.wall_s``.  With ``--workload all --trace 1``
both runs are made and the tracing overhead, ``trace.wall_s`` minus
``unscaled.wall_s``, is printed.

Each result is checked against ``expected.json``.  If any check fails, or a
worker fails, no timing is printed, the result line says ``"correct":
false`` and the exit status is 1.  The fixed loop is also timed in this
process before and after every worker and recorded with the run, so slow
phases of the machine stay visible next to the timings.  The lines before
the last print every metric by name and unit, and a ``record`` line with
the kernel, Python version, CPU count, commit, seed and probes; numbers
from different kernels must not be compared.  The last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import probe_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

WORKLOAD_NAMES = ("g0six", "sweep5", "torsion5", "lift6")
SETUP_RUNS = 5
RUN_LIMIT_S = 170.0  # every run ends well within three minutes
REFERENCE_PROBE_S = 0.002  # worker.probe_s() at the reference CPU speed

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

# Per-layer metric -> unit.  The comment names the workloads on which the
# metric should move wall_s, then (after "|") those on which it barely should.
PER_LAYER = {
    "lattice.rows_inserted": "count",  # g0six lift6 | torsion5
    "lattice.insert_s": "s",  # g0six lift6 | torsion5
    "lattice.useful_ratio": "ratio",  # g0six lift6 | torsion5
    "lattice.stored_nnz": "count",  # g0six lift6 | torsion5
    "lattice.max_coeff_bits": "bits",  # g0six lift6 | torsion5
    "lattice.residue_s": "s",  # sweep5 lift6 | g0six
    "lattice.smith_s": "s",  # torsion5 | g0six sweep5 lift6
    "lattice.smith_rows": "count",  # torsion5 | g0six sweep5 lift6
    "presentation.vector_calls": "count",  # sweep5 | torsion5
    "presentation.vector_s": "s",  # sweep5 | torsion5
    "presentation.lattice_self_s": "s",  # sweep5 | torsion5
    "presentation.lattice_builds": "count",  # sweep5 | torsion5
    "presentation.divide_calls": "count",  # sweep5 lift6 | g0six
    "presentation.divide_self_s": "s",  # sweep5 lift6 | g0six
    "presentation.reduce_calls": "count",  # sweep5 lift6 | g0six
    "presentation.normal_form_s": "s",  # sweep5 lift6 | g0six
    "strata.tail_models": "count",  # sweep5 lift6 torsion5 | g0six
    "strata.restrict_s": "s",  # sweep5 lift6 torsion5 | g0six
    "strata.lift_s": "s",  # sweep5 lift6 torsion5 | g0six
    "strata.ctop_s": "s",  # sweep5 lift6 torsion5 | g0six
    "patch.classes": "count",  # sweep5 torsion5 | g0six
    "patch.class_p50_s": "s",  # sweep5 torsion5 | g0six
    "patch.class_p80_s": "s",  # sweep5 torsion5 | g0six
    "modular.qstable_self_s": "s",  # torsion5 | g0six sweep5 lift6
    "modular.torsion_s": "s",  # torsion5 | g0six sweep5 lift6
    "keel.build_s": "s",  # g0six |
    "trace.wall_s": "s",  # the traced solve's own wall time
}


class RunResult:
    """Checks and metrics of one run of one workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.unscaled: dict[str, float] = {}

    def gate(self, checks: list[tuple[str, bool]]) -> None:
        self.attempted += len(checks)
        self.failures += [label for label, ok in checks if not ok]

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failures


def machine_probe_s() -> float:
    """The fixed loop's time in this process: the median of five readings."""
    return statistics.median(probe_s() for _ in range(5))


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def spawn(mode: str, name: str, seed: int, deadline: float) -> dict:
    """Run one worker and return its measurements; a worker that fails
    returns a single failed check instead."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe_before = machine_probe_s()
    launched = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, name, str(seed), repr(launched)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired:
        return {"checks": [(f"{mode} worker finished in time", False)]}
    probe_after = machine_probe_s()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return {"checks": [(f"{mode} worker exit status {proc.returncode}", False)]}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(out["ellchow"]).resolve().parent.parent != SRC.resolve():
        return {"checks": [(f"ellchow imported from {out['ellchow']}", False)]}
    out.setdefault("checks", [])
    out["probe_s"] = [probe_before, probe_after]
    return out


def keep_record(record: dict, workers: list[dict]) -> None:
    """Add the kernel, and each worker's timings and machine probes, to the
    record of a run."""
    record["kernel"] = workers[0].get("kernel")
    record["workers"] = [
        {
            k: w[k]
            for k in ("setup_s", "wall_s", "probe_during_s", "peak_rss_mb", "probe_s")
            if k in w
        }
        for w in workers
    ]
    probes = [p for w in workers for p in w.get("probe_s", ())]
    if probes:
        record["probe_s_median"] = statistics.median(probes)


def rescaled(seconds: float, probe: float) -> float:
    """A time measured while the fixed loop took ``probe`` seconds, at the
    reference speed."""
    return seconds * REFERENCE_PROBE_S / probe


def timed_run(name: str, seed: int, seconds: int, record: dict) -> RunResult:
    result = RunResult()
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups: list[dict] = []

    def set_up_repeatedly() -> None:
        for _ in range(SETUP_RUNS):
            setups.append(spawn("setup", name, seed, deadline))
            result.gate(setups[-1]["checks"])

    set_up_repeatedly()
    solves: list[dict] = []
    start = time.perf_counter()
    while not result.failures:
        t0 = time.perf_counter()
        solves.append(spawn("solve", name, seed, deadline))
        result.gate(solves[-1]["checks"])
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > seconds:
            break
    set_up_repeatedly()
    workers = setups + solves
    keep_record(record, workers)
    passed = result.attempted - len(result.failures)
    values = {"pass_ratio": passed / max(result.attempted, 1)}
    if result.correct:
        values["wall_s"] = statistics.median(
            rescaled(w["wall_s"], w["probe_during_s"]) for w in solves
        )
        values["setup_s"] = statistics.median(
            rescaled(w["setup_s"], statistics.fmean(w["probe_s"])) for w in workers
        )
        values["peak_rss_mb"] = statistics.median(w["peak_rss_mb"] for w in solves)
        result.unscaled = {
            "wall_s": statistics.median(w["wall_s"] for w in solves),
            "setup_s": statistics.median(w["setup_s"] for w in workers),
        }
    result.metrics = {k: (values[k], u) for k, u in END_TO_END.items() if k in values}
    return result


def traced_run(name: str, seed: int, record: dict) -> RunResult:
    result = RunResult()
    out = spawn("trace", name, seed, time.perf_counter() + RUN_LIMIT_S)
    result.gate(out["checks"])
    keep_record(record, [out])
    if result.correct:
        layers = dict(out["layers"], **{"trace.wall_s": out["wall_s"]})
        result.metrics = {k: (layers[k], PER_LAYER[k]) for k in PER_LAYER}
    return result


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> RunResult:
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
    }
    if trace:
        result = traced_run(name, seed, record)
    else:
        result = timed_run(name, seed, seconds, record)
    for label in result.failures:
        print(f"{name} FAILED {label}")
    if not result.correct:
        print(f"{name}: results differ from the expected values; no timing reported")
    for metric, (value, unit) in result.metrics.items():
        print(f"{name} {metric} {value:.6g} {unit}")
    for metric, value in result.unscaled.items():
        print(f"{name} unscaled.{metric} {value:.6g} s")
    print("record " + json.dumps(record))
    return result


def result_line(result: RunResult, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": len(result.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ellchow" / "__init__.py").is_file():
        print(f"no ellchow sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(result_line(result, result.metrics))
        return 0 if result.correct else 1

    total = RunResult()
    metrics: dict[str, tuple[float, str]] = {}
    for name in WORKLOAD_NAMES:
        runs = [run_workload(name, args.seed, args.seconds, False)]
        if args.trace:
            runs.append(run_workload(name, args.seed, args.seconds, True))
        for r in runs:
            total.attempted += r.attempted
            total.failures += [f"{name}: {label}" for label in r.failures]
            metrics.update({f"{name}.{k}": v for k, v in r.metrics.items()})
        if args.trace and all(r.correct for r in runs):
            overhead = metrics[f"{name}.trace.wall_s"][0] - runs[0].unscaled["wall_s"]
            metrics[f"{name}.trace.overhead_s"] = (overhead, "s")
            print(f"{name} trace.overhead_s {overhead:.6g} s")
    print(result_line(total, metrics))
    return 0 if total.correct else 1


if __name__ == "__main__":
    sys.exit(main())
