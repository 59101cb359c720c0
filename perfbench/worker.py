"""One cold solve of one workload, in a fresh process.

    python3 worker.py MODE WORKLOAD SEED LAUNCHED

``MODE`` is ``setup`` (import and build the inputs, then stop), ``solve``
(also run the timed solve and the gate) or ``trace`` (a solve with the
per-layer wrappers of ``layers.py`` installed).  ``LAUNCHED`` is the
parent's ``time.perf_counter()`` just before it started this process; the
clock is system-wide, so set-up time includes interpreter start.  The last
line of standard output is a JSON object with the measurements.

During a ``solve``, an interval timer runs ``probe_s`` every
``SAMPLE_EVERY_S`` seconds of the solve.  The mean of these readings is the
speed the CPU actually ran at during the solve; ``run.py`` uses it to
rescale the solve's wall time to a reference speed.

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` directory.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time

PROBE_LOOPS = 20_000
SAMPLE_EVERY_S = 0.2


def probe_s(loops: int = PROBE_LOOPS) -> float:
    """Time of a fixed pure-Python loop: a reading of the CPU's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def main(mode: str, name: str, seed: int, launched: float) -> dict:
    import ellchow
    from ellchow.exactring import KERNEL_NAME

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.prepare(seed)
    out = {
        "setup_s": time.perf_counter() - launched,
        "kernel": KERNEL_NAME,
        "ellchow": ellchow.__file__,
    }
    if mode == "setup":
        return out

    trace = None
    samples: list[float] = []
    if mode == "trace":
        from layers import LayerTrace

        trace = LayerTrace()
        trace.install()
    else:
        signal.signal(signal.SIGALRM, lambda *_: samples.append(probe_s()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    t0 = time.perf_counter()
    result = workload.solve(inputs)
    out["wall_s"] = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["probe_during_s"] = sum(samples) / len(samples) if samples else probe_s()
    if trace is not None:
        out["layers"] = trace.metrics()
    out["checks"] = workload.check(inputs, result)
    return out


if __name__ == "__main__":
    mode, name, seed, launched = sys.argv[1:]
    print(json.dumps(main(mode, name, int(seed), float(launched))))
