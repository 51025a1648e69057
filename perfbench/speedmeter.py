"""Host speed meter: samples how fast the benchmark's CPU runs fixed work.

On the shared host the benchmark was written on, the speed of one virtual
CPU drifts by a third or more within minutes, with no steal time reported,
and that moves every timing of a run together. The meter is a process on
the same CPU as the workload. Every PERIOD_S it runs `probe`, a fixed mix
of interpreter work and a numpy top-k of about a millisecond, once to
refill its caches and then once timed, so it takes about 2% of the CPU.
run.py multiplies each timed interval by the speed the meter saw during it
(`speed`), reporting times as they would be on a host where `probe` takes
NOMINAL_S.

    python3 perfbench/speedmeter.py OUT.json   # prints "ready"; stops when stdin closes

On exit it writes [[start, end, cpu_s], ...] of every timed probe: start
and end in time.monotonic() seconds, which every process on the machine
shares, and the probe's own CPU time. CPU time leaves out the time the
scheduler gives the workload while the probe waits, and still counts the
host's slowness, which the guest cannot see.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import time

import numpy as np

PERIOD_S = 0.1
NOMINAL_S = 1.0e-3
MIN_SAMPLES = 5

_words = [f"w{i % 97}x{i % 13}" for i in range(1500)]
_matrix = np.random.default_rng(0).standard_normal((8000, 64)).astype(np.float32)
_query = np.ones(64, dtype=np.float32)


def probe() -> int:
    """The fixed work that one sample times."""
    counts: dict = {}
    for word in _words:
        key = word.upper()
        counts[key] = counts.get(key, 0) + len(key)
    text = " ".join(sorted(counts))
    scores = _matrix @ _query
    top = np.argsort(-scores, kind="stable")[:10]
    return len(text) + int(top[0])


def speed(samples: list, start: float, end: float) -> float:
    """NOMINAL_S over the median probe time in [start, end]; below 1 when the
    host is slower. Uses the MIN_SAMPLES probes nearest the interval when it
    holds fewer, as a set-up of 0.3 s does."""
    inside = [cpu for s, e, cpu in samples if start <= s and e <= end]
    if len(inside) < MIN_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda sample: abs((sample[0] + sample[1]) / 2 - middle))
        inside = [cpu for _, _, cpu in nearest[:MIN_SAMPLES]]
    return NOMINAL_S / sorted(inside)[len(inside) // 2]


class SpeedMeter:
    """The meter process; `stop()` ends it, waits for it and returns its samples."""

    def __init__(self, out, env: dict):
        self.out = out
        self.proc = subprocess.Popen([sys.executable, __file__, str(out)], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("speed meter did not start")

    def stop(self) -> list:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        try:
            with open(self.out) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return []


def main() -> None:
    for _ in range(20):  # warm up before the first sample
        probe()
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        probe()  # refill the caches the workload evicted; time only the second run
        start, cpu = time.monotonic(), time.process_time()
        probe()
        samples.append((start, time.monotonic(), time.process_time() - cpu))
    with open(sys.argv[1], "w") as handle:
        json.dump(samples, handle)


if __name__ == "__main__":
    main()
