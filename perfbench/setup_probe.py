"""Times one benchmark set-up in a fresh interpreter.

Set-up is importing platoonsim, building and validating the workload's
config, and finishing a one-step `run_scenario` (engine construction and
observer gain synthesis included).  Prints the set-up time in seconds and
the machine-speed factor measured right after it in the same process;
run.py starts this several times and reports the median normalised time as
``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

start = time.perf_counter()

import dataclasses  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports platoonsim from the checkout's src/)

config = workloads.build_config(sys.argv[1], int(sys.argv[2]))
workloads.simulator.run_scenario(dataclasses.replace(config, duration=config.step))
elapsed = time.perf_counter() - start

from calibration import speed_factor  # noqa: E402

print(elapsed, statistics.median(speed_factor() for _ in range(3)))
