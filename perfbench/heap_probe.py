"""Peak heap of one workload repetition in a fresh interpreter.

Imports platoonsim and builds the workload's config, then starts
tracemalloc and runs one checked repetition: the interpreter's first, so
lazily imported modules and first-run caches count, as in a user's run.
Prints the peak traced memory in bytes; run.py reports it as
``peak_heap_mb``.  Exits with the problems found when a check of the
repetition fails.

Usage: python3 perfbench/heap_probe.py <workload> <seed>
"""

import sys
import tracemalloc
from pathlib import Path

import workloads  # imports platoonsim from the checkout's src/
from tracer import Tracer

name, seed = sys.argv[1], int(sys.argv[2])
config = workloads.build_config(name, seed)
with Tracer() as tracer:
    workloads.time_runs(tracer)
    tracemalloc.start()
    outcome = workloads.run_once(name, config, seed, Path(__file__).resolve().parent / "out",
                                 tracer)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
if outcome.problems:
    sys.exit("; ".join(outcome.problems))
print(peak)
