"""Regenerates expected.json: each workload's verdicts and final-row values at the default seed.

Run it only when a change is meant to alter trajectories or verdicts, and
say so in the change:

    python3 perfbench/make_expected.py
"""

import json
from pathlib import Path

import workloads as wl


def main():
    out_root = Path(__file__).resolve().parent / "out"
    expected = {}
    for name, workload in wl.WORKLOADS.items():
        config = wl.build_config(name, wl.DEFAULT_SEED)
        _, record, verdicts, *_ = (wl.run_cli(config, out_root) if workload.via_cli
                                   else wl.run_library(config))
        expected[name] = wl.snapshot(record, verdicts)
    wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
