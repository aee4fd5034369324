"""Re-record the seed-2024 outputs that run.py compares against.

    python3 perfbench/record.py

Runs each workload's entry point once with master_seed 2024 and writes the
parsed outputs to perfbench/expected_2024.json.  Re-record only when a
change is meant to move the numbers by more than round-off, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import bootstrap


def main() -> int:
    root = bootstrap.prepare()
    import workloads

    work = root / ".perfbench_work" / "record"
    record = {}
    try:
        for name, wl in workloads.WORKLOADS.items():
            work.mkdir(parents=True, exist_ok=True)
            _, result = wl.run(wl.config(workloads.RECORD_SEED), work, workloads.null_span)
            problems = wl.check(result)
            if problems:
                print(f"{name}: refusing to record failing outputs: {problems}", file=sys.stderr)
                return 1
            record[name] = result
            print(f"{name}: recorded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.RECORD_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
