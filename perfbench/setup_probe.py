"""Fresh-process set-up of one workload, for the setup_s metric.

    python3 perfbench/setup_probe.py --workload NAME --seed N

Imports holisde, validates the workload's config and runs its once-per-run
set-up calls, then exits.  run.py times the whole process from spawn to
exit; the last stdout line is a JSON breakdown of the in-process parts.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import bootstrap


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    try:
        bootstrap.prepare()
        t0 = perf_counter()
        import holisde

        import_s = perf_counter() - t0
        bootstrap.check_imported(holisde)
    except (bootstrap.MissingSource, ImportError) as exc:
        print(f"setup_probe: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    t0 = perf_counter()
    cfg = holisde.RunConfig.from_json(wl.config(args.seed).to_json())
    config_s = perf_counter() - t0
    calls = wl.setup(cfg)
    print(json.dumps({"import_s": import_s, "config_s": config_s, "calls": calls}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
