#!/usr/bin/env python
"""Print every (algorithm, mode) plan of one benchmark workload as JSON:
per operator its kind (basic op, hand-coded operator, or template,
variant, covered hops and generated-source hash), plus a hash of the
results and the plans MPSkipEnum evaluated, on the inputs
``perfbench/workloads.py`` builds from ``--seed``.

    python jobs/plan_signatures.py --workload mnist-cold --seed 7 > a.json

Run it on two checkouts and diff the outputs: a line differs exactly
where a plan, a generated source or a result differs. The local
workloads run the three Gen policies; ``dist-40k`` starts a local
SparkSession and runs all five modes.
"""
import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    src = str(ROOT / "src")
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    from workloads import MODES, WORKLOADS

    from repro.experiments import plan_signatures

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    dist = args.workload == "dist-40k"
    if dist:
        # the Spark workers import repro too
        paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        os.environ["PYTHONPATH"] = os.pathsep.join(paths)
        os.environ["PYSPARK_PYTHON"] = sys.executable
        os.environ.setdefault(
            "PYSPARK_SUBMIT_ARGS",
            f"--master local[{len(os.sched_getaffinity(0))}] "
            f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '2g')} "
            "--conf spark.driver.host=127.0.0.1 "
            "--conf spark.ui.enabled=false pyspark-shell",
        )
    modes = list(MODES) if dist else ["gen", "fa", "fnr"]
    wl = WORKLOADS[args.workload]()
    wl.start()
    try:
        inputs = wl.setup(args.seed)
        out = plan_signatures(inputs.jobs, wl.engine, modes)
        for x in inputs.held:
            x.unpersist()
    finally:
        wl.close()
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
