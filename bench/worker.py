"""The process of an in-process workload (chain_sweep or calibration).

Started by run.py, which times it from spawn to the ``ready`` instant it
reports: interpreter start, ``import ionchain`` and input generation.  With
``--setup-only`` it stops there; otherwise it runs the closed loop and
prints its raw op records as the last line of standard output.
"""

import argparse
import json
import sys
import time

import harness
import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.IN_PROCESS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = workloads.make(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    stats = harness.measure(workload, args.seconds)
    record = {"ready": ready}
    record.update(vars(stats))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
