"""Rewrite reference.json from one pass of each workload on the unshifted inputs.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are known to be right.  Every
failure the gates report on that pass is recorded as expected; review the
`expected_failures` of the new file before committing it.
"""

from __future__ import annotations

import json
import shutil
import sys

import gates
import run
import workloads


def main() -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        shutil.rmtree(run.WORK, ignore_errors=True)
        run.WORK.mkdir(parents=True)
        try:
            ops = workloads.build(workload, None, run.WORK)
            job = run.WORK / "job.json"
            job.write_text(json.dumps(ops))
            with run.Worker(job, "plain") as worker:
                observables = worker.run_pass(0)[0]["observables"]
        finally:
            shutil.rmtree(run.WORK, ignore_errors=True)
        judged = gates.judge(ops, observables, {})
        reference[workload] = {
            "observables": observables,
            "expected_failures": {op_id: reasons for op_id, reasons in judged if reasons},
        }
        print(workload, reference[workload]["expected_failures"], file=sys.stderr)
    gates.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
