"""Regenerate perfbench/reference.json from one seed-0 invocation per workload.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the physics; the values are the
seed-0 outputs that run.py compares against.
"""

import json
import os
import sys

import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    from catforge import cli

    import checks

    os.makedirs(run.WORK, exist_ok=True)
    reference = {}
    jobs = [(name, run.workload_calls(name, 0)) for name in run.WORKLOADS]
    jobs += [(f"{name}/full", calls) for name, calls in run.FULL_CALLS.items()]
    for name, calls in jobs:
        sample = run.invoke(cli, checks, calls, None, 0)
        if sample.failed:
            print(f"{name}: {sample.inspection.errors}", file=sys.stderr)
            return 1
        # the fig2 goldens are fixed by acceptance criterion 1, not regenerated
        reference[name] = {k: v for k, v in sample.inspection.values.items() if ".golden." not in k}
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
