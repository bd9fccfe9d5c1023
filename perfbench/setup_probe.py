"""Set-up probe: a fresh interpreter imports catforge from ./src and runs the
workload's warm-up calls.  run.py times the whole process.

    python3 perfbench/setup_probe.py OUT_DIR '[["open", "--preset", ...], ...]'
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from catforge import cli  # noqa: E402

if __name__ == "__main__":
    out_dir, calls = sys.argv[1], json.loads(sys.argv[2])
    for i, argv in enumerate(calls):
        rc = cli.main(argv + ["--out", os.path.join(out_dir, str(i))])
        if rc != 0:
            sys.exit(rc)
