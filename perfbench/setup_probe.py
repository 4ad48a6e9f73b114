"""Fresh-process set-up probe: import the library and build one workload's
inputs, then time the calibration kernel in this same process, and print
{"import_s", "inproc_s", "cal_s", "cal_total_s", "peak_rss_mb"} as JSON
(see calibration.child_report).

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import json
import sys

import workloads
from calibration import child_report


if __name__ == "__main__":
    result = workloads.setup_probe(sys.argv[1], int(sys.argv[2]))
    print(json.dumps(dict(result, **child_report())))
