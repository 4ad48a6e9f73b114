"""Run one psiapprox CLI command, then time the calibration kernel.

    python3 perfbench/cli_child.py SPANS.jsonl.gz|- verify theorem1 --alpha 1 ...

Every cli-cold command runs through this wrapper: stdout and the exit code
are the command's own.  When the command ends, the calibration report
(calibration.child_report) goes to stderr as the line
`perfbench-calibration {json}`.  With a spans path instead of `-`, the
command runs under the span tracer and its spans go to that file.
"""

import json
import sys
import time

from calibration import child_report

REPORT_PREFIX = "perfbench-calibration "


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import psiapprox.cli
    import_s = time.perf_counter() - t0
    tracer = None
    if spans_path != "-":
        from spans import Tracer
        tracer = Tracer().install()
        tracer.step = 0
    try:
        return psiapprox.cli.main(argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_path, {"import_s": import_s, "argv": argv})
        print(REPORT_PREFIX + json.dumps(child_report()), file=sys.stderr,
              flush=True)


if __name__ == "__main__":
    sys.exit(main())
