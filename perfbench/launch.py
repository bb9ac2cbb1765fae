"""Run one command; report its exit code, wall time and resource usage.

    python3 perfbench/launch.py REPORT.json STDOUT STDERR TIMEOUT_S -- COMMAND...

Linux carries a process's peak RSS across ``exec``, so a command started
straight from the benchmark process would report at least the benchmark's
own peak as its ``ru_maxrss``.  Started from this small interpreter, the
command's ``ru_maxrss`` is its own.  ``os.wait4`` gives the usage of the
command together with the worker processes it reaped.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(argv) -> int:
    report_path, stdout_path, stderr_path, timeout_s, sep, *command = argv
    if sep != "--" or not command:
        print(__doc__, file=sys.stderr)
        return 2
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        watchdog = threading.Timer(float(timeout_s), proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({
            "exit_code": proc.returncode,
            "wall_s": wall_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        }, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
