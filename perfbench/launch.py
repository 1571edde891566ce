"""Run one command and report its wall time, CPU time and peak memory.

Usage: ``python3 -S launch.py <report file> <program> [args...]``

The command inherits this process's stdout and stderr; the report is one
JSON object.  Linux keeps ``ru_maxrss`` across ``execve``, so a child
spawned straight from ``run.py`` would report at least that
process's own peak memory.  Spawned from this small process, it reports
its own peak and that of the pool workers it waited for.
"""

import json
import os
import sys
import time


def main() -> None:
    report, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0,
                   "exit_code": os.waitstatus_to_exitcode(status)}, fh)


if __name__ == "__main__":
    main()
