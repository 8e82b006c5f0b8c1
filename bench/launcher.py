"""Start benchmark jobs from a small process so each job's peak RSS is its own.

When a process execs, Linux folds the peak resident set of the memory it
had before the exec into its ru_maxrss.  A job spawned straight from
run.py (numpy loaded, CSVs parsed) would therefore report at least
run.py's own peak.  This process imports only the standard library;
run.py starts it once and sends one JSON request per line,

    {"argv": [...], "log": "path", "timeout": seconds}

and reads back one line {"rc": ..., "wall": ..., "cpu": ..., "rss_mb": ...}.
Jobs inherit this process's working directory and environment.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run_job(argv: list, log: str, timeout: float) -> dict:
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run_job(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
