"""Starts and reaps the measured processes on behalf of run.py.

Protocol: one JSON request per line on stdin, {"argv": [...], "stderr": PATH};
one JSON reply per line on stdout, [exit code, wall s, user+sys s, max RSS MB].

It exists because Linux reports as a child's max RSS at least the peak RSS
of the process that started it: the child starts in a copy (or, under vfork,
the very memory) of its parent, and exec records that memory's high-water
mark. run.py grows as it parses reports; this process stays near the size of
a bare interpreter, so the max RSS it reports is the program's own.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter

PROCESS_TIMEOUT_S = 150


def run(argv: list[str], stderr_path: str) -> list:
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024]


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["stderr"])), flush=True)


if __name__ == "__main__":
    main()
