"""Starts the benchmark's child processes from a small interpreter.

Linux seeds a new process's peak RSS with the RSS of the process that
spawned it, so a child started by the harness (which holds chromsym and
the reference data) would report at least the harness's size.  This
launcher imports nothing beyond the standard library's core, so the peak
RSS that wait4 reports for a child is the child's own.

Reads one JSON object per line on stdin:
    {"cmd": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}
runs cmd to completion, timed from spawn to exit, and answers with one
line {"wall": SECONDS, "maxrss_kb": KB, "code": EXIT_CODE}.  code is null
when the child was killed at the timeout.  Exits at end of input.

Run as `python -I -S launcher.py`; children inherit its environment and
working directory.
"""

import json
import os
import signal
import sys
import time

_running = []


def _on_alarm(signum, frame):
    if _running:
        os.kill(_running[0], signal.SIGKILL)
        _running.append(True)


def run(request: dict) -> dict:
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], create, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], create, 0o644),
    ]
    cmd = request["cmd"]
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
    _running[:] = [pid]
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    killed = len(_running) > 1
    _running.clear()
    return {
        "wall": wall,
        "maxrss_kb": usage.ru_maxrss,
        "code": None if killed else os.waitstatus_to_exitcode(status),
    }


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
