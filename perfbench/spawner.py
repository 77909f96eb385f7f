"""Start measured child processes from a small interpreter of their own.

Linux folds the memory of the process that forks a child into the child's
peak RSS: the pages mapped before ``exec`` count towards its high-water mark.
Forking from the harness, which holds numpy and scipy, would add the
harness's own memory to every reading, so children are started from this
process instead.  It must itself be started before the harness imports
anything large.  Only the standard library is used here.

Protocol: one JSON request per line on stdin, ``{"argv", "env", "cwd",
"stdout", "stderr", "timeout"}``, and one JSON reply per line on stdout,
``{"code", "t0", "wall_s", "cpu_s", "peak_rss_mb"}``.  ``t0`` is the
CLOCK_MONOTONIC reading just before the child was started; wall, CPU and
RSS come from ``os.wait4`` on that one child.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=req["env"], cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "t0": t0,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Spawner:
    """Client side: one spawner process, used for every child of a benchmark run."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", __file__],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, cwd: str, stdout: str, stderr: str,
            timeout: float) -> dict:
        req = {"argv": argv, "env": env, "cwd": cwd, "stdout": stdout, "stderr": stderr,
               "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
