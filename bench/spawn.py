"""Child launcher for bench/run.py, kept small so that children's peak RSS is their own.

Linux carries a process's peak RSS across fork and exec, so a child spawned
by the benchmark process would report at least the benchmark's own peak,
which grows with the databases it generates and the passes it runs. This
process imports nothing beyond the standard modules below and runs under
`python3 -I -S`, so its peak stays under 10 MB, below that of any pcmine
child. Its working directory and environment are the children's.

Protocol: one JSON request per stdin line,
{"argv": [...], "stdout": path, "stderr": path, "cap": seconds};
one JSON reply per stdout line,
{"seconds": wall time from spawn to exit, "rss_kb": ru_maxrss,
 "exit_code": code, "killed": true when the cap ran out}.
It exits when stdin closes.
"""

import json
import os
import select
import signal
import sys
import time


def launch(argv, stdout, stderr, cap):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    # The pidfd turns readable when the child exits; until it is reaped below,
    # the pid cannot be reused, so the kill cannot reach another process.
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], max(cap, 0.0))
    finally:
        os.close(pidfd)
    if not exited:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "rss_kb": usage.ru_maxrss,
            "exit_code": os.waitstatus_to_exitcode(status), "killed": not exited}


def main():
    for line in sys.stdin:
        reply = launch(**json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
