"""Start the benchmark's child processes and report what each used.

run.py starts this helper once per run and sends it one JSON request
per line on stdin: {"argv": [...], "stdout": path, "stderr": path,
"timeout": seconds}.  For each one the helper spawns the child with
the helper's own environment and working directory, waits for it (and
kills it after the timeout), and answers with one JSON line:
{"exit_code": int or null after a timeout, "wall_s", "cpu_s",
"max_rss_kb"}, the last two from the child's wait4 rusage.

The helper exists because Linux reports a child's max-RSS as at least
the resident size of the process that spawned it: exec records the
memory it replaces.  run.py grows past the size of a small kummerchi
child as it checks outputs, while this helper stays smaller than any
of them.
"""

import json
import os
import select
import signal
import sys
import time


def spawn(request: dict) -> dict:
    argv = request["argv"]
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            exited = select.select([pidfd], [], [], request["timeout"])[0]
            if not exited:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
    return {
        "exit_code": os.waitstatus_to_exitcode(status) if exited else None,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in iter(sys.stdin.readline, ""):
        print(json.dumps(spawn(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
