"""The process entry of `python -m kummerchi` and the `kummerchi` script.

It flushes stdout inside its `try`, so a reader that closed the pipe early
ends the run with 141 (128 + SIGPIPE) and an empty stderr: fd 1 then points
at os.devnull, as the Python docs' note on SIGPIPE describes, so the flush at
exit cannot fail again.  `cli.main`, which an in-process caller may call,
keeps its hands off fd 1.
"""

import os
import sys

from .cli import EXIT_BROKEN_PIPE, main as run_command


def main(argv=None) -> int:
    try:
        code = run_command(argv)
        sys.stdout.flush()  # here, so a reader that has gone raises below, not at exit
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
