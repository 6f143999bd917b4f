"""The process entry: ``python -m traitsim`` and the ``traitsim`` console script."""

import gc
import os
import sys

from .cli import main


def entry() -> int:
    """Run :func:`traitsim.cli.main` as the whole life of this process.

    What the imports made (numpy's and the standard library's objects, tens
    of thousands of containers) lives until the process ends, so it moves to
    the permanent generation: no collection scans it again, the full one at
    exit included, which is most of a short command's exit time.  Objects
    the command makes are collected as usual.  ``main`` itself does not
    freeze, so callers that run it in-process keep their heap collectable.

    A stdout whose reader has gone ends the process silently with 141, as for
    a writer killed by SIGPIPE; fd 1 then points at the null device for the exit.
    """
    gc.freeze()
    try:
        status = main()
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(entry())
