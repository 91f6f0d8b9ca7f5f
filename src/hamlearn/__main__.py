"""`python -m hamlearn`: the command line as one process that pays for its
arithmetic.

glibc returns freed memory at the top of the heap to the kernel once it
exceeds a threshold, and serves blocks above another from fresh mappings,
so a kernel that frees and reallocates the same temporaries every step
page-faults them back in each time.  Fixed thresholds keep them.  Where
libc has no `mallopt` this does nothing.

When the command returns, every file it wrote is closed; stdout and stderr
are flushed and the process exits without the interpreter's teardown.  A
flush error, a SystemExit (argparse's --help, --version) or a traceback
takes the ordinary exit path.
"""

import ctypes
import os
import sys

from .cli import main

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's <malloc.h>


def _keep_freed_memory() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # not glibc; no C library (Windows)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), \
        ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, 64 << 20)
    mallopt(M_MMAP_THRESHOLD, 32 << 20)


if __name__ == "__main__":
    _keep_freed_memory()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # the interpreter's teardown reports it, as before
        raise SystemExit(code)
    os._exit(code)
