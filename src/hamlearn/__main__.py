"""The one process entry: `python -m hamlearn` and the `hamlearn` script.

Fixed glibc heap thresholds keep the temporaries that the kernels free and
reallocate at every step, instead of handing them back to the kernel and
page-faulting them in again.  Where libc has no `mallopt` this does nothing.

`git describe` starts before `cli` is imported and is waited for on every
way out.  When the command returns, its files are closed; stdout and stderr
are flushed and the process exits without the interpreter's teardown.  A
flush error, a SystemExit (--help, --version) or a traceback takes the
ordinary exit path.
"""

import ctypes
import os
import sys

from .config import start_version, version_string

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


def main() -> int:
    _keep_freed_memory()
    start_version()  # git runs while cli loads
    try:
        from . import cli
        code = cli.main()
    finally:
        version_string()  # reaps git on every way out
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # the interpreter's teardown reports it, as before
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
