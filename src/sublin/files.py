"""Whole-file writes that leave either the previous file or the complete new one."""
from __future__ import annotations

import os
import threading
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path):
    """Text file handle whose contents replace `path` only if the block completes.

    The text goes to a temporary file in the same directory, which `os.replace`
    moves over `path` once it is closed; if the block raises, the temporary file
    is removed and `path` is left as it was. The temporary name holds the process
    and thread ids, so concurrent writers never share one.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
