"""Atomic file replacement shared by the queue, telemetry and registry writers."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def atomic_write(path, data: Union[str, bytes]) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + rename.

    ``str`` is encoded as UTF-8.  ``os.replace`` is atomic on POSIX, so
    readers (and a resumed run) see either the previous content or the
    full new content, never a truncated file.  The temp file is removed
    if the write fails.  No ``fsync``: atomic against a killed process,
    not against power loss.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    handle, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
