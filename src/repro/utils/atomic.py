"""Atomic file replacement shared by the queue, telemetry, cache and registry writers."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, Union

import numpy as np


@contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    """A same-directory temp file that replaces ``path`` on clean exit.

    ``os.replace`` is atomic on POSIX, so readers (and a resumed run)
    see either the previous content or the full new content, never a
    truncated file.  The temp file is removed if the write fails.  No
    ``fsync``: atomic against a killed process, not against power loss.
    """
    handle, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            yield stream
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write(path, data: Union[str, bytes]) -> None:
    """Write ``data`` to ``path`` atomically; ``str`` is encoded as UTF-8."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    with _replacing(Path(path)) as stream:
        stream.write(data)


def atomic_savez(path, **arrays: np.ndarray) -> None:
    """``np.savez(path, **arrays)``, atomically.

    As with ``np.savez``, ``.npz`` is appended to a path that lacks it.
    The archive is streamed into the temp file, never buffered whole in
    memory.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with _replacing(Path(path)) as stream:
        np.savez(stream, **arrays)
