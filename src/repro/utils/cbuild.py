"""Build, cache and load the runtime-compiled C kernels.

Every compiled kernel in the package goes through here, and this
module is the one place that knows which kernels exist: each
:class:`CompiledKernel` registers itself under its name, and
:func:`kernels_in_use` reports, for every kernel whose module this
process has imported, whether it resolved.  That map is what a run
manifest (``compute.kernels``) and ``/healthz?verbose=1``
(``kernels``) record.

A :class:`CompiledKernel` is a piece of C source that is compiled at
first use with the toolchain already on the host, loaded through
ctypes and checked by a bitwise self-test before anything may call
it.  Every failure — no compiler, a failed build, a library that does
not load, a self-test mismatch — resolves to ``None``, and the caller
runs its numpy spelling instead.

The shared object is cached as ``<name>-<digest>.so`` in the cache
directory (``REPRO_QUANT_KERNEL_DIR``, default ``repro-qkernel`` under
the user cache dir), where the digest covers the source and the
compiler flags.  The compiler reads the source from stdin and writes
a private temp file, appends the SHA-256 of the image to it and moves
it into place with ``os.replace``, so concurrent builders never expose
a half-written library.  A cached library whose digest does not match
(a torn or garbled file), that fails to load, or that fails its
self-test is rebuilt once; if the rebuild fails too, the file is
deleted and the kernel gives up.

Loading is lazy and happens once per process; the resolved handle
lives on the module-level :class:`CompiledKernel`, never on the
objects that call it, so those stay picklable.
"""

from __future__ import annotations

import _ctypes
import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Any, Callable, Dict, Optional, Sequence

KERNEL_DIR_ENV_VAR = "REPRO_QUANT_KERNEL_DIR"

#: Flags every kernel is built with.  ``-ffp-contract=off`` keeps each
#: mul and add separately rounded, as numpy rounds them.
BASE_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

_TAG_BYTES = hashlib.sha256().digest_size

#: Every :class:`CompiledKernel` constructed in this process, by name.
_KERNELS: Dict[str, "CompiledKernel"] = {}


def cache_dir() -> str:
    """Where compiled kernels are cached."""
    override = os.environ.get(KERNEL_DIR_ENV_VAR, "")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME", "") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-qkernel")


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _intact(so_path: str) -> bool:
    """True when ``so_path`` ends with the digest of the rest of it.

    A torn or garbled library is caught here, before ``dlopen`` maps
    it: mapping a truncated image can kill the process with SIGBUS.
    """
    try:
        with open(so_path, "rb") as handle:
            data = handle.read()
    except OSError:
        return False
    body, tag = data[:-_TAG_BYTES], data[-_TAG_BYTES:]
    return len(data) > _TAG_BYTES and hashlib.sha256(body).digest() == tag


def _build(source: str, flags: Sequence[str], so_path: str) -> bool:
    """Compile ``source`` into ``so_path`` atomically; False on failure."""
    try:
        os.makedirs(os.path.dirname(so_path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(so_path), suffix=".tmp")
        os.close(fd)
    except OSError:
        return False
    try:
        result = subprocess.run(
            ["cc", *flags, "-x", "c", "-", "-o", tmp, "-lm"],
            input=source.encode(),
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0:
            return False
        with open(tmp, "r+b") as handle:
            body = handle.read()
            # The loader ignores bytes past the ELF image, so the digest
            # of the image rides at the end of the file itself.
            handle.write(hashlib.sha256(body).digest())
        os.replace(tmp, so_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        _unlink(tmp)


class CompiledKernel:
    """C source compiled, bound and self-tested on first :meth:`get`.

    ``bind(lib)`` declares the ctypes signatures and returns the entry
    points; ``self_test(entry)`` returns True only when they agree
    bitwise with the numpy spelling they replace.
    """

    def __init__(
        self,
        name: str,
        source: str,
        bind: Callable[[ctypes.CDLL], Any],
        self_test: Callable[[Any], bool],
        extra_flags: Sequence[str] = (),
    ):
        if name in _KERNELS:
            raise ValueError(f"a compiled kernel named {name!r} already exists")
        self.name = name
        self.source = source
        self.flags = BASE_FLAGS + tuple(extra_flags)
        self._bind = bind
        self._self_test = self_test
        self._lock = threading.Lock()
        self._loaded = False
        self._entry = None
        _KERNELS[name] = self

    def so_path(self) -> str:
        digest = hashlib.sha256(
            "\0".join((self.source, *self.flags)).encode()
        ).hexdigest()[:16]
        return os.path.join(cache_dir(), f"{self.name}-{digest}.so")

    def _open(self, so_path: str):
        """Load, bind and self-test ``so_path``; None if any step fails."""
        try:
            lib = ctypes.CDLL(so_path)
            entry = self._bind(lib)
        except (OSError, AttributeError):
            return None
        if self._self_test(entry):
            return entry
        # Unmap the rejected library so a rebuild at the same path is
        # really loaded rather than served from the loader's cache.
        _ctypes.dlclose(lib._handle)
        return None

    def get(self) -> Optional[Any]:
        """The self-tested entry points, or None when unavailable."""
        if self._loaded:
            return self._entry
        with self._lock:
            if not self._loaded:
                self._entry = self._resolve()
                self._loaded = True
        return self._entry

    def _resolve(self):
        so_path = self.so_path()
        # A cached library that is torn, fails to load or fails its
        # self-test is replaced by one rebuild, or deleted if that fails.
        for _ in range(2):
            fresh = not _intact(so_path)
            if fresh and not _build(self.source, self.flags, so_path):
                _unlink(so_path)
                return None
            entry = self._open(so_path)
            if entry is not None:
                return entry
            _unlink(so_path)
            if fresh:
                return None
        return None


def kernels_in_use() -> Dict[str, bool]:
    """``{name: resolved}`` for every kernel whose module is imported.

    Resolving loads each kernel (building it on a cold cache), so True
    means compiled, loaded and self-tested in this process, and False
    means its callers run their numpy spelling.
    """
    return {name: kernel.get() is not None for name, kernel in _KERNELS.items()}
