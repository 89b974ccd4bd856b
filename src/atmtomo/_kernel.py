"""Compile the C kernels (_stencil.c) once per user and load them with ctypes.

The library holds the TV stencil of tv.py, its root and its diffusion apply
(which at the field's own weights is TV's gradient, and which can add its
result into a base), each one pass over the rows with a row or two of
scratch the caller makes, the CSR products T, T^T and T^T T and the
canonicalization of forward.py, the fused vector updates of solvers.cgne,
and the two passes over solvers.py's L-BFGS history block (the block's
products with a few vectors, and a linear combination of its rows).  Those
two split their columns into fixed chunks that the calling thread shares with
one helper thread, which the library starts at the first such pass in a
process that may run on two or more CPUs (os.sched_getaffinity, so taskset
is the control); every sum runs in an order the chunks fix, so the bits do
not depend on the CPU count.  Between passes the helper spins for 1 ms
before it sleeps, unless the process already ran another thread when the
helper started (a threaded BLAS's pool, say): then it sleeps at once.

The library is cached under $XDG_CACHE_HOME/atmtomo (default
~/.cache/atmtomo), keyed by the source, the compiler command and the flags.
On x86-64 glibc, with a compiler that has target_clones, the diffusion
apply, the CG updates and the inner loops of the history passes carry an
AVX2 clone and a baseline clone, and the dynamic loader picks one when the
library loads, so a cached library
runs on any x86-64; elsewhere the library holds the baseline kernels alone.
Both clones give the same bits.  Without a compiler, or on any failure to
build or load, load() returns None and the three modules run their numpy
code, which gives the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import operator
import os
import shlex
import subprocess
import sysconfig
import tempfile
from importlib import resources

import numpy as np

# no contraction to FMA, which would change the bits; no -ffast-math, and no
# -march: the source picks its AVX2 clones at load time, not at build time;
# -pthread for the helper thread of the L-BFGS history passes
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared", "-pthread")

_P, _N, _D = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
_SIGNATURES = {
    "tv_root": (_P, _N, _N, _N, _D, _D, _D, _D, _P, _P),
    "apply_l": (_P, _P, _N, _N, _N, _D, _D, _D, _D, _P, _P, _P),
    "csr_apply": (_P, _P, _P, _N, _P, _P),
    "csr_adjoint": (_P, _P, _P, _N, _P, _P),
    "csr_normal": (_P, _P, _P, _N, _N, _P, _P),
    "csr_canonical": (_P, _P, _P, _N),
    "cg_step": (_P, _P, _P, _P, _D, _N),
    "cg_direction": (_P, _P, _D, _N),
    "block_dots": (_P, _N, _P, _N, _N, _N, _P, _P),
    "block_combine": (_P, _P, _N, _N, _N, _P),
}


def check_out(out, n: int, *inputs) -> None:
    """That out can take a kernel's n results while it reads inputs."""
    if not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.shape == (n,)
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError(f"out must be a writable C-contiguous float64 array of shape ({n},)")
    if any(np.may_share_memory(out, a) for a in inputs):
        raise ValueError("out must not overlap the arrays it is computed from")


class Binding:
    """A compiled call bound to the arrays it was last made with.

    A loop that hands a kernel the same arrays on every call pays for their
    checks and pointers (a.ctypes.data, 1.3-2.1 us each) once: get() returns
    the bound call while every key is the very object it was bound with.
    The entry holds those objects and the scratch the call was made with,
    so their buffers, and the pointers the call carries, stay valid; bind
    only arrays the call reads or writes in place, never a checked copy,
    and scratch made for this call alone.  One tuple holds key, call and
    scratch, so a concurrent bind never pairs one call's key with another's
    pointers.
    """

    __slots__ = ("_entry",)

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        """Drop the bound call and the arrays and scratch it holds."""
        self._entry = ((), None, ())

    def get(self, *key):
        bound, call, _ = self._entry
        if len(bound) == len(key) and all(map(operator.is_, bound, key)):
            return call
        return None

    def bind(self, key: tuple, call, *scratch) -> None:
        self._entry = (key, call, scratch)

    def __reduce__(self):
        # a copy starts unbound: the call carries this entry's pointers
        return Binding, ()


def compiler_command() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "atmtomo")


@functools.cache
def shared() -> ctypes.CDLL | None:
    """The library tv.py and forward.py share: load() once per process."""
    return load()


def load() -> ctypes.CDLL | None:
    """The compiled kernel library, built once per cache key; None on any failure."""
    if os.name != "posix":
        return None
    try:
        source = resources.files("atmtomo").joinpath("_stencil.c").read_bytes()
        command = compiler_command()
        key = hashlib.sha256(b"\0".join([source, *(a.encode() for a in (*command, *FLAGS))]))
        directory = cache_dir()
        os.makedirs(directory, mode=0o700, exist_ok=True)
        status = os.stat(directory)
        # a directory another user can write to could hand us their library
        if status.st_uid != os.getuid() or status.st_mode & 0o022:
            return None
        path = os.path.join(directory, f"stencil-{key.hexdigest()[:32]}.so")
        if not os.path.exists(path):
            with tempfile.TemporaryDirectory(dir=directory) as tmp:
                c_file, built = os.path.join(tmp, "_stencil.c"), os.path.join(tmp, "stencil.so")
                with open(c_file, "wb") as fh:
                    fh.write(source)
                cmd = [*command, *FLAGS, c_file, "-o", built, "-lm"]
                subprocess.run(cmd, check=True, capture_output=True, timeout=120)
                os.replace(built, path)
        lib = ctypes.CDLL(path)
        for name, argtypes in _SIGNATURES.items():
            function = getattr(lib, name)
            function.argtypes, function.restype = argtypes, None
        return lib
    except (OSError, ValueError, AttributeError, subprocess.SubprocessError):
        return None
