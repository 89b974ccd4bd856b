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
library loads, so a cached library runs on any x86-64; elsewhere the library
holds the baseline kernels alone.  Both clones give the same bits.  Without
a compiler, or on any failure to build or load, load() returns None and the
three modules run their numpy code, which gives the same bits.

The kernels check nothing.  Every vector one reads passes vector(): the
caller's own array if it is a float64, 1-D, C-contiguous vector of the right
length, else a copy.  check_out() vets an output, and a Binding keeps the last
call of a loop with weak references to the arrays it keys on.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
import weakref
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


def vector(a, n: int | None = None, what: str = "vector", counted: str = "entries") -> np.ndarray:
    """a as a float64, 1-D, C-contiguous vector, of n entries if n is given: a itself
    if it already is one (kept calls key on that identity), else a checked copy."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{what} must be a vector, got shape {a.shape}")
    if n is not None and a.size != n:
        raise ValueError(f"{what} length {a.shape} does not match {counted} {n}")
    return np.ascontiguousarray(a)


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
    """A compiled call kept with weak references to the arrays it was made with.

    A loop that hands a kernel the same arrays on every call pays for their
    checks and pointers (a.ctypes.data, 1.3-2.1 us each) once: get() returns
    the call while every key is alive and the very object passed in.  It keeps
    no key alive, and numpy resizes no weakly referenced array, so a live
    key's buffer is the one the call points at.  Bind only the caller's own
    arrays, no checked copy.  One tuple holds keys, call and the call's own
    scratch, so a concurrent bind never mixes two calls.
    """

    _entry = ((), None, ())

    def get(self, *key):
        refs, call, _ = self._entry
        # a dead reference gives None, which must not match a None key
        live = len(refs) == len(key) and all(k is not None and r() is k for r, k in zip(refs, key))
        return call if live else None

    def bind(self, key: tuple, call, *scratch) -> None:
        self._entry = (tuple(map(weakref.ref, key)), call, scratch)


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
