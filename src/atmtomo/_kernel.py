"""Compile the C kernels (_stencil.c) once per user and load them with ctypes.

The library holds the TV stencil of tv.py, its root and its diffusion apply
(which at the field's own weights is TV's gradient), and the CSR products and
canonicalization of forward.py.  It is cached under $XDG_CACHE_HOME/atmtomo
(default ~/.cache/atmtomo), keyed by the source, the compiler command and the
flags.  Without a compiler, or on any failure to build or load, load()
returns None and both modules run their numpy code, which gives the same bits.
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
from importlib import resources

# no contraction to FMA, which would change the bits; no -ffast-math or -march
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")

_P, _N, _D = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
_SIGNATURES = {
    "tv_root": (_P, _N, _N, _N, _D, _D, _D, _D, _P, _P),
    "apply_l": (_P, _P, _N, _N, _N, _D, _D, _D, _D, _P, _P, _P, _P),
    "csr_apply": (_P, _P, _P, _N, _P, _P),
    "csr_adjoint": (_P, _P, _P, _N, _P, _P),
    "csr_canonical": (_P, _P, _P, _N),
}


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
