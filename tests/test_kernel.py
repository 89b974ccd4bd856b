"""The compiled kernels: their build cache, their failure paths, their packaging,
what they may be handed, and the L-BFGS history passes on one thread or two."""

import copy
import os
import pickle
import re
import shutil
import signal
import stat
import subprocess
import sys
import threading
import time
import warnings
import weakref
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import atmtomo.forward
import atmtomo.solvers
import atmtomo.tv
import helpers
from atmtomo import _kernel, make_grid, read_csv
from atmtomo.cli import main

needs_kernel = pytest.mark.skipif(
    atmtomo.tv._STENCIL is None, reason="the compiled stencil did not build or load here"
)

CLI_INI = """
[grid]
nx = 5
ny = 4
nz = 6
z_max = 15.0

[network]
stations = 4
emitters = 5
seed = 3

[sweep]
ray_counts = 10
noise_fractions = 0.01
solvers = lbfgs, ldfp
penalties = tv

[solver]
lbfgs_max_iterations = 8
ldfp_outer_iterations = 2
ldfp_inner_max_iterations = 50
"""


def test_stencil_source_ships_with_the_package():
    source = resources.files("atmtomo").joinpath("_stencil.c")
    assert source.is_file()
    for name in _kernel._SIGNATURES:
        assert f"void {name}(".encode() in source.read_bytes(), name
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    package_data = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]
    assert "_stencil.c" in package_data["atmtomo"]


@needs_kernel
def test_library_exports_every_kernel_and_is_loaded_once():
    # every exported function has a signature and every signature a function
    source = resources.files("atmtomo").joinpath("_stencil.c").read_text()
    exported = re.findall(r"^void (\w+)\(", source, flags=re.MULTILINE)
    assert sorted(exported) == sorted(_kernel._SIGNATURES)
    library = _kernel.shared()
    for name in exported:
        assert getattr(library, name).argtypes == _kernel._SIGNATURES[name], name
    assert atmtomo.tv._STENCIL is atmtomo.forward._KERNEL is atmtomo.solvers._KERNEL is library


@needs_kernel
def test_loader_caches_one_private_library(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _kernel.load() is not None
    cache = tmp_path / "atmtomo"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    (library,) = cache.iterdir()
    assert library.suffix == ".so"

    # a second load finds the library and compiles nothing
    def no_compile(*args, **kwargs):
        raise AssertionError("compiled again")

    monkeypatch.setattr(_kernel.subprocess, "run", no_compile)
    assert _kernel.load() is not None
    assert list(cache.iterdir()) == [library]


def _failing_compiler(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernel, "compiler_command", lambda: ["false"])


def _missing_compiler(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernel, "compiler_command", lambda: [str(tmp_path / "no-such-cc")])


def _compile_error(tmp_path, monkeypatch):
    command = [*_kernel.compiler_command(), "-include", str(tmp_path / "missing.h")]
    monkeypatch.setattr(_kernel, "compiler_command", lambda: command)


def _unwritable_cache(tmp_path, monkeypatch):
    # a file where the cache directory would go: unwritable even to root
    (tmp_path / "atmtomo").write_text("")


def _shared_cache(tmp_path, monkeypatch):
    (tmp_path / "atmtomo").mkdir()
    (tmp_path / "atmtomo").chmod(0o777)


def _not_posix(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernel.os, "name", "nt")


@pytest.mark.parametrize(
    "failure",
    [
        _failing_compiler,
        _missing_compiler,
        _compile_error,
        _unwritable_cache,
        _shared_cache,
        _not_posix,
    ],
)
def test_loader_failures_give_none_silently(tmp_path, monkeypatch, capfd, failure):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    failure(tmp_path, monkeypatch)
    assert _kernel.load() is None
    assert capfd.readouterr() == ("", "")
    assert not list(tmp_path.glob("atmtomo/*.so"))


def _cli_outputs(out: Path) -> dict:
    """Every file the sweep wrote, CSV records without their timing column."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            files[path.name] = [replace(r, seconds=0.0) for r in read_csv(path)]
        else:
            files[path.name] = path.read_bytes()
    return files


@needs_kernel
def test_cli_output_is_the_same_without_the_compiled_stencil(tmp_path, monkeypatch, capsys):
    ini = tmp_path / "cli.ini"
    ini.write_text(CLI_INI)
    # the output directory enters the config hash, so both runs write to one
    out = tmp_path / "out"
    runs = []
    for stencil in ("compiled", "numpy"):
        if stencil == "numpy":
            helpers.without_kernels(monkeypatch)
        assert main(["--config", str(ini), "--out", str(out)]) == 0
        runs.append((capsys.readouterr(), _cli_outputs(out)))
        shutil.rmtree(out)
    assert runs[0] == runs[1]
    assert any(name.endswith(".fld") for name in runs[0][1])


# the boundary: what a kernel may read, and the calls kept for a loop


def test_vector_is_the_callers_array_or_a_checked_copy():
    # the kept calls key on the caller's array: a copy here would make every one miss
    a = np.linspace(0.0, 1.0, 5)
    assert _kernel.vector(a, 5, "field", "operator columns") is a
    assert _kernel.vector(a) is a
    for other in (a.astype(np.float32), np.linspace(0.0, 1.0, 10)[::2], a.tolist()):
        copied = _kernel.vector(other, 5)
        assert copied is not other and not np.may_share_memory(copied, other)
        assert copied.dtype == np.float64 and copied.flags.c_contiguous
        assert copied.tolist() == np.asarray(other, dtype=np.float64).tolist()
    for not_a_vector in (a.reshape(5, 1), np.float64(1.0)):
        with pytest.raises(ValueError, match="rhs must be a vector"):
            _kernel.vector(not_a_vector, None, "rhs")
    with pytest.raises(ValueError, match=r"field length \(4,\) does not match operator columns 5"):
        _kernel.vector(a[:4], 5, "field", "operator columns")


def test_a_binding_matches_only_the_live_keys_passed_in():
    binding, call = _kernel.Binding(), object()
    assert binding.get() is None
    a, b = np.zeros(3), np.zeros(3)
    binding.bind((a, b), call)
    assert binding.get(a, b) is call
    for other in ((b, a), (a, b.copy()), (a,), (a, b, a)):
        assert binding.get(*other) is None
    dead = weakref.ref(b)
    del b, other
    # the binding did not keep b alive, and its dead key matches no None
    assert dead() is None
    assert binding.get(a, None) is None


@needs_kernel
def test_a_kept_weights_call_holds_no_array_alive(monkeypatch):
    grid = make_grid(5, 4, 6, (0.0, 1.0, 0.0, 1.0, 0.0, 15.0))
    rng = np.random.default_rng(4)
    v, gamma = rng.standard_normal(grid.n_nodes), rng.uniform(0.1, 1.0, grid.n_nodes)
    out = np.zeros(grid.n_nodes)
    applied, plain = [], atmtomo.tv._apply
    monkeypatch.setattr(atmtomo.tv, "_apply", lambda *args: applied.append(1) or plain(*args))
    for _ in range(2):
        atmtomo.tv.apply_weights(gamma, grid, v, out=out)
    assert len(applied) == 1
    dead = weakref.ref(gamma)
    del gamma
    assert dead() is None
    # new weights, made at once so that they may take the dead ones' id, are
    # applied anew, not by the kept call
    other = np.empty(grid.n_nodes)
    other[:] = rng.uniform(2.0, 3.0, grid.n_nodes)
    want = out + atmtomo.tv.apply_weights(other, grid, v)
    assert atmtomo.tv.apply_weights(other, grid, v, out=out).tobytes() == want.tobytes()
    assert len(applied) == 3


# the L-BFGS history passes: block_dots and block_combine against their numpy twins

CHUNK = atmtomo.solvers._CHUNK
Passes = atmtomo.solvers._Passes
numpy_dots, numpy_combine = atmtomo.solvers._numpy_dots, atmtomo.solvers._numpy_combine


def _same(a, b) -> bool:
    """Equal bits, except that any NaN matches any NaN (its payload is the FPU's choice)."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all() and a[~nan].tobytes() == b[~nan].tobytes())


def _spec_dot(a, b) -> float:
    """a . b in the documented order, one scalar at a time."""
    partials = []
    for start in range(0, len(a), CHUNK):
        lanes = [0.0] * 8
        for i in range(start, min(len(a), start + CHUNK)):
            lanes[(i - start) % 8] += float(a[i]) * float(b[i])
        l0, l1, l2, l3, l4, l5, l6, l7 = lanes
        partials.append(((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)))
    total = partials[0]
    for partial in partials[1:]:
        total += partial
    return total


def _rough(rng, shape):
    # magnitudes over 16 decades, so that any other order of the sums shows
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)


@pytest.mark.parametrize("n", [1, 7, 9, CHUNK + 1, 2 * CHUNK + 9])
def test_numpy_dots_add_in_the_documented_order(n):
    rng = np.random.default_rng(n)
    rows, vectors = _rough(rng, (3, n)), list(_rough(rng, (2, n)))
    got = numpy_dots(rows, vectors)
    want = [[_spec_dot(row, vector) for vector in vectors] for row in rows]
    assert got.tobytes() == np.array(want).tobytes()


SIZES = [1, 7, 8, 9, CHUNK - 1, CHUNK, CHUNK + 1, 27000]


@needs_kernel
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("memory", [1, 3, 10, 40])
def test_history_passes_match_their_numpy_twins(n, memory):
    rng = np.random.default_rng(n + memory)
    block = _rough(rng, (2 * memory, n))
    gradient = _rough(rng, n)
    # signed zeros in the rows, the vectors and the coefficients
    block[:, ::5] = -0.0
    gradient[::7] = -0.0
    passes = Passes(block)
    for pending in ([], [2 * memory - 2]):
        got = passes.products(2 * memory, gradient, pending)
        want = numpy_dots(block, [gradient, *block[pending]])
        assert got.tobytes() == want.tobytes()
    pair = (gradient, block[-1])
    assert passes.pair(*pair).tobytes() == numpy_dots(pair, pair).tobytes()
    coefficients = _rough(rng, 2 * memory + 1)
    coefficients[1::4] = -0.0
    got = passes.combine(gradient, coefficients)
    assert got.tobytes() == numpy_combine(gradient, block, coefficients).tobytes()
    # zero rows: every product is a signed zero, every sum +0.0 or -0.0 as numpy's
    zeros = np.full((2, n), -0.0)
    zeros[1] = 0.0
    passes = Passes(zeros)
    assert _same(passes.products(2, zeros[0], [0]), numpy_dots(zeros, [zeros[0], zeros[0]]))
    assert _same(passes.pair(*zeros), numpy_dots(zeros, zeros))
    coefficients = np.array([-1.0, 1.0, -1.0])
    assert _same(
        passes.combine(zeros[0], coefficients), numpy_combine(zeros[0], zeros, coefficients)
    )


@needs_kernel
@pytest.mark.parametrize("n", [9, CHUNK + 1, 27000])
def test_history_passes_propagate_inf_and_nan(n):
    rng = np.random.default_rng(n)
    block = rng.standard_normal((6, n))
    block[1, n // 2] = np.inf
    block[2, 0] = np.nan
    block[3, -1] = -np.inf
    block[4, n // 3] = np.inf
    block[4, n // 2] = -np.inf
    gradient = rng.standard_normal(n)
    passes = Passes(block)
    got = passes.products(6, gradient, [0])
    want = numpy_dots(block, [gradient, block[0]])
    assert _same(got, want)
    assert np.isnan(got[2]).all() and np.isinf(got[1]).all() and np.isinf(got[3]).all()
    assert np.isfinite(got[0]).all() and not np.isfinite(got[4]).any()
    for pair in ((block[1], block[3]), (gradient, block[2]), (block[4], block[4])):
        got = passes.pair(*pair)
        assert _same(got, numpy_dots(pair, pair)) and not np.isfinite(got).all()
    coefficients = np.linspace(-1.0, 1.0, 7)
    got = passes.combine(gradient, coefficients)
    assert _same(got, numpy_combine(gradient, block, coefficients))
    assert np.isnan(got[0]) and not np.isfinite(got[[n // 3, n // 2, -1]]).any()
    assert np.isfinite(got[1 : n // 3]).all()


def test_history_passes_check_their_inputs():
    history = atmtomo.solvers.LbfgsHistory(2)
    assert history.push(np.ones(5), np.ones(5))
    for s, y in ((np.ones(4), np.ones(4)), (np.ones(5), np.ones(4))):
        with pytest.raises(ValueError):
            history.push(s, y)
    # vectors of no entries: every product is +0.0, on either path
    empty = np.zeros((2, 0))
    zeros = np.zeros((2, 2)).tobytes()
    assert Passes(empty).products(2, empty[0], [0]).tobytes() == zeros
    assert Passes(empty).pair(empty[0], empty[1]).tobytes() == zeros
    assert numpy_dots(empty, list(empty)).tobytes() == zeros
    assert numpy_dots(list(empty), list(empty)).tobytes() == zeros


@pytest.mark.parametrize("path", ["compiled", "numpy"])
def test_history_passes_refuse_a_block_the_kernels_cannot_take(path, monkeypatch):
    # the compiled scratch is sized by the rows, a y and an s row per slot:
    # a block of one row would let pair write four products into one entry
    if path == "numpy":
        helpers.without_kernels(monkeypatch)
    elif atmtomo.solvers._KERNEL is None:
        pytest.skip("the compiled kernels did not build or load here")
    block = np.ones((4, 9))
    bad = (
        block[:1],
        block[:3],
        block.astype(np.float32),
        np.asfortranarray(block),
        block[:, ::2],
        block[0],
        block.tolist(),
    )
    for blocked in bad:
        with pytest.raises(ValueError, match="history block"):
            Passes(blocked)
    assert Passes(block[:2]).pair(block[0], block[1]).tolist() == [[9.0, 9.0], [9.0, 9.0]]


@pytest.mark.parametrize("path", ["compiled", "numpy"])
def test_a_refused_first_pair_fixes_the_history_length(path, monkeypatch):
    if path == "numpy":
        helpers.without_kernels(monkeypatch)
    elif atmtomo.solvers._KERNEL is None:
        pytest.skip("the compiled kernels did not build or load here")
    history = atmtomo.solvers.LbfgsHistory(2)
    assert not history.push(np.ones(5), -np.ones(5))
    with pytest.raises(ValueError):
        history.push(np.ones(4), np.ones(4))
    assert history.push(np.ones(5), np.ones(5)) and len(history) == 1
    # an empty pair has no curvature: refused, and it fixes the length at 0
    empty = atmtomo.solvers.LbfgsHistory(2)
    assert not empty.push(np.array([]), np.array([]))
    assert len(empty) == 0
    with pytest.raises(ValueError):
        empty.push(np.ones(1), np.ones(1))


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda h: pickle.loads(pickle.dumps(h))])
def test_a_copied_history_passes_over_its_own_block(clone):
    rng = np.random.default_rng(8)
    n = 3 * CHUNK + 5
    history = atmtomo.solvers.LbfgsHistory(3)
    for _ in range(4):
        s = rng.standard_normal(n)
        assert history.push(s, 2.0 * s + rng.standard_normal(n) * 0.1)
    gradient = rng.standard_normal(n)
    twin = clone(history)
    want = atmtomo.solvers.two_loop_direction(history, gradient).tobytes()
    s = rng.standard_normal(n)
    assert history.push(s, 3.0 * s)
    history._block[:] = np.nan
    assert atmtomo.solvers.two_loop_direction(twin, gradient).tobytes() == want


@needs_kernel
def test_history_passes_from_many_threads_at_once():
    # the compiled passes release the GIL: one caller holds the helper, the
    # others run their chunks inline, and every result keeps its bits; each
    # thread passes over the shared block through its own _Passes, whose
    # scratch is its own
    rng = np.random.default_rng(3)
    block, gradient = rng.standard_normal((20, 3 * CHUNK + 5)), rng.standard_normal(3 * CHUNK + 5)
    coefficients = rng.standard_normal(21)
    want = (
        numpy_dots(block, [gradient, block[2]]).tobytes(),
        numpy_combine(gradient, block, coefficients).tobytes(),
    )
    wrong = []

    def work():
        passes = Passes(block)
        for _ in range(50):
            got = (
                passes.products(20, gradient, [2]).tobytes(),
                passes.combine(gradient, coefficients).tobytes(),
            )
            if got != want:
                wrong.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


# a 50-iteration L-BFGS solve on a scaled quadratic with 27000 unknowns,
# pinned to the CPUs given: prints the records, the last direction and the
# number of threads the process gained.  _run gives BLAS one thread: OpenBLAS
# splits a dot or norm of over 10000 entries across the CPUs it finds, so the
# solver's own `@` and norms (outside the history kernels) would reorder
# their sums with the CPU count.
SOLVE = r"""
import dataclasses, hashlib, os, sys
os.sched_setaffinity(0, [int(c) for c in sys.argv[1].split(",")])
import numpy as np
from atmtomo.solvers import LbfgsHistory, LbfgsOptions, lbfgs_trust_region, two_loop_direction

def threads():
    return len(os.listdir("/proc/self/task"))

before = threads()
rng = np.random.default_rng(11)
n = 27000
diag, target = rng.uniform(1.0, 100.0, n), rng.standard_normal(n)

class Quadratic:
    def eval(self, x):
        shifted = x - target
        return 0.5 * float(shifted @ (diag * shifted)), diag * shifted

options = LbfgsOptions(memory=10, max_iterations=50, grad_tol=0.0)
result = lbfgs_trust_region(Quadratic(), np.zeros(n), options)
history = LbfgsHistory(5)
for _ in range(7):
    s = rng.standard_normal(n)
    history.push(s, diag * s)
d = two_loop_direction(history, rng.standard_normal(n))
records = [dataclasses.replace(r, seconds=0.0) for r in result.records]
digest = hashlib.sha256(repr(records).encode())
digest.update(result.field.tobytes())
direction = hashlib.sha256(d.tobytes()).hexdigest()
print(digest.hexdigest(), direction, result.termination, threads() - before)
"""


def _cpus():
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


two_cpus = pytest.mark.skipif(
    len(_cpus()) < 2 or not Path("/proc/self/task").is_dir(), reason="needs two CPUs and /proc"
)


def _run(code, *args):
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(atmtomo.solvers.__file__).parents[1]),
        OPENBLAS_NUM_THREADS="1",
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@needs_kernel
@two_cpus
def test_lbfgs_records_are_the_same_on_one_cpu_and_two():
    one = _run(SOLVE, str(_cpus()[0]))
    two = _run(SOLVE, ",".join(map(str, _cpus()[:2])))
    assert one[:3] == two[:3]
    # the helper ran on two CPUs only, so both paths were taken
    assert (one[3], two[3]) == ("0", "1")


@needs_kernel
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_computes_the_same_direction():
    rng = np.random.default_rng(5)
    n = 4 * CHUNK
    history = atmtomo.solvers.LbfgsHistory(4)
    for _ in range(6):
        s = rng.standard_normal(n)
        assert history.push(s, 2.0 * s + rng.standard_normal(n) * 0.1)
    gradient = rng.standard_normal(n)
    # the parent's helper is running (on two or more CPUs) when it forks
    want = atmtomo.solvers.two_loop_direction(history, gradient).tobytes()
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns on fork in a process with a thread
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            with os.fdopen(write, "wb") as out:
                out.write(atmtomo.solvers.two_loop_direction(history, gradient).tobytes())
        finally:
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 60
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not return")
        time.sleep(0.01)
    with os.fdopen(read, "rb") as got:
        assert got.read() == want


# an LDFP solve on the default scene, then an L-BFGS solve: prints the
# threads the process gained after each
LDFP_THEN_LBFGS = r"""
import copy
import os
import pickle
import numpy as np
from atmtomo import (
    Objective, add_noise, assemble_operator, make_grid, place_network, take_rays, true_profile,
)
from atmtomo.solvers import LbfgsOptions, lbfgs_trust_region, ldfp

def threads():
    return len(os.listdir("/proc/self/task"))

before = threads()
grid = make_grid(30, 30, 30, (0, 1, 0, 1, 0, 15))
op = assemble_operator(take_rays(place_network(grid, 15, 30, seed=7), 450))
data, _ = add_noise(op.apply(true_profile(grid).values), 0.001, seed=42)
objective = Objective(op, data, alpha=1e-13, grid=grid, beta=1e-2)
ldfp(objective, np.zeros(grid.n_nodes), max_iterations=2)
after_ldfp = threads()
lbfgs_trust_region(objective, np.zeros(grid.n_nodes), LbfgsOptions(max_iterations=3))
print(after_ldfp - before, threads() - before)
"""


@needs_kernel
@two_cpus
def test_ldfp_starts_no_thread():
    assert _run(LDFP_THEN_LBFGS) == ["0", "1"]
