"""The compiled kernels: their build cache, their failure paths and their packaging."""

import re
import shutil
import stat
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

import atmtomo.forward
import atmtomo.solvers
import atmtomo.tv
import helpers
from atmtomo import _kernel, read_csv
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
