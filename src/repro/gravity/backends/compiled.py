"""Compiled backend: the C group-list kernels, built with the host's ``cc``.

``tilekernel.c`` streams each group's list through registers, as the
paper's GPU kernel does (Sec. III-A): one ``ctypes`` call per (source,
kind) evaluates the whole group-sorted pair list, gathers included.  Each
run (one source's part of one group's list) is summed per target in list
order, so forces match the numpy oracle to ``rtol=1e-12`` in float64 and
a forest's runs add bitwise what its sources add one by one.  Counts,
dense and pair-batch kernels are numpy's.

The library is built on first use (one ``cc`` call, both precisions)
into the first of ``$XDG_CACHE_HOME/repro``, ``~/.cache/repro`` and
``<tmp>/repro-<uid>`` that is this user's alone, named by a hash of the
source, flags and machine; ``os.replace`` from a private temporary name
makes concurrent builds safe.  ``target_clones`` picks the AVX-512, AVX2
or baseline body at load time, so one cache serves any CPU of the arch.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.resources
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from .base import BackendUnavailable
from ..treewalk import PRECISIONS, group_sorted_runs
from .numpy_backend import NumpyBackend

SOURCE = "tilekernel.c"

#: ``-fno-math-errno`` lets ``sqrt`` vectorise; ``-ffp-contract=off``
#: keeps numpy's sequence of IEEE operations (no fused multiply-add).
CFLAGS = ("-O3", "-fno-math-errno", "-ffp-contract=off", "-fPIC", "-shared")

_P, _I = ctypes.c_void_p, ctypes.c_int64
#: The runs, their count, eps2, the flag, the accumulators and the stride.
_TAIL = [_P] * 3 + [_I, ctypes.c_double, ctypes.c_int] + [_P] * 4 + [_I]
_ARGTYPES = {"pc": [_P] * 10 + [_I] + _TAIL, "pp": [_P] * 11 + _TAIL}


def cache_dirs() -> list[Path]:
    """Where the built library may live, in order of preference; the
    last is this user's own directory under the temporary directory."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    dirs = [Path(xdg) / "repro"] if xdg else []
    try:
        dirs.append(Path.home() / ".cache" / "repro")
    except RuntimeError:                # no HOME and no passwd entry
        pass
    return dirs + [Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"]


def _private(path: Path) -> bool:
    """Whether ``path`` is this user's and no one else can write it."""
    st = path.stat()
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def build(cc: str, dirs: list[Path] | None = None) -> Path:
    """The cached library, compiled into the first usable cache directory
    if none holds it; what others own or may write is never loaded."""
    src = importlib.resources.files(__package__).joinpath(SOURCE).read_bytes()
    key = hashlib.sha256(b"\0".join(
        [src, " ".join(CFLAGS).encode(), platform.machine().encode()]
    )).hexdigest()[:16]
    name = f"tilekernel-{key}.so"
    tried = []
    for d in dirs if dirs is not None else cache_dirs():
        try:
            d.mkdir(mode=0o700, parents=True, exist_ok=True)
            if not _private(d):
                raise PermissionError("not private to this user")
            if (d / name).is_file() and _private(d / name):
                return d / name
            fd, tmp = tempfile.mkstemp(suffix=".so", prefix=".build-", dir=d)
            os.close(fd)
        except OSError as exc:
            tried.append(f"{d}: {exc}")
            continue
        try:
            proc = subprocess.run([cc, *CFLAGS, "-o", tmp, "-x", "c", "-"],
                                  input=src, capture_output=True)
            if proc.returncode != 0:
                raise BackendUnavailable(
                    f"{cc} failed to build {SOURCE}:\n"
                    + proc.stderr.decode(errors="replace"))
            os.chmod(tmp, 0o700)
            os.replace(tmp, d / name)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return d / name
    raise BackendUnavailable("no usable cache directory for the compiled "
                             "kernel: " + "; ".join(tried))


def _array(a) -> np.ndarray:
    """``a`` as the C-contiguous int64 or float64 array the kernels read."""
    kind = np.int64 if np.asarray(a).dtype.kind in "iub" else np.float64
    return np.ascontiguousarray(a, dtype=kind)


def _acc_pointers(accx, accy, accz, accp, n: int) -> list:
    """Pointers to the ``n`` targets' accumulators, and x/y/z's stride."""
    cols = (accx, accy, accz, accp)
    if {c.dtype for c in cols} != {np.dtype(np.float64)} \
            or {len(c) for c in cols} != {n} or accp.strides != (8,) \
            or not accx.strides == accy.strides == accz.strides:
        raise ValueError("accumulators must be float64 (n, 3) columns "
                         "and a contiguous (n,) array, n = len(targets)")
    return [c.ctypes.data for c in cols] + [accx.strides[0] // 8]


class CompiledBackend(NumpyBackend):
    """``tilekernel.c`` behind the ``evaluate_pc``/``evaluate_pp`` hooks."""

    def __init__(self, name: str = "compiled"):
        super().__init__(name)
        self._lock = threading.Lock()
        self._fns = None
        self._reason = None

    def unavailable_reason(self) -> str | None:
        with self._lock:
            if self._fns is None and self._reason is None:
                self._reason = self._load()
        return self._reason

    def _load(self) -> str | None:
        """Build and bind the kernels; why they are unusable, or None."""
        cc = shutil.which("cc")
        if cc is None:
            return "no C compiler: 'cc' is not on PATH"
        try:
            lib = ctypes.CDLL(str(build(cc)))
        except (BackendUnavailable, OSError) as exc:
            return str(exc)
        self._fns = {}
        for kind, argtypes in _ARGTYPES.items():
            for precision in PRECISIONS:
                fn = getattr(lib, f"eval_{kind}_f{precision[-2:]}")
                fn.argtypes, fn.restype = argtypes, ctypes.c_int
                self._fns[kind, precision] = fn
        return None

    def warmup(self, precision: str = "float64") -> None:
        """Build (or load) the library now, outside every timed region."""
        self.unavailable_reason()

    def _call(self, kind, ws, arrays, mid, runs, eps2, flag, acc) -> None:
        if self.unavailable_reason() is not None:
            raise BackendUnavailable(self._reason)
        arrays = [None if a is None else _array(a) for a in arrays]
        runs = [_array(r) for r in runs]
        ptrs = [None if a is None else a.ctypes.data for a in arrays]
        if self._fns[kind, ws.precision](
                *ptrs, *mid, *(r.ctypes.data for r in runs), len(runs[1]),
                eps2, int(flag), *_acc_pointers(*acc, len(arrays[0]))):
            raise MemoryError(f"{SOURCE}: scratch allocation failed")

    def evaluate_pc(self, accx, accy, accz, accp, tview, sv,
                    pc_g, pc_c, group_first, group_count,
                    eps2, quadrupole, counts, chunk, ws) -> None:
        if quadrupole and sv.quad is None:
            raise ValueError("quadrupole evaluation needs source quadrupoles")
        counts.n_pc += int(group_count[pc_g].sum())
        quad = sv.quad if quadrupole else None
        self._call("pc", ws, [*tview, group_first, group_count, sv.com_x,
                              sv.com_y, sv.com_z, sv.mass, quad],
                   [len(sv.mass)],
                   group_sorted_runs(pc_g, pc_c, sv.cell_offsets),
                   eps2, quadrupole, (accx, accy, accz, accp))

    def evaluate_pp(self, accx, accy, accz, accp, tview, sv,
                    pp_g, pp_c, group_first, group_count,
                    eps2, counts, exclude_self, chunk, ws) -> None:
        counts.n_pp += int((group_count[pp_g] * sv.body_count[pp_c]).sum())
        self._call("pp", ws, [*tview, group_first, group_count,
                              sv.body_first, sv.body_count, sv.sx, sv.sy,
                              sv.sz, sv.smass],
                   [], group_sorted_runs(pp_g, pp_c, sv.cell_offsets),
                   eps2, exclude_self, (accx, accy, accz, accp))
