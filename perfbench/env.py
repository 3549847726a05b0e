"""Process environment for the benchmark: thread pinning, source path, provenance.

`fix_hash_seed` must run first, and `pin_threads` before numpy is imported
anywhere in the process.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HASH_SEED = "0"  # str hashing without per-process randomization


def fix_hash_seed() -> None:
    """Re-execute this interpreter with a fixed PYTHONHASHSEED, unless it has one.

    A random str hash seed per process changes the layout of the
    interpreter's str-keyed dicts, and with it the speed of the same trials
    by up to about 10% from one process to the next, on top of host noise.
    The library's own results do not depend on it (it sorts its terms).
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])


def pin_threads() -> None:
    """One BLAS/OpenMP thread: unpinned, the same d = 6 mep solve ranges 112-798 ms."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import polylab from this checkout's src/, never from an installed copy.

    Raises FileNotFoundError when the checkout holds no source tree.
    """
    if not (SRC / "polylab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no polylab source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polylab

    if Path(polylab.__file__).resolve().parent != (SRC / "polylab").resolve():
        raise ImportError(f"polylab imported from {polylab.__file__}, not {SRC}")


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_libraries() -> list:
    """File names of the mapped shared libraries that mention BLAS or LAPACK."""
    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 6:
                    name = os.path.basename(parts[5])
                    low = name.lower()
                    if low.startswith("lib") and ("blas" in low or "lapack" in low):
                        libs.add(name)
    except OSError:
        return ["unavailable"]
    return sorted(libs)


def describe() -> dict:
    """Versions, CPU count, thread settings, loaded BLAS copies and commit."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS + ("POLYLAB_THREADS",)},
        "python_hash_seed": os.environ.get("PYTHONHASHSEED", "unset"),
        "blas_libraries": _blas_libraries(),
        "commit": git_commit(),
    }
