"""Process preparation shared by the benchmark's entry scripts.

Imported before numpy: BLAS thread counts are read when numpy loads, so
they are pinned here, and the checkout's own ``src/`` is put first on the
import path so that the benchmark always measures the tree it sits in.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    pass


def prepare() -> Path:
    """Pin BLAS to one thread and make ``src/holisde`` importable; returns the root."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "holisde" / "__init__.py").is_file():
        raise MissingSource(f"no holisde sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    return ROOT


def check_imported(module) -> None:
    """Refuse to measure an installed copy of the package instead of the checkout."""
    where = Path(module.__file__).resolve()
    if SRC not in where.parents:
        raise MissingSource(f"holisde imported from {where}, not from {SRC}")
