"""Kernel backend selection: compiled extension when available, pure Python otherwise.

Set DOMPACK_FORCE_PY=1 to force the pure-Python kernel (used by the benchmark
and the backend-equivalence tests).  The compiled kernels raise OverflowError
on input past their 64-bit masks (a mask at or above 2**64, or more than 64
hitting-set rows after the superset reduction); the pure kernel answers it.
"""

from __future__ import annotations

import os
from contextlib import suppress

from . import _bb_py

try:
    from . import _bbkernel as _compiled
except ImportError:  # extension not built
    _compiled = None


def backend_name() -> str:
    # Without the extension the environment has nothing to choose.
    if _compiled is None or os.environ.get("DOMPACK_FORCE_PY") == "1":
        return "python"
    return "compiled"


def min_hitting_set(reqs):
    if backend_name() == "compiled":
        with suppress(OverflowError):
            return _compiled.min_hitting_set(reqs)
    return _bb_py.min_hitting_set(reqs)


def max_independent_set(adj, cand):
    if backend_name() == "compiled":
        with suppress(OverflowError):
            return _compiled.max_independent_set(adj, cand)
    return _bb_py.max_independent_set(adj, cand)
