"""Kernel backend selection: compiled extension when available, pure Python otherwise.

Set DOMPACK_FORCE_PY=1 to force the pure-Python kernel (used by the benchmark
and the backend-equivalence tests).  Instances wider than 64 vertices always
take the pure path since the compiled kernels work on 64-bit masks.  So does a
hitting-set input with more than 64 requirement rows left after the superset
reduction: both kernels search on a mask over those rows, and the compiled one
raises OverflowError when they do not fit in 64 bits.
"""

from __future__ import annotations

import os

from . import _bb_py

try:
    from . import _bbkernel as _compiled
except ImportError:  # extension not built
    _compiled = None


def _force_py() -> bool:
    return os.environ.get("DOMPACK_FORCE_PY") == "1"


def backend_name() -> str:
    return "python" if _compiled is None or _force_py() else "compiled"


def min_hitting_set(reqs, owners, width):
    if _compiled is not None and not _force_py() and width <= 64:
        try:
            return _compiled.min_hitting_set(reqs, owners)
        except OverflowError:  # more than 64 rows after reduction
            pass
    return _bb_py.min_hitting_set(reqs, owners)


def max_independent_set(adj, cand, width):
    if _compiled is not None and not _force_py() and width <= 64:
        return _compiled.max_independent_set(adj, cand)
    return _bb_py.max_independent_set(adj, cand)
