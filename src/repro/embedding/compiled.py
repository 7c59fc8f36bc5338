"""Whether numba is importable, recorded in the benchmark report stamps
(``benchmarks/conftest.py``, ``benchmarks/e2e/run.py``).

No training code uses numba: the execution backends are ``"reference"``
and ``"blocked"`` (:mod:`repro.embedding.kernels`).  The probe never
imports numba.
"""

import importlib.util

NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None
