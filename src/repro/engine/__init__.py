"""repro.engine — the vectorized fast simulation backend.

The simulation core has two interchangeable engines selected by
``SimConfig.backend`` (overridable with the ``REPRO_BACKEND``
environment variable):

* ``reference`` — the original engine: per-thread
  :class:`~repro.cpu.thread.ThreadModel` objects and a ``heapq`` event
  loop.  This is the semantic ground truth; every golden fingerprint
  was minted on it.
* ``fast`` — this package: the per-thread CPU sliding-window model
  restructured into struct-of-arrays batch form
  (:mod:`repro.engine.cpu`), and the event heap replaced by a bucketed
  timing wheel (:mod:`repro.engine.wheel`) whose pop order reproduces
  the heap's ``(time, seq)`` tie-break exactly.

Both backends draw the per-thread jitter and address streams through
the block-buffered, bit-exact PCG64 façades of
:mod:`repro.engine.rng`, which hand out the very values scalar
``numpy.random.Generator`` calls would.

The two backends are **bit-identical by contract**: identical
:class:`~repro.sim.results.RunResult`, telemetry counters and span
tilings on every input.  The contract is enforced by the cross-backend
parity matrix (``tests/engine/test_backend_parity.py``), the
hypothesis property suite, and ``scripts/update_goldens.py --check
--backend both``.  Because of that contract, ``backend`` is excluded
from ``SimConfig.cache_key()`` and the campaign content hashes —
alone-IPC caches and campaign stores are shared across backends.

See docs/PERFORMANCE.md ("Backends and the parity contract").
"""

from __future__ import annotations

import os

#: Environment variable overriding ``SimConfig.backend``.
BACKEND_ENV = "REPRO_BACKEND"

#: Recognised backend names.
BACKENDS = ("reference", "fast")

try:  # numpy is a hard dependency of the core today, but the fast
    # backend is declared against the ``repro[fast]`` extra so a
    # future numpy-free core keeps a clean skip path.
    import numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised only without numpy
    HAS_NUMPY = False


def resolve_backend(configured: str) -> str:
    """The backend a run should use: env override, then the config.

    Raises ``ValueError`` on an unknown name in either source, and
    when the fast backend is requested without numpy installed.
    """
    backend = os.environ.get(BACKEND_ENV) or configured
    if backend not in BACKENDS:
        source = BACKEND_ENV if os.environ.get(BACKEND_ENV) else "config"
        raise ValueError(
            f"unknown backend {backend!r} from {source} "
            f"(expected one of {BACKENDS})"
        )
    if backend == "fast" and not HAS_NUMPY:
        raise RuntimeError(
            "backend 'fast' requires numpy — install repro[fast]"
        )
    return backend


from repro.engine.wheel import TimingWheel  # noqa: E402

if HAS_NUMPY:
    from repro.engine.rng import BufferedPCG64  # noqa: E402
else:  # pragma: no cover - exercised only without numpy
    BufferedPCG64 = None  # the wheel itself is numpy-free

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "HAS_NUMPY",
    "BufferedPCG64",
    "TimingWheel",
    "resolve_backend",
]
