"""Former home of the CSR message-plane engine.

The CSR message plane (bucket-major slabs, the float32 tier) is
now the only batch layout, implemented once by
:class:`~repro.simulation.vectorized.VectorizedEngine`.  The benchmark's
layer trace (``perfbench/layers.py``) still imports :class:`SparseEngine`
from here, so the name stays until that trace is updated.
"""

from __future__ import annotations

from repro.simulation.vectorized import VectorizedEngine


class SparseEngine(VectorizedEngine):
    """Alias of :class:`~repro.simulation.vectorized.VectorizedEngine`.

    It adds nothing; new code should construct ``VectorizedEngine``, which
    takes the same ``dtype`` argument.
    """
