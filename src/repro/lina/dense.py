"""Dense-matrix helpers shared by the runtime, cost model, and data gens.

Dense blocks are plain ``np.ndarray`` (float64, C-order) throughout the
repo; this module holds the few named helpers that other layers need so
size/FLOP accounting lives in one place.
"""
from __future__ import annotations

DOUBLE_BYTES = 8


def size_bytes(nrows: int, ncols: int, sparsity: float = 1.0) -> float:
    """Estimated in-memory size: dense is 8B/cell; sparse CSR is ~16B/nnz
    (8B value + 8B column index; indptr amortized)."""
    if sparsity >= 0.4 or ncols <= 1:  # SystemML-like dense/sparse format cutover
        return float(nrows) * ncols * DOUBLE_BYTES
    return float(nrows) * ncols * sparsity * 2 * DOUBLE_BYTES
