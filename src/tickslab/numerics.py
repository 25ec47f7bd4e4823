"""Shared float discipline: 32-bit storage, 64-bit accumulation.

Matrix-vector products avoid BLAS on purpose: ``np.einsum`` with a plain
subscript spec runs numpy's own fixed-order sum-of-products loop, which
keeps results identical run-to-run regardless of thread count or BLAS
backend.  Activations are evaluated in float64 and clamped to the largest
float32 strictly inside (-1, 1) before storage, so saturation can never
round to exactly +-1.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

# Largest float32 below 1.0; activations are clamped to +-this value.
F32_INTERIOR = float(np.nextafter(np.float32(1.0), np.float32(0.0)))


def matvec(weights: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """float64 product ``weights @ vec``, per row if ``vec`` is 2-D; fixed order."""
    if weights.ndim != 2 or weights.shape[1] != vec.shape[-1]:
        raise DimensionMismatch(
            f"matvec: {weights.shape} incompatible with vector of {vec.shape[-1]}"
        )
    w = weights.astype(np.float64, copy=False)
    x = vec.astype(np.float64, copy=False)
    return np.einsum("ij,j->i" if vec.ndim == 1 else "ij,bj->bi", w, x)


def bounded_tanh(pre: np.ndarray) -> np.ndarray:
    """tanh in float64, stored as float32 strictly inside (-1, 1)."""
    out = np.tanh(pre.astype(np.float64, copy=False))
    # the same clamp as np.clip, without its Python-level wrapper
    np.maximum(out, -F32_INTERIOR, out=out)
    np.minimum(out, F32_INTERIOR, out=out)
    return out.astype(np.float32)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax in float64 (max-subtraction), along the last axis."""
    h = logits.astype(np.float64, copy=False)
    # the ufunc reductions np.max and np.sum run, without their wrappers
    shifted = h - np.maximum.reduce(h, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def entropy(probs: np.ndarray):
    """Shannon entropy in nats along the last axis; 0 * log 0 treated as 0.

    A float for one distribution, an array for a stack of them.  Zero
    entries add exact zeros; numpy sums rows of fewer than 8 entries in
    order, so there that equals summing the nonzero terms alone.
    """
    terms = probs * np.log(np.where(probs > 0.0, probs, 1.0))
    h = -np.add.reduce(terms, axis=-1)
    return float(h) if probs.ndim == 1 else h


def require_finite(arr: np.ndarray, what: str, exc: type[Exception]) -> None:
    if not np.all(np.isfinite(arr)):
        raise exc(f"{what} contains non-finite values")
