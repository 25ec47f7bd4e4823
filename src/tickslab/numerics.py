"""Shared float discipline: float64 weights and accumulation, float32 state.

Every product on the step path is a fixed-order sum: ``matvec``'s
``np.einsum`` with a plain subscript spec (numpy's own sum-of-products loop)
or ``affect.modulate_epsilon``'s left-to-right loop, never BLAS, whose
kernel OpenBLAS picks per CPU.  Activations are evaluated in float64 and
clamped to the largest float32 strictly inside (-1, 1) before storage, so
saturation never rounds to exactly +-1.  Every weight is drawn as float32 and
held once, in float64, by its bundle (``hold_float64``), so no call casts one.
"""

from __future__ import annotations

import inspect

import numpy as np

# The least magnitude that a float32 cast rounds to inf: the largest float32
# plus half its ulp, a tie that rounds to even, up.
F32_OVERFLOW = 2.0**128 - 2.0**103
# Largest float32 below 1.0; activations are clamped to +-this value.
F32_INTERIOR = float(np.nextafter(np.float32(1.0), np.float32(0.0)))
# np.einsum without its __array_function__ dispatch, a per-call cost that
# only array types other than ndarray need; inspect.unwrap reaches the same
# function that np.einsum runs on ndarrays.
einsum = inspect.unwrap(np.einsum)
# The clamp bounds as 0-d float64 arrays: a ufunc takes these as they are,
# while a Python float is converted to an array again on every call.
_LOWER, _UPPER = np.array(-F32_INTERIOR), np.array(F32_INTERIOR)


def matvec(weights: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """float64 product ``weights @ vec``, per row if ``vec`` is 2-D; fixed order."""
    x = vec.astype(np.float64, copy=False)
    return einsum("ij,j->i" if vec.ndim == 1 else "ij,bj->bi", weights, x)


def hold_float64(bundle, *names: str) -> None:
    """Set each named array of the frozen dataclass ``bundle`` to its own
    read-only float64 form, so an in-place write raises and no call casts
    it; ``dataclasses.replace`` redoes this, as it runs ``__post_init__``."""
    for name in names:
        weights = getattr(bundle, name).astype(np.float64, copy=False)
        weights.flags.writeable = False
        object.__setattr__(bundle, name, weights)


def bounded_tanh(pre: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """tanh in float64, stored as float32 strictly inside (-1, 1), into ``out``
    if given.  ``pre`` must be a writable float64 array (every caller passes a
    ``matvec`` result or a work buffer); it is worked on in place."""
    np.tanh(pre, out=pre)
    # np.clip's clamp without its Python-level wrapper, against bounds built
    # once; the same float64 values, so the same results
    np.maximum(pre, _LOWER, out=pre)
    np.minimum(pre, _UPPER, out=pre)
    if out is None:
        return pre.astype(np.float32)
    out[...] = pre
    return out
