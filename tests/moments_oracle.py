"""Test-only reference for ``inference.contrast_moments``.

This is the arithmetic the package used before the group moments were
computed in two reused buffers: each product and deviation a fresh
array.  The property tests require the buffered version to return its
bits, and its errors, for every input.
"""

import numpy as np


def contrast_moments(dy, d) -> tuple[np.ndarray, np.ndarray]:
    """DID contrast and its sqrt(n)-scaled variance along the last axis."""
    dy = np.asarray(dy, dtype=float)
    d = np.asarray(d, dtype=bool)
    n = d.shape[-1]
    n1 = np.count_nonzero(d, axis=-1)
    n0 = n - n1
    small = int(min(n0.min(), n1.min()))
    if small < 2:
        group = 0 if n0.min() == small else 1
        raise ValueError(
            f"insufficient group size: group d={group} has {small} unit(s), need >= 2"
        )
    w1 = d.astype(float)
    w0 = 1.0 - w1
    with np.errstate(over="ignore", invalid="ignore"):
        mean1 = (dy * w1).sum(axis=-1) / n1
        mean0 = (dy * w0).sum(axis=-1) / n0
        dev1 = (dy - mean1[..., None]) * w1
        dev0 = (dy - mean0[..., None]) * w0
        var1 = (dev1 * dev1).sum(axis=-1) / (n1 - 1)
        var0 = (dev0 * dev0).sum(axis=-1) / (n0 - 1)
        p = n1 / n
        m, var_m = mean1 - mean0, var1 / p + var0 / (1 - p)
    if not np.isfinite(m).all():
        raise ValueError("the DID contrast overflows float64; rescale the outcomes")
    if not np.isfinite(var_m).all():
        raise ValueError(
            "the variance of the DID contrast overflows float64; rescale the outcomes"
        )
    return m, var_m
