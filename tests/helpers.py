"""Helpers that several test modules import."""


def residuals_vanish(F, residuals) -> bool:
    """Whether every scalar of a residual system, a stream of (name, scalar)
    pairs, is zero.  Stops at the first nonzero scalar, so a lazy stream is
    evaluated no further."""
    return all(F.is_zero(v) for _, v in residuals)


def mat_add(F, A, B):
    """The entrywise sum of two matrices of the same shape."""
    return tuple(tuple(F.add(a, b) for a, b in zip(r, s))
                 for r, s in zip(A, B))
