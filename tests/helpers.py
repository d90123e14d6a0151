"""Helpers that several test modules import."""


def residuals_vanish(F, residuals) -> bool:
    """Whether every scalar of a residual system, a stream of (name, scalar)
    pairs, is zero.  Stops at the first nonzero scalar, so a lazy stream is
    evaluated no further."""
    return all(F.is_zero(v) for _, v in residuals)
