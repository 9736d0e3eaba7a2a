"""Coefficient distance between two Laurent symbols, for tests."""


def max_diff(a, b) -> float:
    """Largest absolute coefficient difference of two symbols of one dimension."""
    assert a.s == b.s, "dimension mismatch"
    ta, tb = a.terms(), b.terms()
    return max((abs(ta.get(e, 0) - tb.get(e, 0)) for e in ta.keys() | tb.keys()), default=0.0)
