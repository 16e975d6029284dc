"""Partition helpers used only by the tests."""


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Transposed diagram."""
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0))
