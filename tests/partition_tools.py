"""Partition helpers used only by the tests."""

from hopflinks.partitions import cells


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Transposed diagram."""
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0))


def hook_length(lam: tuple[int, ...], i: int, j: int) -> int:
    """Hook length of cell (i, j): arm + leg + 1, counted from the cell.

    The per-cell reference that `partitions.hook_lengths` is compared against.
    """
    if (i, j) not in cells(lam):
        raise ValueError(f"cell ({i}, {j}) lies outside the diagram {lam!r}")
    arm = lam[i - 1] - j
    leg = sum(1 for r in range(i, len(lam)) if lam[r] >= j)
    return arm + leg + 1
