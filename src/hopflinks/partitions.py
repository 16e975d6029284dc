"""Young-diagram combinatorics: cells, hooks, tableau counts, and
Littlewood-Richardson coefficients.

Partitions are plain tuples of weakly decreasing positive ints; the
empty partition is ().  Cells are 1-indexed (row, col) pairs.
"""

from __future__ import annotations

from functools import cache
from math import factorial, prod
from typing import NamedTuple

__all__ = [
    "Partition",
    "BasisLabel",
    "cells",
    "contents",
    "hook_lengths",
    "partitions_of",
    "partition_counts",
    "basis_labels",
    "label_count",
    "syt_count",
    "lr_coeff",
]

Partition = tuple[int, ...]


def _check_partition(p: Partition) -> None:
    for i, part in enumerate(p):
        if not isinstance(part, int) or part < 1:
            raise ValueError(f"invalid partition {p!r}: parts must be positive integers")
        if i and p[i - 1] < part:
            raise ValueError(f"invalid partition {p!r}: parts must be weakly decreasing")


def cells(lam: Partition) -> list[tuple[int, int]]:
    """All cells (i, j) of the diagram, row-major, 1-indexed."""
    _check_partition(lam)
    return [(i + 1, j + 1) for i, row in enumerate(lam) for j in range(row)]


def contents(lam: Partition) -> list[int]:
    """Multiset of cell contents j - i, in row-major cell order."""
    return [j - i for i, j in cells(lam)]


def hook_lengths(lam: Partition) -> list[int]:
    """Hook lengths of all cells, row-major, with the shape checked once.

    Cell (i, j) has arm lam_i - j and leg lam'_j - i, lam' the conjugate shape.
    """
    _check_partition(lam)
    conj = [sum(1 for row in lam if row > j) for j in range(lam[0] if lam else 0)]
    return [row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row)]


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")

    def gen(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n)) if n else ((),)


@cache
def partition_counts(n: int) -> tuple[int, ...]:
    """The partition numbers p(0), ..., p(n), by Euler's pentagonal recurrence."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:  # g and g + k are the generalized pentagonal numbers
            sign = 1 if k % 2 else -1
            total += sign * (p[m - g] + (p[m - g - k] if g + k <= m else 0))
            k += 1
        p.append(total)
    return tuple(p)


class BasisLabel(NamedTuple):
    """Ordered pair of shapes indexing the two-sided basis elements.

    `neg` labels the clockwise strings, `pos` the counterclockwise ones.
    """

    neg: Partition
    pos: Partition

    def to_json(self) -> dict[str, list[int]]:
        return {"neg": list(self.neg), "pos": list(self.pos)}


@cache
def basis_labels(n: int, p: int) -> tuple[BasisLabel, ...]:
    """Labels (neg, pos) with |neg| <= n, |pos| <= p and |neg| - |pos| = n - p.

    There are `label_count(n, p)` of them.
    """
    if n < 0 or p < 0:
        raise ValueError("string counts must be nonnegative")
    out = []
    for j in range(min(n, p) + 1):
        for lam in partitions_of(n - j):
            for mu in partitions_of(p - j):
                out.append(BasisLabel(lam, mu))
    return tuple(out)


def label_count(n: int, p: int) -> int:
    """len(basis_labels(n, p)) without building them: sum_j p(n - j) p(p - j), j = 0..min(n, p)."""
    if n < 0 or p < 0:
        raise ValueError("string counts must be nonnegative")
    counts = partition_counts(max(n, p))
    return sum(counts[n - j] * counts[p - j] for j in range(min(n, p) + 1))


def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook-length formula)."""
    return factorial(sum(lam)) // prod(hook_lengths(lam))


def _contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


@cache
def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu, nu}.

    Counts column-strict fillings of the skew shape lam/mu with content
    nu whose reverse reading word is a lattice word.  Cells are visited
    in reverse reading order (right to left along each row, top row
    first) so the lattice condition can be checked incrementally.
    """
    _check_partition(lam)
    _check_partition(mu)
    _check_partition(nu)
    if sum(mu) + sum(nu) != sum(lam) or not _contains(lam, mu):
        return 0
    if not nu:
        return 1
    inner = tuple(mu) + (0,) * (len(lam) - len(mu))
    order = [
        (i, j)
        for i in range(len(lam))
        for j in range(lam[i] - 1, inner[i] - 1, -1)
    ]
    bound = list(nu)
    counts = [0] * (len(nu) + 1)
    filling: dict[tuple[int, int], int] = {}
    total = 0

    def place(pos: int) -> None:
        nonlocal total
        if pos == len(order):
            total += 1
            return
        i, j = order[pos]
        above = filling.get((i - 1, j), 0)  # inner/outside cells act as 0
        right = filling.get((i, j + 1))
        hi = len(nu) if right is None else right
        for k in range(above + 1, hi + 1):
            if counts[k - 1] >= bound[k - 1]:
                continue
            if k > 1 and counts[k - 2] <= counts[k - 1]:
                continue
            counts[k - 1] += 1
            filling[(i, j)] = k
            place(pos + 1)
            del filling[(i, j)]
            counts[k - 1] -= 1

    place(0)
    return total
