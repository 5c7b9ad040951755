"""Partitions, compositions, hook lengths, and counting helpers.

Compositions and partitions are plain tuples of positive ints; a partition
is the non-increasing representative.  The empty tuple is the unique
composition of 0.  All generators are lazy and yield in a fixed
deterministic order.
"""

from __future__ import annotations

from itertools import repeat
from math import factorial
from typing import Iterator, Sequence


def is_partition(mu: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(mu, mu[1:])) and all(p >= 1 for p in mu)


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n in reverse-lexicographic order (largest part first).

    A loop, not a recursion (algorithm ZS1 of Zoghbi and Stojmenovic,
    1998): parts[:size] is the current partition, every part after index
    `last` is 1, and each step lowers parts[last] by one and refills the
    tail with as many copies of the lowered part as fit, then the rest.
    """
    if n < 0:
        raise ValueError("partitions need n >= 0")
    if n == 0:
        yield ()
        return
    parts = [n] + [1] * (n - 1)
    size, last = 1, 0
    yield (n,)
    while parts[0] != 1:
        if parts[last] == 2:
            parts[last] = 1
            size, last = size + 1, last - 1
        else:
            part = parts[last] - 1
            rest = size - last  # the units freed: one from parts[last], plus its ones
            parts[last] = part
            while rest >= part:
                last += 1
                parts[last] = part
                rest -= part
            size = last + 1 if rest == 0 else last + 2
            if rest > 1:
                last += 1
                parts[last] = rest
        yield tuple(parts[:size])


def compositions_of(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All compositions of n with exactly k parts, lexicographically.

    A loop, not a recursion, so k is not bounded by the stack: from the
    first composition (1, ..., 1, n-k+1), each step moves one unit from
    the rightmost part above 1 to the part before it, and the rest of
    that part to the end.
    """
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"compositions need n >= 1 and 1 <= k <= n, got n={n}, k={k}")
    parts = [1] * (k - 1) + [n - k + 1]
    while True:
        yield tuple(parts)
        j = k - 1
        while j and parts[j] == 1:
            j -= 1
        if not j:
            return
        rest = parts[j] - 1
        parts[j - 1] += 1
        parts[j] = 1
        parts[-1] = rest


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / prod parts_i!; the parts must sum to n."""
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {tuple(parts)} do not sum to {n}")
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


def stirling_rows(max_n: int) -> Iterator[list[int]]:
    """Rows [|s(n, 0)|, ..., |s(n, n)|] of the unsigned Stirling numbers of
    the first kind for n = 0..max_n, in order.

    Triangle recurrence |s(n+1, m)| = n |s(n, m)| + |s(n, m-1)|.
    """
    if max_n < 0:
        raise ValueError("Stirling numbers need n >= 0")
    row = [1]
    yield row
    for k in range(max_n):
        row = [k * above + left for above, left in zip(row + [0], [0] + row)]
        yield row


def conjugate(lam: Sequence[int]) -> tuple[int, ...]:
    """Conjugate (transposed) partition, in one sweep up the rows: the
    columns j with lam[i+1] <= j < lam[i] (lam[len(lam)] read as 0) have
    i + 1 cells, so walking the rows from the bottom up appends the column
    lengths left to right."""
    out: list[int] = []
    for i in range(len(lam) - 1, -1, -1):
        out += repeat(i + 1, lam[i] - len(out))
    return tuple(out)


def hook_multiset(lam: Sequence[int]) -> tuple[int, ...]:
    """Hook lengths (arm + leg + 1) of all cells of the Young diagram, sorted."""
    if not is_partition(lam):
        raise ValueError(f"{tuple(lam)} is not a partition")
    conj = conjugate(lam)
    # cell (i, j) has arm row - j - 1 and leg conj[j] - i - 1
    hooks = [row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row)]
    return tuple(sorted(hooks))
