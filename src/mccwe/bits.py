"""Bitmask helpers for item sets and bundle sets.

Item sets and bundle (block) sets are plain ints: bit j set means element j
is in the set.  Tie-breaks throughout the package compare masks numerically,
so "first" always means the numerically smallest mask.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def mask_of(items: Iterable[int]) -> int:
    mask = 0
    for j in items:
        mask |= 1 << j
    return mask


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def items_of(mask: int) -> list[int]:
    return list(bits_of(mask))


def full_mask(m: int) -> int:
    return (1 << m) - 1
