"""Bitmask helpers for item sets and bundle sets.

Item sets and bundle (block) sets are plain ints: bit j set means element j
is in the set.  Tie-breaks throughout the package compare masks numerically,
so "first" always means the numerically smallest mask.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


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


def subset_sums(values: Sequence[int]) -> list[int]:
    """The sum of values[j] over the bits j of every mask below 2^len(values).

    Built by doubling: the masks with bit j set are those below 2^j plus
    bit j, so bit j appends their sums plus values[j], in one C-level pass.
    """
    table = [0]
    for value in values:
        table += [t + value for t in table]
    return table


def subset_unions(masks: Sequence[int]) -> list[int]:
    """The union of masks[j] over the bits j of every mask below 2^len(masks),
    built by doubling as `subset_sums` is."""
    table = [0]
    for mask in masks:
        table += [t | mask for t in table]
    return table
