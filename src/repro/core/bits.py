"""Bit-level utilities for quadrant (bucket) arithmetic.

The paper partitions the ``[0, 1]^d`` data space exactly once per dimension,
so a bucket is a *quadrant* identified by a bitstring ``(c_0, ..., c_{d-1})``
with ``c_i`` telling whether the bucket lies above the split value in
dimension ``i``.  Definition 2 of the paper packs that bitstring into an
integer *bucket number* ``bn = sum(c_i * 2**i)``.

Everything downstream (the coloring function, the neighborhood definitions,
the disk-assignment graph) is arithmetic on these bucket numbers, so the
helpers live in one small module.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "bucket_number",
    "bucket_coordinates",
    "popcount",
    "hamming_distance",
    "set_bit_positions",
    "gray_code",
    "gray_decode",
    "direct_neighbors",
    "indirect_neighbors",
    "all_neighbors",
    "is_direct_neighbor",
    "is_indirect_neighbor",
    "next_power_of_two",
    "bucket_numbers_for_points",
]


def bucket_number(coordinates: Sequence[int]) -> int:
    """Pack quadrant coordinates ``(c_0, ..., c_{d-1})`` into a bucket number.

    Definition 2 of the paper: ``bn(b) = sum_i c_i * 2**i``.  Coordinate
    ``c_i`` must be 0 or 1.

    >>> bucket_number([1, 0, 1])
    5
    """
    number = 0
    for position, coordinate in enumerate(coordinates):
        if coordinate not in (0, 1):
            raise ValueError(
                f"quadrant coordinate must be 0 or 1, got {coordinate!r} "
                f"at dimension {position}"
            )
        if coordinate:
            number |= 1 << position
    return number


def bucket_coordinates(number: int, dimension: int) -> Tuple[int, ...]:
    """Unpack a bucket number back into its quadrant coordinates.

    Inverse of :func:`bucket_number` for buckets of the given ``dimension``.

    >>> bucket_coordinates(5, 3)
    (1, 0, 1)
    """
    if number < 0:
        raise ValueError(f"bucket number must be non-negative, got {number}")
    if number >= (1 << dimension):
        raise ValueError(
            f"bucket number {number} does not fit in {dimension} dimensions"
        )
    return tuple((number >> i) & 1 for i in range(dimension))


def popcount(value: int) -> int:
    """Number of set bits in ``value`` (non-negative)."""
    if value < 0:
        raise ValueError(f"popcount requires a non-negative value, got {value}")
    return bin(value).count("1")


def hamming_distance(a: int, b: int) -> int:
    """Number of bit positions in which ``a`` and ``b`` differ."""
    return popcount(a ^ b)


def set_bit_positions(value: int) -> List[int]:
    """Positions (LSB = 0) of the set bits of ``value``, ascending."""
    positions = []
    position = 0
    while value:
        if value & 1:
            positions.append(position)
        value >>= 1
        position += 1
    return positions


def gray_code(value: int) -> int:
    """Binary-reflected Gray code of ``value``."""
    if value < 0:
        raise ValueError(f"gray_code requires a non-negative value, got {value}")
    return value ^ (value >> 1)


def gray_decode(code: int) -> int:
    """Inverse of :func:`gray_code`."""
    if code < 0:
        raise ValueError(f"gray_decode requires a non-negative value, got {code}")
    value = 0
    while code:
        value ^= code
        code >>= 1
    return value


def direct_neighbors(bucket: int, dimension: int) -> Iterator[int]:
    """Yield the ``d`` buckets that differ from ``bucket`` in exactly one bit.

    Definition 3 (direct neighborhood ``~d``): two buckets are direct
    neighbors iff their quadrant coordinates differ in exactly one dimension.
    """
    if not 0 <= bucket < (1 << dimension):
        raise ValueError(
            f"bucket {bucket} is not a valid bucket number for d={dimension}"
        )
    for i in range(dimension):
        yield bucket ^ (1 << i)


def indirect_neighbors(bucket: int, dimension: int) -> Iterator[int]:
    """Yield the ``d*(d-1)/2`` buckets differing from ``bucket`` in two bits.

    Definition 3 (indirect neighborhood ``~i``): coordinates differ in exactly
    two dimensions.  Geometrically, indirect neighbors share a
    ``(d-2)``-dimensional surface of the data space.
    """
    if not 0 <= bucket < (1 << dimension):
        raise ValueError(
            f"bucket {bucket} is not a valid bucket number for d={dimension}"
        )
    for i in range(dimension):
        for j in range(i + 1, dimension):
            yield bucket ^ (1 << i) ^ (1 << j)


def all_neighbors(bucket: int, dimension: int) -> Iterator[int]:
    """Yield direct then indirect neighbors of ``bucket``."""
    yield from direct_neighbors(bucket, dimension)
    yield from indirect_neighbors(bucket, dimension)


def is_direct_neighbor(a: int, b: int) -> bool:
    """True iff buckets ``a`` and ``b`` differ in exactly one bit."""
    return hamming_distance(a, b) == 1


def is_indirect_neighbor(a: int, b: int) -> bool:
    """True iff buckets ``a`` and ``b`` differ in exactly two bits."""
    return hamming_distance(a, b) == 2


def next_power_of_two(value: int) -> int:
    """Round ``value`` up to the next power of two (Lemma 6's ⌈·⌉₂).

    >>> [next_power_of_two(v) for v in (1, 2, 3, 5, 8, 9)]
    [1, 2, 4, 8, 8, 16]
    """
    if value < 1:
        raise ValueError(f"next_power_of_two requires value >= 1, got {value}")
    return 1 << (value - 1).bit_length()


def bucket_numbers_for_points(
    points: np.ndarray, split_values: np.ndarray
) -> np.ndarray:
    """Vectorized bucket numbers for an ``(N, d)`` array of points.

    ``split_values`` is the per-dimension split (``0.5`` for the midpoint
    split, an α-quantile for the adaptive extension).  A point's quadrant
    coordinate in dimension ``i`` is 1 iff ``point[i] >= split_values[i]``.
    At ``d = 64`` the numbers are uint64: bit 63 overflows int64.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got shape {points.shape}")
    split_values = np.asarray(split_values, dtype=float)
    if split_values.shape != (points.shape[1],):
        raise ValueError(
            f"split_values shape {split_values.shape} does not match "
            f"dimensionality {points.shape[1]}"
        )
    above = points >= split_values
    dtype = np.uint64 if points.shape[1] >= 64 else np.int64
    weights = dtype(1) << np.arange(points.shape[1], dtype=dtype)
    return (above.astype(dtype) * weights).sum(axis=1, dtype=dtype)
