"""Vectors, subspaces, flats, and hyperplanes of the binary projective geometry.

Words are plain integers: coordinate i of GF(2)^r is bit i, so vector
addition is XOR and the dot product is the parity of the bitwise AND.
A flat of the geometry is the set of nonzero words of a subspace; it is
stored through the unique reduced-echelon basis of that subspace (pivot =
lowest set bit of a row, rows mutually reduced, sorted by pivot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import GeometryError
from .pointset import SMALL_SET_POINTS, PointSet, cached, check_normal, check_rank, pointset_from_words


def dot(a: int, b: int) -> int:
    """Standard dot product of two words: parity of the shared bits."""
    return (a & b).bit_count() & 1


def _reduce_insert(rows: dict[int, int], v: int) -> bool:
    """Insert v into a pivot->row reduced basis; return False if dependent.

    Keeps the full reduced invariant: every pivot bit appears in exactly
    one row, so the basis read off in pivot order is the unique reduced
    echelon form of the span.
    """
    for q, row in rows.items():
        if (v >> q) & 1:
            v ^= row
    if v == 0:
        return False
    p = (v & -v).bit_length() - 1
    for q, other in rows.items():
        if (other >> p) & 1:
            rows[q] = other ^ v
    rows[p] = v
    return True


def echelon_basis(vectors: Iterable[int]) -> tuple[int, ...]:
    """The canonical reduced-echelon basis of the span of the given words."""
    rows: dict[int, int] = {}
    for v in vectors:
        _reduce_insert(rows, v)
    return tuple(rows[p] for p in sorted(rows))


def rank_of(vectors: Iterable[int], full: Optional[int] = None) -> int:
    """GF(2) rank of a collection of words; 0 for the empty collection.

    Given ``full``, the largest rank the words can have (their ambient
    rank), it stops as soon as that many are independent.
    """
    rows: dict[int, int] = {}
    n = 0
    for v in vectors:
        if _reduce_insert(rows, v):
            n += 1
            if n == full:
                break
    return n


@dataclass(frozen=True)
class Flat:
    """A flat of the rank-r geometry: the nonzero part of a subspace."""

    ambient_rank: int
    basis: tuple[int, ...] = field(default=())

    def __post_init__(self):
        check_rank(self.ambient_rank)
        top = 1 << self.ambient_rank
        for v in self.basis:
            if not 0 < v < top:
                raise GeometryError(f"basis word {v} is outside the rank-{self.ambient_rank} ambient")
        if tuple(echelon_basis(self.basis)) != tuple(self.basis):
            raise GeometryError("basis is not in canonical reduced-echelon form")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def corank(self) -> int:
        return self.ambient_rank - self.rank

    @cached
    def pivots(self) -> tuple[int, ...]:
        return tuple((v & -v).bit_length() - 1 for v in self.basis)


def closure(ambient_rank: int, points: Iterable[int]) -> Flat:
    """The flat spanned by the given points; the rank-0 flat for none."""
    check_rank(ambient_rank)
    top = 1 << ambient_rank
    pts = list(points)
    for w in pts:
        if not 0 < w < top:
            raise GeometryError(f"{w} is not a point of a rank-{ambient_rank} geometry")
    return Flat(ambient_rank, echelon_basis(pts))


def flat_points(f: Flat) -> PointSet:
    """All 2^k - 1 nonzero words in the span of the flat's basis.

    Small flats add up their words' bits in Python; larger ones build the
    bitset in one numpy pass, since each addition copies the whole int.
    """
    if 1 << len(f.basis) <= SMALL_SET_POINTS:
        words = [0]
        for b in f.basis:
            words += [w ^ b for w in words]
        return PointSet(f.ambient_rank, sum(1 << w for w in words[1:]))
    span = np.zeros(1, dtype=np.int64)
    for b in f.basis:
        span = np.concatenate((span, span ^ b))
    return pointset_from_words(f.ambient_rank, span[1:])


def hyperplane_of(ambient_rank: int, gamma: int) -> Flat:
    """The corank-1 flat of words orthogonal to the nonzero normal gamma."""
    check_rank(ambient_rank)
    check_normal(ambient_rank, gamma)
    return Flat(ambient_rank, kernel_basis(ambient_rank, (gamma,)))


def kernel_basis(ambient_rank: int, dual_rows: Sequence[int]) -> tuple[int, ...]:
    """Canonical basis of the common kernel of reduced-echelon dual rows."""
    rows = echelon_basis(dual_rows)
    pivots = [(v & -v).bit_length() - 1 for v in rows]
    pivot_set = set(pivots)
    out = []
    for f_bit in range(ambient_rank):
        if f_bit in pivot_set:
            continue
        v = 1 << f_bit
        for p, row in zip(pivots, rows):
            if (row >> f_bit) & 1:
                v ^= 1 << p
        out.append(v)
    return echelon_basis(out)
