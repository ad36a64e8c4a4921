"""Canonical and extremal point-set constructions.

Includes the flat-complement geometries meeting the extremal bound, affine
sets, graphic matroid representations (edges of a graph as sums of two
standard basis vectors), and direct sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GeometryError, RankCapError
from .geometry import closure, flat_points
from .matroid import restrict_to_flat
from .pointset import RANK_CAP, PointSet, check_rank
from .search import hyperplane_intersection


def bose_burton(r: int, n: int) -> PointSet:
    """Complement of the canonical corank-(n-1) flat: the extremal
    PG(n-1,2)-free set, of size (1 - 2/2^n) 2^r.

    The canonical flat is the span of the first r-n+1 standard basis
    vectors, so the bytes of the result are reproducible.
    """
    check_rank(r)
    if not r >= n >= 2:
        raise GeometryError(f"requires r >= n >= 2, got r={r}, n={n}")
    flat = closure(r, [1 << i for i in range(r - n + 1)])
    return flat_points(flat).complement()


def affine_set(r: int, gamma: int) -> PointSet:
    """The 2^(r-1) words with odd dot product against gamma: triangle-free."""
    check_rank(r)
    return PointSet.full(r).difference(hyperplane_intersection(PointSet.full(r), gamma))


@dataclass(frozen=True)
class GraphSpec:
    """A simple graph given by vertex count and unordered edges."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise GeometryError("graph needs at least one vertex")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise GeometryError(f"loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise GeometryError(f"edge ({u}, {v}) has a vertex out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GeometryError(f"repeated edge ({u}, {v})")
            seen.add(key)

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "GraphSpec":
        return cls(vertex_count, tuple((int(u), int(v)) for u, v in edges))


def complete_graph(k: int) -> GraphSpec:
    return GraphSpec.from_edges(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


def graphic_representation(g: GraphSpec) -> PointSet:
    """Edges as e_u + e_v over GF(2)^vertices, re-coordinatized onto the
    closure so the ambient rank equals the cycle-space rank."""
    if g.vertex_count > RANK_CAP:
        raise RankCapError(f"vertex count {g.vertex_count} exceeds the rank cap")
    words = [(1 << u) ^ (1 << v) for u, v in g.edges]
    raw = PointSet.from_points(g.vertex_count, words) if words else PointSet.empty(1)
    if not words:
        return raw
    return restrict_to_flat(raw, closure(g.vertex_count, words))


def m_k5() -> PointSet:
    """The 10-point rank-4 representation of the cycle matroid of K_5."""
    return graphic_representation(complete_graph(5))


def direct_sum(a: PointSet, b: PointSet) -> PointSet:
    """Disjoint union in ambient rank r_a + r_b: (x, 0) and (0, y) points."""
    r = a.rank + b.rank
    if r > RANK_CAP:
        raise RankCapError(f"combined rank {r} exceeds the rank cap {RANK_CAP}")
    words = list(a.points) + [w << a.rank for w in b.points]
    return PointSet.from_points(r, words)
