import random
from fractions import Fraction

import numpy as np
import pytest

from pgfree.errors import GeometryError, RankCapError
from pgfree.constructions import (
    GraphSpec,
    affine_set,
    bose_burton,
    complete_graph,
    direct_sum,
    graphic_representation,
    m_k5,
)
from pgfree.matroid import critical_number, is_pg_free, matroid_rank, triangle_count_naive
from pgfree.pointset import PointSet, pointset_from_mask
from pgfree.search import find_triangle_free_flat
from pgfree.spectral import uniformity

from oracles import brute_triangle_count


def test_bose_burton_meets_bound_with_equality():
    for r in range(2, 7):
        for n in range(2, r + 1):
            e = bose_burton(r, n)
            expected = (1 << r) - (1 << (r - n + 1))
            assert e.size == expected
            assert Fraction(e.size) == (1 - Fraction(2, 1 << n)) * (1 << r)
            assert not is_pg_free(e, n).found
            assert e.bits & 1 == 0


@pytest.mark.parametrize("r", range(2, 19))
def test_bose_burton_matches_mask_construction(r):
    # Up to rank 6 the removed flat is built by the Python loop, above it by
    # the numpy pass; both must give the words outside the first r-n+1 bits.
    words = np.arange(1 << r)
    for n in (2, 3):
        if n <= r:
            mask = (words >> (r - n + 1)) != 0
            assert bose_burton(r, n) == pointset_from_mask(r, mask)


def test_bose_burton_examples():
    e42 = bose_burton(4, 2)
    assert e42.size == 8
    assert triangle_count_naive(e42) == 0

    e43 = bose_burton(4, 3)
    assert e43.size == 12
    assert not is_pg_free(e43, 3).found
    assert is_pg_free(e43, 2).found

    enn = bose_burton(3, 3)
    assert enn.size == (1 << 3) - 2  # complement of a single point

    with pytest.raises(GeometryError):
        bose_burton(3, 2**10)
    with pytest.raises(GeometryError):
        bose_burton(2, 1)


def test_affine_set():
    e = affine_set(3, 0b001)
    assert set(e) == {1, 3, 5, 7}
    assert triangle_count_naive(e) == 0
    assert critical_number(e) == 1
    for r in range(1, 7):
        a = affine_set(r, 1)
        assert a.size == 1 << (r - 1)
        assert uniformity(a).epsilon_min == Fraction(1, 2)
    with pytest.raises(GeometryError):
        affine_set(3, 0)


def test_graph_spec_validation():
    with pytest.raises(GeometryError):
        GraphSpec.from_edges(3, [(0, 0)])
    with pytest.raises(GeometryError):
        GraphSpec.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GeometryError):
        GraphSpec.from_edges(2, [(0, 5)])


def test_graphic_small_graphs():
    k3 = graphic_representation(complete_graph(3))
    assert k3.size == 3
    pts = sorted(k3)
    assert pts[0] ^ pts[1] == pts[2]  # a single triangle

    k4 = graphic_representation(complete_graph(4))
    assert k4.size == 6
    assert matroid_rank(k4) == k4.rank == 3


def test_k5_frozen_properties():
    k5 = m_k5()
    assert k5.points == (1, 2, 3, 4, 5, 6, 8, 9, 10, 12)
    assert k5.to_compact() == "4:177E"
    assert k5.size == 10
    assert Fraction(k5.size) == (1 - Fraction(3, 8)) * 16
    assert matroid_rank(k5) == 4
    assert not is_pg_free(k5, 3).found
    assert critical_number(k5) == 3
    # 6 ordered triples per triangle of K_5; C(5,3) = 10 graph triangles
    assert triangle_count_naive(k5) == 60 == brute_triangle_count(k5.points)


def test_k5_tightness_certificate():
    res, _ = find_triangle_free_flat(m_k5(), 3, "exhaustive")
    assert not res.found


def test_graphic_disconnected_rank():
    g = GraphSpec.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    e = graphic_representation(g)
    assert e.size == 3
    assert e.rank == 5 - 2  # vertices minus components


def test_direct_sum():
    rng = random.Random(4)
    for _ in range(10):
        a = PointSet.from_points(3, [w for w in range(1, 8) if rng.random() < 0.5])
        b = PointSet.from_points(4, [w for w in range(1, 16) if rng.random() < 0.5])
        s = direct_sum(a, b)
        assert s.rank == 7
        assert s.size == a.size + b.size
        assert triangle_count_naive(s) == triangle_count_naive(a) + triangle_count_naive(b)

    empty = direct_sum(PointSet.empty(2), PointSet.from_points(2, [1, 2, 3]))
    assert empty.size == 3
    assert triangle_count_naive(empty) == 6

    with pytest.raises(RankCapError):
        direct_sum(PointSet.empty(20), PointSet.empty(20))
