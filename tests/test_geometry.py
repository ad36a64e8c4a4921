import json
import random

import pytest
from hypothesis import given, strategies as st

from pgfree.errors import GeometryError
from pgfree.geometry import (
    Flat,
    closure,
    dot,
    echelon_basis,
    flat_points,
    hyperplane_of,
    rank_of,
)

from oracles import span_points


def test_dot_examples():
    assert dot(0b101, 0b001) == 1
    assert dot(0b110, 0b011) == 1
    for x in range(8):
        assert dot(x, 0) == 0


def test_rank_of_examples():
    assert rank_of({0b011, 0b101, 0b110}) == 2
    assert rank_of(set()) == 0
    for r in (1, 3, 5):
        assert rank_of([1 << i for i in range(r)]) == r


def test_closure_examples():
    f = closure(4, {0b0001, 0b0010})
    assert set(flat_points(f)) == {1, 2, 3}
    assert closure(4, set()).rank == 0
    assert flat_points(closure(4, set())).size == 0
    f3 = closure(4, {1, 2, 4})
    assert f3.rank == 3
    assert flat_points(f3).size == 7


def test_closure_rejects_zero():
    with pytest.raises(GeometryError):
        closure(3, {0})


def test_hyperplane_examples():
    h = hyperplane_of(3, 0b001)
    assert set(flat_points(h)) == {0b010, 0b100, 0b110}
    assert set(flat_points(hyperplane_of(2, 0b01))) == {0b10}
    with pytest.raises(GeometryError):
        hyperplane_of(3, 0)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_hyperplane_count_and_size(r):
    seen = set()
    for gamma in range(1, 1 << r):
        h = hyperplane_of(r, gamma)
        assert h.corank == 1
        pts = flat_points(h)
        assert pts.size == (1 << (r - 1)) - 1
        assert all(dot(x, gamma) == 0 for x in pts)
        seen.add(pts.bits)
    assert len(seen) == (1 << r) - 1


def test_flat_points_examples():
    assert set(flat_points(closure(3, {5}))) == {5}
    assert flat_points(closure(3, {1, 2, 4})).size == 7
    a, b = 0b011, 0b100
    assert set(flat_points(closure(3, {a, b}))) == {a, b, a ^ b}


def test_flat_point_count_invariant():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 6)
        pts = [rng.randint(1, (1 << r) - 1) for _ in range(rng.randint(0, 5))]
        f = closure(r, pts)
        assert flat_points(f).size == (1 << f.rank) - 1
        assert frozenset(flat_points(f)) == span_points(pts)


words = st.integers(min_value=1, max_value=(1 << 5) - 1)


@given(st.lists(words, max_size=6), st.lists(words, max_size=4))
def test_closure_idempotent_and_monotone(s, t):
    r = 5
    once = closure(r, s)
    again = closure(r, set(flat_points(once)) | set(t))
    direct = closure(r, set(s) | set(t))
    assert again.basis == direct.basis


@given(st.lists(words, min_size=1, max_size=6))
def test_canonical_basis_is_generating_set_independent(pts):
    r = 5
    f = closure(r, pts)
    shuffled = list(reversed(pts)) + [pts[0] ^ p for p in pts]
    shuffled = [w for w in shuffled if w != 0]
    g = closure(r, shuffled + pts)
    assert f.basis == g.basis
    assert rank_of(pts) == f.rank


def test_flat_serialization_roundtrip_and_canonical_enforcement():
    f = closure(4, {3, 5, 6})
    # results serialise a flat as its basis list, which rebuilds it
    g = Flat(4, tuple(json.loads(json.dumps(list(f.basis)))))
    assert g == f
    with pytest.raises(GeometryError):
        Flat(4, (5, 3))  # not canonical order
    with pytest.raises(GeometryError):
        Flat(4, (3, 5, 6))  # dependent / not reduced


def test_echelon_basis_is_reduced():
    basis = echelon_basis([0b1110, 0b0111, 0b1001])
    pivots = [(v & -v).bit_length() - 1 for v in basis]
    assert pivots == sorted(pivots)
    for i, v in enumerate(basis):
        for j, p in enumerate(pivots):
            if i != j:
                assert (v >> p) & 1 == 0
