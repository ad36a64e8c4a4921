import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pgfree.constructions import affine_set, bose_burton
from pgfree.errors import GeometryError, HypothesisError
from pgfree.geometry import closure, flat_points, hyperplane_of
from pgfree.matroid import (
    _NAIVE_PYTHON_CUTOFF,
    FreenessWitness,
    check_corollary_1_3,
    critical_number,
    is_pg_free,
    matroid_rank,
    restrict_to_flat,
    triangle_count_naive,
)
from pgfree.pointset import PointSet

from oracles import (
    brute_chi,
    brute_is_pg_free,
    brute_triangle_count,
    dfs_least_generators,
    loop_triangle_count,
    span_points,
)


def bose_burton_words(r, n):
    """Complement of the span of the first r-n+1 standard basis words."""
    flat = span_points([1 << i for i in range(r - n + 1)])
    return [w for w in range(1, 1 << r) if w not in flat]


def test_matroid_rank_examples():
    assert matroid_rank(PointSet.from_points(4, [9])) == 1
    assert matroid_rank(PointSet.full(4)) == 4
    assert matroid_rank(PointSet.from_points(3, [0b011, 0b101, 0b110])) == 2
    assert matroid_rank(PointSet.empty(5)) == 0


def test_is_pg_free_examples():
    plane = PointSet.full(3)
    w = is_pg_free(plane, 3)
    assert w.found and flat_points(w.subspace).bits == plane.bits

    free = PointSet.from_points(3, [1, 2, 4])
    assert not is_pg_free(free, 2).found

    bb = PointSet.from_points(4, bose_burton_words(4, 3))
    assert bb.size == 12
    assert not is_pg_free(bb, 3).found
    assert is_pg_free(bb, 2).found
    assert brute_is_pg_free(bb.points, 4, 3)
    assert not brute_is_pg_free(bb.points, 4, 2)


def test_is_pg_free_against_oracle_random():
    rng = random.Random(17)
    for _ in range(30):
        pts = rng.sample(range(1, 16), rng.randint(0, 13))
        e = PointSet.from_points(4, pts)
        for n in (1, 2, 3):
            assert is_pg_free(e, n).found == (not brute_is_pg_free(pts, 4, n))


def test_is_pg_free_witness_is_valid_and_deterministic():
    e = PointSet.from_points(4, bose_burton_words(4, 3))
    w1 = is_pg_free(e, 2)
    w2 = is_pg_free(e, 2)
    assert w1 == w2
    assert w1.subspace.rank == 2
    assert flat_points(w1.subspace).issubset(e)
    # canonically least: no rank-2 flat inside E has a smaller point set
    best = min(
        (tuple(sorted(flat_points(closure(4, [x, y])))) for x in e for y in e if x != y
         and flat_points(closure(4, [x, y])).issubset(e)),
    )
    assert tuple(sorted(flat_points(w1.subspace))) == best


def dfs_witness(e, n):
    """The witness the plain DFS oracle finds, as is_pg_free reports it."""
    gens = dfs_least_generators(e.points, n)
    return FreenessWitness(gens is not None, closure(e.rank, gens) if gens else None)


def assert_matches_dfs(e, n):
    got = is_pg_free(e, n)
    want = dfs_witness(e, n)
    assert got.found == want.found, (e.to_compact(), n)
    assert got.to_json_obj() == want.to_json_obj(), (e.to_compact(), n)


@pytest.mark.parametrize("r", [5, 6, 7, 8, 9])
def test_is_pg_free_matches_dfs_oracle_random(r):
    rng = random.Random(100 + r)
    for density in (0.3, 0.5, 0.7, 0.85, 0.95):
        e = PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < density])
        for n in (2, 3, 4):
            assert_matches_dfs(e, n)


@pytest.mark.parametrize("r", [5, 6, 7, 8, 9])
def test_is_pg_free_matches_dfs_oracle_bose_burton(r):
    # Minus 0-5 points: the candidate pools of the last two generators fall
    # on both sides of the 64-point cutoff from r = 7 on.  The no-witness
    # level-4 search on bose_burton(r, 4) is left to r <= 7, where the
    # oracle stays fast.
    rng = random.Random(200 + r)
    for level in (3, 4):
        bb = bose_burton(r, level)
        for k in (r - 5, (r + 2) % 6):
            e = bb
            for w in rng.sample(bb.points, k):
                e = e.without_point(w)
            for n in (2, 3, 4):
                if level == n == 4 and r > 7:
                    continue
                assert_matches_dfs(e, n)


def test_is_pg_free_small_blocks_split_rows_and_columns(monkeypatch):
    # A tiny block cap makes every row span several column chunks and
    # exercises the row-block mask between them.
    import pgfree.matroid as matroid

    rng = random.Random(31)
    for cap in (3, 40):
        monkeypatch.setattr(matroid, "_PAIR_BLOCK_ELEMENTS", cap)
        for r in (7, 8):
            sets = [bose_burton(r, 3), bose_burton(r, 4).without_point(rng.randrange(1, 1 << r))]
            sets += [
                PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < d])
                for d in (0.35, 0.8)
            ]
            for e in sets:
                for n in (2, 3):
                    assert_matches_dfs(e, n)


def test_is_pg_free_matches_brute_oracle_rank_5():
    rng = random.Random(23)
    for _ in range(12):
        pts = [w for w in range(1, 32) if rng.random() < rng.choice((0.4, 0.6, 0.8))]
        e = PointSet.from_points(5, pts)
        for n in (2, 3, 4):
            assert is_pg_free(e, n).found == (not brute_is_pg_free(pts, 5, n))
    for level in (3, 4):
        bb = bose_burton(5, level)
        for n in (2, 3, 4):
            assert is_pg_free(bb, n).found == (not brute_is_pg_free(bb.points, 5, n))


def test_is_pg_free_memo_is_per_instance():
    e1 = bose_burton(8, 3).without_point(200)
    e2 = PointSet(e1.rank, e1.bits)
    assert e1 == e2
    w1 = is_pg_free(e1, 3)
    assert is_pg_free(e1, 3) is w1
    assert 3 not in e2.freeness_memo
    w2 = is_pg_free(e2, 3)
    assert w2 == w1 and w2 is not w1
    assert is_pg_free(e1, 2) == is_pg_free(e2, 2) and is_pg_free(e1, 2).found


def test_is_pg_free_rejects_bad_n():
    with pytest.raises(GeometryError):
        is_pg_free(PointSet.full(3), 0)


def test_freeness_matches_triangle_count():
    rng = random.Random(3)
    for _ in range(40):
        e = PointSet.from_points(4, rng.sample(range(1, 16), rng.randint(0, 10)))
        assert (not is_pg_free(e, 2).found) == (triangle_count_naive(e) == 0)


def test_freeness_monotone_under_subsets():
    rng = random.Random(9)
    for _ in range(30):
        sup = rng.sample(range(1, 16), rng.randint(0, 12))
        sub = [w for w in sup if rng.random() < 0.7]
        big = PointSet.from_points(4, sup)
        small = PointSet.from_points(4, sub)
        for n in (2, 3):
            if not is_pg_free(big, n).found:
                assert not is_pg_free(small, n).found


def test_triangle_count_examples():
    assert triangle_count_naive(PointSet.from_points(3, [1, 2, 3])) == 6
    assert triangle_count_naive(PointSet.from_points(4, [1, 2, 4, 8])) == 0
    assert triangle_count_naive(PointSet.full(3)) == 42


def test_triangle_count_matches_triple_loop():
    rng = random.Random(31)
    for r in (2, 3, 4, 5):
        for _ in range(10):
            pts = [w for w in range(1, 1 << r) if rng.random() < 0.5]
            e = PointSet.from_points(r, pts)
            assert triangle_count_naive(e) == brute_triangle_count(pts)


def test_triangle_count_python_and_numpy_paths_agree():
    rng = random.Random(41)
    pts = [w for w in range(1, 1 << 8) if rng.random() < 0.6]  # > cutoff
    e = PointSet.from_points(8, pts)
    assert len(pts) > 96
    assert triangle_count_naive(e) == 2 * sum(
        1 for i, x in enumerate(pts) for y in pts[i + 1:] if (x ^ y) in e
    )


def _triangle_count_cases(r, rng):
    """Sets at rank r for the translation count: random densities, sizes on
    both sides of the Python-loop cutoff, tiny sets, the full set, an affine
    set (T = 0) and bose_burton sets."""
    top = (1 << r) - 1
    cut = _NAIVE_PYTHON_CUTOFF
    sizes = (0, 1, 2, cut - 1, cut, cut + 1, top)
    sets = [PointSet.from_points(r, rng.sample(range(1, 1 << r), m)) for m in sizes if m <= top]
    for d in (0.1, 0.5, 0.9)[: 3 if r <= 12 else 1]:
        sets.append(PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < d]))
    sets.append(affine_set(r, top))
    sets += [bose_burton(r, n) for n in (2, 3) if r >= n]
    return sets


@pytest.mark.parametrize("r", range(1, 15))
def test_triangle_count_translation_kernel_matches_loop_oracle(r):
    rng = random.Random(700 + r)
    for e in _triangle_count_cases(r, rng):
        t = triangle_count_naive(e)
        assert t == loop_triangle_count(e.points, r)
        if e.size <= 64:
            assert t == brute_triangle_count(e.points)
        if e.size == (1 << r) - 1:
            assert t == ((1 << r) - 1) * ((1 << r) - 2)
    assert triangle_count_naive(affine_set(r, 1)) == 0


def test_triangle_count_small_blocks_split_translates(monkeypatch):
    # A block cap below the word count splits one translate E + x into
    # several gathers; a cap of one or two words also gives one-point blocks.
    import pgfree.matroid as matroid

    rng = random.Random(47)
    for cap in (1, 2, 3, 5):
        monkeypatch.setattr(matroid, "_PAIR_BLOCK_ELEMENTS", cap)
        for r in (6, 7, 8, 10):
            for e in _triangle_count_cases(r, rng):
                assert triangle_count_naive(e) == loop_triangle_count(e.points, r)


def test_critical_number_examples():
    r = 4
    affine = PointSet.from_points(r, [x for x in range(1, 16) if x & 1])
    assert critical_number(affine) == 1
    assert critical_number(PointSet.full(r)) == r
    assert critical_number(PointSet.empty(r)) == 0
    bb = PointSet.from_points(4, bose_burton_words(4, 3))
    assert critical_number(bb) == brute_chi(bb.points, 4) == 2


def test_critical_number_against_oracle_random():
    rng = random.Random(77)
    for _ in range(40):
        pts = rng.sample(range(1, 16), rng.randint(1, 15))
        e = PointSet.from_points(4, pts)
        assert critical_number(e) == brute_chi(pts, 4)


def test_critical_number_structured_set_uses_quotient():
    # union of cosets of a rank-6 subspace at r = 9: the set is periodic, so
    # its critical number equals that of the 3-bit quotient picture.
    r, c = 9, 3
    stab = sorted(span_points([1 << i for i in range(r - c)]) | {0})
    quotient_classes = [0b001, 0b010, 0b011, 0b100]
    noise = [0, 0, 5, 9]  # arbitrary coset representatives inside each class
    pts = []
    for cls, lo in zip(quotient_classes, noise):
        rep = (cls << (r - c)) ^ lo
        pts += [rep ^ s for s in stab]
    e = PointSet.from_points(r, pts)
    assert e.size == len(quotient_classes) * (1 << (r - c))
    assert critical_number(e) == brute_chi(quotient_classes, c) == 2


@given(st.randoms(use_true_random=False))
def test_small_chi_implies_freeness(rng):
    pts = rng.sample(range(1, 16), rng.randint(1, 14))
    e = PointSet.from_points(4, pts)
    chi = critical_number(e)
    for n in range(2, 5):
        if chi <= n - 1:
            assert not is_pg_free(e, n).found


def test_check_corollary_1_3():
    bb = PointSet.from_points(4, bose_burton_words(4, 3))
    e11 = bb.without_point(min(bb.points))
    assert e11.size == 11
    assert critical_number(e11) == 2
    assert check_corollary_1_3(e11, 3)

    affine = PointSet.from_points(4, [x for x in range(1, 16) if x & 1])
    assert check_corollary_1_3(affine, 2)
    assert critical_number(affine) == 1

    small = PointSet.from_points(4, [1, 2, 4])
    with pytest.raises(HypothesisError):
        check_corollary_1_3(small, 3)
    with pytest.raises(HypothesisError):
        check_corollary_1_3(PointSet.full(4), 3)  # not fano-free


def test_restrict_roundtrip():
    e = PointSet.from_points(4, [1, 2, 3, 5, 9, 14])
    h = hyperplane_of(4, 8)  # words with top bit clear
    sub, cmap = restrict_to_flat(e, h)
    assert sub.size == len([x for x in e if x < 8])
    for w in sub:
        assert cmap.lift(w) in e
        assert cmap.project(cmap.lift(w)) == w
    tri = is_pg_free(sub, 2)
    if tri.found:
        lifted = cmap.lift_flat(tri.subspace)
        assert flat_points(lifted).issubset(e)


def test_restrict_to_closure_has_full_rank():
    e = PointSet.from_points(5, [3, 5, 6, 24])
    f = closure(5, e.points)
    sub, _ = restrict_to_flat(e, f)
    assert matroid_rank(sub) == sub.rank == f.rank


def test_restrict_preserves_triangles_in_flat():
    rng = random.Random(8)
    for _ in range(20):
        e = PointSet.from_points(4, rng.sample(range(1, 16), 9))
        h = hyperplane_of(4, rng.randint(1, 15))
        sub, _ = restrict_to_flat(e, h)
        inside = e.intersection(flat_points(h))
        assert sub.size == inside.size
        assert triangle_count_naive(sub) == triangle_count_naive(inside)


def test_restrict_requires_positive_rank():
    with pytest.raises(GeometryError):
        restrict_to_flat(PointSet.full(3), closure(3, []))


def test_density_is_exact():
    e = PointSet.from_points(4, [1, 2, 3])
    assert e.density == Fraction(3, 16)


def test_bose_burton_bound_on_random_sets_higher_rank():
    rng = random.Random(13)
    for r in (5, 6):
        for _ in range(60):
            pts = [w for w in range(1, 1 << r) if rng.random() < 0.4]
            e = PointSet.from_points(r, pts)
            for n in (2, 3):
                if not is_pg_free(e, n).found:
                    assert e.size * (1 << n) <= ((1 << n) - 2) * (1 << r)
