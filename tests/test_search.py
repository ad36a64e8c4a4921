import hashlib
import json
import random
from fractions import Fraction

import pytest

from pgfree.errors import GeometryError
from pgfree.constructions import affine_set, bose_burton, m_k5
from pgfree.geometry import flat_points, hyperplane_of
from pgfree.matroid import is_pg_free, restrict_to_flat, triangle_count_naive
from pgfree.pointset import PointSet
from pgfree.search import (
    _cone_identity_holds,
    cone,
    find_pg_free_hyperplane,
    find_triangle_free_flat,
    hyperplane_intersection,
    reconcile_hyperplane,
)

from oracles import best_triangle_free_flat, brute_cone, popcount_parity


def test_cone_examples():
    a, b = 0b001, 0b010
    e = PointSet.from_points(3, [a, b, a ^ b])
    assert set(cone(e, a ^ b)) == {a, b}
    lonely = PointSet.from_points(4, [1, 2, 4, 8])
    assert cone(lonely, 1).size == 0
    with pytest.raises(GeometryError):
        cone(lonely, 3)


def test_cone_matches_line_loop_oracle():
    rng = random.Random(50)
    for r in range(2, 9):
        pts = [w for w in range(1, 1 << r) if rng.random() < 0.5]
        if not pts:
            continue
        e = PointSet.from_points(r, pts)
        for p in rng.sample(pts, min(4, len(pts))):
            assert set(cone(e, p)) == brute_cone(pts, p, r)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cone_matches_line_loop_oracle_on_every_set(r):
    for bits in range(0, 1 << (1 << r), 2):
        e = PointSet(r, bits)
        for p in e:
            assert set(cone(e, p)) == brute_cone(e.points, p, r)


@pytest.mark.parametrize("r", [12, 20])
def test_cone_matches_line_loop_oracle_on_seeded_sets(r):
    # the oracle walks all 2^r words for each apex, so few apexes are taken
    rng = random.Random(800 + r)
    sparse = PointSet.from_points(r, rng.sample(range(1, 1 << r), 1 << (r // 2)))
    for e in (sparse, PointSet(r, rng.getrandbits(1 << r) & ~1)):
        pts = e.points
        for p in rng.sample(pts, 6 if r == 12 else 2) + [pts[0], pts[-1]]:
            assert set(cone(e, p)) == brute_cone(pts, p, r)


def test_cone_symmetry_and_parity():
    rng = random.Random(51)
    e = PointSet.from_points(5, [w for w in range(1, 32) if rng.random() < 0.6])
    for p in list(e)[:8]:
        ep = cone(e, p)
        assert ep.size % 2 == 0
        assert p not in ep
        for x in ep:
            assert p in cone(e, x)
            assert (x ^ p) in ep


def test_cone_identity():
    rng = random.Random(52)
    for r in (3, 4, 6):
        e = PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < 0.5])
        assert _cone_identity_holds(e, sum(cone(e, p).size for p in e))


def hyperplane_normals(r, rng):
    if r <= 6:
        return range(1, 1 << r)
    return (1, 1 << (r - 1), (1 << r) - 1, rng.randrange(1, 1 << r))


@pytest.mark.parametrize("r", range(1, 25))
def test_hyperplane_intersection_matches_parity_filter(r):
    rng = random.Random(900 + r)
    if r < 20:
        sample = PointSet(r, rng.getrandbits(1 << r) & ~1)
    else:
        sample = PointSet.from_points(r, rng.sample(range(1, 1 << r), 300))
    full = PointSet.full(r)
    sets = [PointSet.empty(r), sample] + ([full] if r <= 12 else [])
    for gamma in hyperplane_normals(r, rng):
        for e in sets:
            got = hyperplane_intersection(e, gamma)
            assert got.rank == r
            assert set(got) == {w for w in e if popcount_parity(w & gamma) == 0}, gamma
        # every hyperplane holds 2^(r-1) - 1 points
        assert hyperplane_intersection(full, gamma).size == (1 << (r - 1)) - 1


@pytest.mark.parametrize("r", [1, 3, 8])
def test_normals_outside_the_ambient_are_rejected(r):
    full = PointSet.full(r)
    for gamma in (0, -1, 1 << r, (1 << r) + 1):
        with pytest.raises(GeometryError):
            hyperplane_intersection(full, gamma)
        with pytest.raises(GeometryError):
            hyperplane_of(r, gamma)


@pytest.mark.parametrize("check", [reconcile_hyperplane])
def test_hyperplane_checks_reject_normals_outside_the_ambient(check):
    e = bose_burton(4, 3).without_point(4)  # meets the check's hypotheses
    for gamma in (0, -1, 1 << 4, (1 << 4) + 1):
        with pytest.raises(GeometryError):
            check(e, gamma, 3)


def test_find_pg_free_hyperplane_dense_example():
    e = bose_burton(4, 3).without_point(4)
    gamma = find_pg_free_hyperplane(e, 3)
    # oracle: first gamma whose intersection is triangle-free
    first = next(
        g for g in range(1, 16)
        if not is_pg_free(hyperplane_intersection(e, g), 2).found
    )
    assert gamma == first == 4
    inside = hyperplane_intersection(e, gamma)
    assert triangle_count_naive(inside) == 0
    sub = restrict_to_flat(e, hyperplane_of(4, gamma))
    assert sub.rank == 3
    assert not is_pg_free(sub, 2).found
    assert sub.size == inside.size >= 3  # strictly above (1 - 3/4) * 8 = 2


def test_find_pg_free_hyperplane_k5_returns_none():
    assert find_pg_free_hyperplane(m_k5(), 3) is None


def test_find_pg_free_hyperplane_validates():
    with pytest.raises(GeometryError):
        find_pg_free_hyperplane(PointSet.full(4), 2)
    with pytest.raises(GeometryError):
        find_pg_free_hyperplane(PointSet.full(3), 4)


@pytest.mark.parametrize("r", [6, 7, 8])
def test_level_three_searches_match_a_naive_hyperplane_loop(r):
    rng = random.Random(60 + r)
    bb = bose_burton(r, 3)
    sets = [
        bb,
        bb.without_point(rng.choice(bb.points)),
        PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < 0.5]),
        PointSet.from_points(r, [w for w in range(1, 1 << r) if w & 1 or rng.random() < 0.1]),
    ]
    steps = []
    for e in sets:
        # oracle: the triangle-free intersections, by the translation count
        free = {}
        for g in range(1, 1 << r):
            inter = hyperplane_intersection(e, g)
            if triangle_count_naive(inter) == 0:
                free[g] = inter

        step = find_pg_free_hyperplane(e, 3)
        steps.append(step)
        assert step == (min(free) if free else None)

        result, _ = find_triangle_free_flat(e, 3, "exhaustive")
        if not free:
            assert not result.found
        else:
            best = max(free, key=lambda g: (free[g].size, -g))
            assert result.flat == hyperplane_of(r, best)
            assert result.intersection_size == free[best].size
    assert any(step is not None for step in steps)
    assert any(step is None for step in steps)


def test_find_flat_level_two():
    free = PointSet.from_points(4, [1, 2, 4, 8])
    for strategy in ("descent", "exhaustive"):
        res, trace = find_triangle_free_flat(free, 2, strategy)
        assert res.found
        assert res.flat.rank == 4
        assert res.intersection_size == 4
    tri = PointSet.from_points(4, [1, 2, 3])
    res, _ = find_triangle_free_flat(tri, 2, "exhaustive")
    assert not res.found


def test_find_flat_dense_fano_free():
    e = bose_burton(4, 3).without_point(4)
    exh, trace = find_triangle_free_flat(e, 3, "exhaustive")
    assert trace is None
    assert exh.found and exh.flat.corank == 1
    assert exh.intersection_size == 4
    assert exh.flat.basis == (1, 2, 8)
    assert exh.density_claim_holds

    desc, trace = find_triangle_free_flat(e, 3, "descent")
    assert desc.found and desc.flat.corank == 1
    assert trace.fallback_level is None
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert step.level == 3 and step.normal == 4
    assert step.ambient_rank == 4 and step.size_before == 11
    assert step.hypothesis_ok
    inter = e.intersection(flat_points(desc.flat))
    assert inter.size == desc.intersection_size == step.size_after
    assert triangle_count_naive(inter) == 0


def test_find_flat_k5_not_found():
    res, trace = find_triangle_free_flat(m_k5(), 3, "exhaustive")
    assert not res.found and not res.density_claim_holds
    res, trace = find_triangle_free_flat(m_k5(), 3, "descent")
    assert not res.found
    assert trace.fallback_level == 3


def test_descent_fallback_above_level_three():
    # the full geometry: every hyperplane holds a fano, so the level-4 scan
    # fails and the corank-2 fallback scan (all flats are triangles) fails too
    full = PointSet.full(4)
    res, trace = find_triangle_free_flat(full, 4, "descent")
    assert not res.found
    assert trace.fallback_level == 4
    exh, _ = find_triangle_free_flat(full, 4, "exhaustive")
    assert not exh.found


def test_find_flat_level_four():
    e = PointSet.full(4).without_point(7)
    res, trace = find_triangle_free_flat(e, 4, "descent")
    assert res.found
    assert res.flat.corank == 2
    assert res.intersection_size >= 2
    assert res.density_claim_holds
    assert [s.level for s in trace.steps] == [4, 3]
    assert [s.ambient_rank for s in trace.steps] == [4, 3]
    inter = e.intersection(flat_points(res.flat))
    assert triangle_count_naive(inter) == 0

    exh, _ = find_triangle_free_flat(e, 4, "exhaustive")
    assert exh.found and exh.flat.corank == 2
    assert exh.intersection_size >= res.intersection_size


def test_descent_exhaustive_agreement_random_dense():
    rng = random.Random(60)
    bb = bose_burton(4, 3)
    for _ in range(20):
        e = bb
        for w in rng.sample(bb.points, rng.randint(0, 1)):
            e = e.without_point(w)
        if is_pg_free(e, 3).found or e.size <= 10:
            continue
        r_exh, _ = find_triangle_free_flat(e, 3, "exhaustive")
        r_desc, _ = find_triangle_free_flat(e, 3, "descent")
        assert r_exh.found == r_desc.found
        if r_exh.found:
            for res in (r_exh, r_desc):
                inter = e.intersection(flat_points(res.flat))
                assert triangle_count_naive(inter) == 0
                assert res.density_claim_holds


def test_fano_free_hyperplane_theorem_at_rank_5_and_6():
    rng = random.Random(61)
    for r in (5, 6):
        base = bose_burton(r, 3)
        threshold = Fraction(5, 8) * (1 << r)
        quarter = Fraction(1, 4) * (1 << (r - 1))
        for _ in range(10):
            e = base
            for w in rng.sample(base.points, rng.randint(0, 3)):
                e = e.without_point(w)
            if Fraction(e.size) <= threshold or is_pg_free(e, 3).found:
                continue
            gamma = find_pg_free_hyperplane(e, 3)
            assert gamma is not None
            assert Fraction(hyperplane_intersection(e, gamma).size) > quarter


def test_descent_on_every_dense_subset_of_pg32_is_pinned():
    # every subset of PG(3,2) with at least 9 points, at levels 3 and 4
    digest = hashlib.sha256()
    for level in (3, 4):
        for s in range(1 << 15):
            if s.bit_count() >= 9:
                res, trace = find_triangle_free_flat(PointSet(4, s << 1), level)
                line = json.dumps([res.to_json_obj(), trace.to_json_obj()])
                digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "ac581853cf8adf52fd5c1050f3b834c6981ca8465cd5b76290779d67bf0b4ead"


def _exhaustive_digest(cases) -> str:
    digest = hashlib.sha256()
    for e, level in cases:
        res, _ = find_triangle_free_flat(e, level, "exhaustive")
        digest.update(json.dumps(res.to_json_obj()).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "level, expected",
    [
        (3, "72e3f9f6030a3e56ef793b551e07cc841631db9bb840bf696bdfc26026a3450c"),
        (4, "e376ad6a651abb1f89116d7fdb4134b345d6fcbbd1551129ebc21f94b6833d12"),
    ],
)
def test_exhaustive_flat_on_every_dense_subset_of_pg32_is_pinned(level, expected):
    # every subset of PG(3,2) with at least 11 points (1,941 sets)
    sets = [PointSet(4, s << 1) for s in range(1 << 15) if s.bit_count() >= 11]
    assert _exhaustive_digest((e, level) for e in sets) == expected


@pytest.mark.parametrize(
    "r, expected",
    [
        (7, "4d464e470b2e97b8c093ce28dbf62e74752c28462e8ed86871441c82d27c08f6"),
        (8, "2a81b19631c63bac977736ff7a0f343575735f2e9797657de6fa534648f5716e"),
        (9, "4cdb4971e7d887f37a6bcdf5b293ff61532a0a8a7c5b1c860395a53b5bb6bb8d"),
    ],
)
def test_exhaustive_level_four_flat_on_bose_burton_minus_a_point_is_pinned(r, expected):
    bb = bose_burton(r, 4)
    cases = [(bb.without_point(random.Random(s).choice(bb.points)), 4) for s in (1, 2)]
    assert _exhaustive_digest(cases) == expected


def test_exhaustive_flat_matches_brute_force_oracle_at_rank_5():
    r = 5
    rng = random.Random(62)
    # sparse sets tie many flats, so the tie rule decides their answer
    sets = [PointSet.empty(r), PointSet.full(r), affine_set(r, 1), bose_burton(r, 3), bose_burton(r, 4)]
    sets += [PointSet.from_points(r, [w]) for w in (5, 31)]
    sets += [PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < p])
             for p in (0.1, 0.1, 0.2, 0.2, 0.3, 0.5, 0.7, 0.9)]
    for e in sets:
        for n in range(2, r + 1):
            res, _ = find_triangle_free_flat(e, n, "exhaustive")
            best = best_triangle_free_flat(e.points, r, n)
            assert res.found == (best is not None), (e.to_compact(), n)
            if best is not None:
                points, size = best
                assert frozenset(flat_points(res.flat)) == points, (e.to_compact(), n)
                assert res.flat.corank == n - 2
                assert res.intersection_size == size


def test_reconcile_hyperplane():
    e = PointSet.full(4).without_point(5)
    for gamma in (1, 7, 15):
        rep = reconcile_hyperplane(e, gamma, 3)
        assert rep.condition == "size"
        assert rep.asserted
        assert rep.matroid_rank_full == 4
        assert rep.matroid_rank_intersection == 3

    e11 = bose_burton(4, 3).without_point(4)
    for gamma in range(1, 16):
        rep = reconcile_hyperplane(e11, gamma, 3)
        assert rep.condition == "free-dense"
        assert rep.matroid_rank_intersection == 3

    basis_only = PointSet.from_points(4, [1, 2, 4, 8])
    rep = reconcile_hyperplane(basis_only, 8, 3)
    assert rep.condition is None and not rep.asserted
    assert rep.matroid_rank_intersection == 3  # measured, not asserted


def test_reconcile_ranks_the_whole_set_once(monkeypatch):
    import pgfree.matroid as matroid

    ranked = []
    real = matroid._spans_by_bit_lengths
    # every rank starts with the full-rank check, which certifies the whole set
    monkeypatch.setattr(matroid, "_spans_by_bit_lengths", lambda e: ranked.append(e) or real(e))
    e = PointSet.full(4).without_point(5)
    for gamma in range(1, 16):
        reconcile_hyperplane(e, gamma, 3)
    assert ranked.count(e) == 1
    assert len(ranked) == 16  # and one rank per intersection
