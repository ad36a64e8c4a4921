import random
from fractions import Fraction

import pytest

from pgfree.errors import GeometryError, HypothesisError
from pgfree.constructions import bose_burton, m_k5
from pgfree.geometry import closure, flat_points, hyperplane_of
from pgfree.matroid import is_pg_free, triangle_count_naive
from pgfree.pointset import PointSet
from pgfree.search import (
    check_cone_lemma,
    check_lemma_hsize,
    cone,
    cone_identity_holds,
    find_pg_free_hyperplane,
    find_triangle_free_flat,
    hyperplane_intersection,
    reconcile_hyperplane,
)

from oracles import brute_cone


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
        assert cone_identity_holds(e)


def test_check_cone_lemma_on_extremal_set():
    e = bose_burton(4, 3)
    for p in e:
        rep = check_cone_lemma(e, p, 3)
        assert rep.cone_size >= 8 == rep.size_bound
        assert rep.size_slack >= 0
        assert rep.freeness_level == 2


def test_check_cone_lemma_vacuous_bound():
    e = PointSet.from_points(4, [1, 2, 4, 8])  # |E| = 4 <= 2^(r-1)
    rep = check_cone_lemma(e, 1, 3)
    assert rep.size_bound <= 0


def test_check_cone_lemma_hypothesis_error_with_witness():
    e = PointSet.full(3)  # contains a fano
    with pytest.raises(HypothesisError) as exc:
        check_cone_lemma(e, 1, 3)
    assert exc.value.witness is not None
    with pytest.raises(HypothesisError):
        check_cone_lemma(bose_burton(4, 3), 1, 3)  # 1 is not in the set


def test_check_lemma_hsize_example():
    e = bose_burton(4, 3).without_point(4)
    assert e.size == 11
    hits = 0
    for gamma in range(1, 16):
        h = hyperplane_of(4, gamma)
        inter = e.intersection(flat_points(h))
        if is_pg_free(inter, 2).found:  # holds a triangle
            rep = check_lemma_hsize(e, h, 3)
            hits += 1
            assert rep.outside_size <= 6
            assert rep.outside_bound == 6
            assert rep.dense_hypothesis
            assert rep.inside_size > 4 == rep.inside_bound
    assert hits > 0


def test_check_lemma_hsize_hypothesis_errors():
    e = bose_burton(4, 3).without_point(4)
    for gamma in range(1, 16):
        h = hyperplane_of(4, gamma)
        if not is_pg_free(e.intersection(flat_points(h)), 2).found:
            with pytest.raises(HypothesisError):
                check_lemma_hsize(e, h, 3)
            break
    with pytest.raises(HypothesisError):
        check_lemma_hsize(PointSet.full(4), hyperplane_of(4, 1), 3)  # not fano-free
    with pytest.raises(HypothesisError):
        check_lemma_hsize(e, closure(4, [1, 2]), 3)  # not a hyperplane


def test_find_pg_free_hyperplane_dense_example():
    e = bose_burton(4, 3).without_point(4)
    out = find_pg_free_hyperplane(e, 3)
    assert out is not None
    gamma, (sub, cmap) = out
    # oracle: first gamma whose intersection is triangle-free
    first = next(
        g for g in range(1, 16)
        if not is_pg_free(hyperplane_intersection(e, g), 2).found
    )
    assert gamma == first == 4
    assert sub.rank == 3
    assert not is_pg_free(sub, 2).found
    assert sub.size >= 3  # strictly above (1 - 3/4) * 8 = 2
    lifted = cmap.lift_points(sub)
    assert lifted.issubset(e)
    assert triangle_count_naive(lifted) == 0


def test_find_pg_free_hyperplane_k5_returns_none():
    assert find_pg_free_hyperplane(m_k5(), 3) is None


def test_find_pg_free_hyperplane_validates():
    with pytest.raises(GeometryError):
        find_pg_free_hyperplane(PointSet.full(4), 2)
    with pytest.raises(GeometryError):
        find_pg_free_hyperplane(PointSet.full(3), 4)


@pytest.mark.parametrize("r", [6, 7, 8])
def test_fallback_beyond_int64_guard_matches_spectral_route(r, monkeypatch):
    import pgfree.spectral as spectral

    rng = random.Random(60 + r)
    bb = bose_burton(r, 3)
    sets = [
        bb,
        bb.without_point(rng.choice(bb.points)),
        PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < 0.5]),
        PointSet.from_points(r, [w for w in range(1, 1 << r) if w & 1 or rng.random() < 0.1]),
    ]

    def outcomes(e):
        step = find_pg_free_hyperplane(e, 3)
        if step is not None:
            gamma, (sub, cmap) = step
            step = (gamma, sub, cmap.flat)
        result, _ = find_triangle_free_flat(e, 3, "exhaustive")
        return step, result

    spectral_route = [outcomes(e) for e in sets]
    monkeypatch.setattr(spectral, "hyperplane_counts_fit_int64", lambda e: False)
    assert [outcomes(e) for e in sets] == spectral_route
    assert any(step is not None for step, _ in spectral_route)
    assert any(step is None for step, _ in spectral_route)


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
            out = find_pg_free_hyperplane(e, 3)
            assert out is not None
            _, (sub, _) = out
            assert Fraction(sub.size) > quarter


def test_reconcile_hyperplane():
    e = PointSet.full(4).without_point(5)
    for gamma in (1, 7, 15):
        rep = reconcile_hyperplane(e, hyperplane_of(4, gamma), 3)
        assert rep.condition == "size"
        assert rep.asserted
        assert rep.matroid_rank_full == 4
        assert rep.matroid_rank_intersection == 3

    e11 = bose_burton(4, 3).without_point(4)
    for gamma in range(1, 16):
        rep = reconcile_hyperplane(e11, hyperplane_of(4, gamma), 3)
        assert rep.condition == "free-dense"
        assert rep.matroid_rank_intersection == 3

    basis_only = PointSet.from_points(4, [1, 2, 4, 8])
    rep = reconcile_hyperplane(basis_only, hyperplane_of(4, 8), 3)
    assert rep.condition is None and not rep.asserted
    assert rep.matroid_rank_intersection == 3  # measured, not asserted


def test_reconcile_ranks_the_whole_set_once(monkeypatch):
    import pgfree.matroid as matroid

    ranked = []
    real = matroid.rank_of
    monkeypatch.setattr(matroid, "rank_of", lambda e: ranked.append(e) or real(e))
    e = PointSet.full(4).without_point(5)
    for gamma in range(1, 16):
        reconcile_hyperplane(e, hyperplane_of(4, gamma), 3)
    assert ranked.count(e) == 1
    assert len(ranked) == 16  # and one rank per intersection
