"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every quantitative claim
is asserted exactly (integer or rational arithmetic); runtime budgets are
asserted where the criterion states one.
"""

import hashlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from pgfree.constructions import affine_set, bose_burton, m_k5
from pgfree.errors import InternalInconsistencyError
from pgfree.geometry import echelon_basis, rank_of
from pgfree.matroid import critical_number, is_pg_free, matroid_rank, triangle_count_naive
from pgfree.pointset import PointSet, pointset_from_mask
from pgfree.search import find_triangle_free_flat
from pgfree.spectral import (
    Spectrum,
    claim_quantities,
    counting_bound_check,
    triangle_count_spectral,
    uniformity,
    walsh_hadamard,
)
from pgfree.verify import SweepConfig, analyze, run_sweep, sample_pointset


@contextmanager
def criterion(num: int, title: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d}: FAIL — {title}")
        raise
    print(f"\nACCEPTANCE {num:2d}: PASS — {title} ({time.perf_counter() - t0:.1f}s)")


def digest(outcome) -> str:
    """sha256 of a sweep's canonical JSON: pins its bytes across refactors."""
    return hashlib.sha256(outcome.to_canonical_json().encode()).hexdigest()


def test_criterion_01_bose_burton_exhaustive():
    with criterion(1, "extremal bound, exhaustive r=4: max sizes 8 and 12"):
        t0 = time.perf_counter()
        out2 = run_sweep(SweepConfig(rank=4, level=2, mode="exhaustive", checks=("bose-burton",)))
        out3 = run_sweep(SweepConfig(rank=4, level=3, mode="exhaustive", checks=("bose-burton",)))
        elapsed = time.perf_counter() - t0
        for out in (out2, out3):
            assert out.total_violations == 0
            assert out.sets_processed == 1 << 15
        # zero violations includes the equality clause: every set meeting the
        # bound was verified disjoint from a flat of the matching corank
        assert out2.checks["bose-burton"]["extremal"]["max_free_size"]["value"] == "8"
        assert out3.checks["bose-burton"]["extremal"]["max_free_size"]["value"] == "12"
        assert digest(out2) == "bf56a39eccd8388f22e3d37a6dde0d9bf34a61fe99a76bcef6304800c47345d4"
        assert digest(out3) == "cd12ef1ca1152db40572277ef3a9c48586a069ad0179023357ee42cb08d4a042"
        assert elapsed < 60.0


def test_criterion_02_main_theorem_exhaustive():
    with criterion(2, "dense free sets admit a dense triangle-free flat (r=4, n=3 and n=4)"):
        t0 = time.perf_counter()
        out3 = run_sweep(SweepConfig(rank=4, level=3, mode="exhaustive", checks=("thm-1.1",)))
        st3 = out3.checks["thm-1.1"]
        assert st3["violations"] == 0
        assert st3["evaluated"] == 455  # fano-free sets with >= 11 points
        assert int(st3["extremal"]["min_intersection"]["value"]) >= 3
        assert digest(out3) == "9d4d7d47ffc9d6593c2a0e6b5557dbe34d5cf4300c20bd05f77f470ddf95276d"
        assert time.perf_counter() - t0 < 300.0

        out4 = run_sweep(SweepConfig(rank=4, level=4, mode="exhaustive", checks=("thm-1.1",)))
        st4 = out4.checks["thm-1.1"]
        assert st4["violations"] == 0
        assert st4["evaluated"] == 15  # proper subsets with >= 14 points
        assert int(st4["extremal"]["min_intersection"]["value"]) >= 2
        assert digest(out4) == "114debfe1338ac87c5b96b3eb40246eec682f13cfbeafd447baf8b7d3a7e416d"


def test_criterion_03_tightness_witness():
    with criterion(3, "K_5 cycle space sits at the threshold without the conclusion"):
        k5 = m_k5()
        assert k5.size == 10
        assert Fraction(k5.size) == (1 - Fraction(3, 8)) * 16
        assert matroid_rank(k5) == 4
        assert not is_pg_free(k5, 3).found
        assert critical_number(k5) == 3
        res, _ = find_triangle_free_flat(k5, 3, "exhaustive")
        assert not res.found  # recorded certificate: conclusion fails at equality
        res_d, trace = find_triangle_free_flat(k5, 3, "descent")
        assert not res_d.found and trace.fallback_level == 3


def test_criterion_04_counting_bound_random():
    with criterion(4, ">= 1e5 random sets, exact counting bound at epsilon_min"):
        t0 = time.perf_counter()
        per_rank = 11112
        total = 0
        for r in range(4, 13):
            two2r = 1 << (2 * r)
            for i in range(per_rank):
                e = sample_pointset(r, seed=1_000 + r, index=i)
                holds, lhs, rhs = counting_bound_check(e, uniformity(e).epsilon_min)
                assert holds and lhs <= rhs
                total += 1
        assert total >= 100_000
        # the affine set meets the bound with equality at every rank
        for r in range(4, 13):
            holds, lhs, rhs = counting_bound_check(affine_set(r, 1), Fraction(1, 2))
            assert holds and lhs == rhs == Fraction(1 << (2 * r), 8)
        assert time.perf_counter() - t0 < 600.0


def test_criterion_05_spectral_naive_equivalence():
    with criterion(5, "spectral count equals the translation count everywhere"):
        for r in (1, 2, 3):
            for mask in range(1 << ((1 << r) - 1)):
                e = PointSet(r, mask << 1)
                assert triangle_count_spectral(e) == triangle_count_naive(e)
        for r in range(4, 13):
            for i in range(10_000):
                e = sample_pointset(r, seed=2_000 + r, index=i)
                assert triangle_count_spectral(e) == triangle_count_naive(e)


def test_criterion_06_parseval_embedded():
    with criterion(6, "Parseval holds exactly and is enforced at construction"):
        rng = random.Random(6)
        for r in (1, 4, 7, 10, 13):
            for _ in range(20):
                e = PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < 0.5])
                spec = walsh_hadamard(e)
                assert sum(int(v) ** 2 for v in spec.coeffs.tolist()) == (1 << r) * e.size
        good = walsh_hadamard(PointSet.from_points(4, [1, 2, 3, 8]))
        bad = good.coeffs.copy()
        bad[5] += 2
        with pytest.raises(InternalInconsistencyError):
            Spectrum(4, bad, 4)


def test_criterion_07_cone_suite():
    with criterion(7, "cone size bound, freeness, and the cone identity"):
        out = run_sweep(SweepConfig(rank=4, level=3, mode="exhaustive", checks=("lemma-2.5",)))
        st = out.checks["lemma-2.5"]
        assert st["violations"] == 0
        assert st["evaluated"] == (1 << 15) - 1  # every nonempty subset
        assert digest(out) == "a05f0f5ca2b752083753db6f7c9ff54df97708f8b842e5df414c41b3ed2f8705"
        for r in range(5, 11):
            for i in range(40):
                e = sample_pointset(r, seed=3_000 + r, index=i)
                if e.size == 0:
                    continue
                q = claim_quantities(e)  # raises unless sum of cones == T
                bound = 2 * e.size - (1 << r)
                assert all(v >= bound for v in q.cone_sizes.values())
            # constructed dense fano-free sets keep the freeness clause active
            rng = random.Random(r)
            e = bose_burton(r, 3)
            for w in rng.sample(e.points, 2):
                e = e.without_point(w)
            assert not is_pg_free(e, 3).found
            for p in list(e)[:10]:
                ep_pts = [x for x in e if x != p and (x ^ p) in e]
                ep = PointSet.from_points(r, ep_pts)
                assert ep.size >= 2 * e.size - (1 << r)
                assert not is_pg_free(ep, 2).found


def test_criterion_08_hyperplane_bounds_exhaustive():
    with criterion(8, "hyperplane size bounds over all qualifying (E, H) pairs at r=4"):
        out = run_sweep(SweepConfig(rank=4, level=3, mode="exhaustive", checks=("lemma-2.4",)))
        st = out.checks["lemma-2.4"]
        assert st["violations"] == 0
        assert st["evaluated"] == 202_545  # qualifying pairs, frozen
        assert st["extremal"]["min_outside_slack"]["value"] == "0/1"  # equality occurs
        assert digest(out) == "71e6fb605062fcdda01abb1b5590813c3e1a6389ec6507c8222d36e26adfb98f"


def test_criterion_09_goevaerts_storme_spot_check():
    with criterion(9, "triangle-free sets of size >= 6 at r=4 avoid a corank-2 flat"):
        out = run_sweep(SweepConfig(rank=4, level=2, mode="exhaustive", checks=("gs",)))
        st = out.checks["gs"]
        assert st["violations"] == 0
        assert st["evaluated"] == 555  # triangle-free sets above the GS threshold
        assert digest(out) == "fe0e0823c504160f70c2d3c7dde67b2b9ff3e5ab9e8602dce715b03bcc9493fa"


def test_criterion_10_critical_number_range():
    with criterion(10, "dense fano-free sets at r=4 have critical number 2 or 3"):
        out = run_sweep(SweepConfig(rank=4, level=3, mode="exhaustive", checks=("cor-1.3",)))
        st = out.checks["cor-1.3"]
        assert st["violations"] == 0
        assert st["evaluated"] == 455
        assert st["extremal"]["max_chi"]["value"] == "2"
        assert digest(out) == "c315bc14bf5762cf3f52d51896c0f56d2df011805840c7f36e21f46f0e2f5b08"


def _half_density_random_set(rank: int, seed: int) -> PointSet:
    """Seeded random set of exactly half density: the union of a random half
    of the cosets of a random rank-(rank/2) subspace.

    The family is random yet keeps exact analysis (in particular the
    critical number, which reduces to the quotient) desk-computable; a
    uniformly random half-density set would make the exact critical-number
    search astronomically large at this rank.
    """
    rng = random.Random(seed)
    half = rank // 2
    while True:
        basis = echelon_basis(rng.randrange(1, 1 << rank) for _ in range(half))
        if len(basis) == half:
            break
    span = [0]
    for b in basis:
        span += [w ^ b for w in span]
    rows = list(basis)
    complement = []
    for i in range(rank):
        if rank_of(rows + [1 << i]) > len(rows):
            rows.append(1 << i)
            complement.append(1 << i)
    classes = rng.sample(range(1, 1 << (rank - half)), (1 << (rank - half)) // 2)
    mask = np.zeros(1 << rank, dtype=np.uint8)
    span_arr = np.array(span, dtype=np.int64)
    for cls in classes:
        rep = 0
        for i, c in enumerate(complement):
            if (cls >> i) & 1:
                rep ^= c
        mask[span_arr ^ rep] = 1
    return pointset_from_mask(rank, mask)


def test_criterion_11_performance():
    with criterion(11, "transform at r=20 under 1s; full analyze at r=16 under 30s"):
        e20 = sample_pointset(20, seed=11, index=0)
        t0 = time.perf_counter()
        spec = walsh_hadamard(e20)
        wht_time = time.perf_counter() - t0
        assert wht_time < 1.0
        assert spec[0] == e20.size

        e16 = _half_density_random_set(16, seed=20260810)
        assert e16.size == 1 << 15
        t0 = time.perf_counter()
        report = analyze(e16, [2, 3])
        analyze_time = time.perf_counter() - t0
        assert analyze_time < 30.0
        assert report.size == 1 << 15
        assert report.matroid_rank == 16
        assert report.density == Fraction(1, 2)
        assert 1 <= report.critical_number <= 16
        assert report.triangle_count_ordered % 6 == 0
        assert report.flat_search is not None
        print(f"\n    wht r=20: {wht_time:.3f}s; analyze r=16: {analyze_time:.2f}s", end="")


def test_criterion_12_determinism_across_workers():
    with criterion(12, "byte-identical sweep outcomes for any worker count"):
        cfg = SweepConfig(
            rank=5,
            level=3,
            mode="random",
            sample_count=400,
            rng_seed=123,
            checks=("bose-burton", "thm-3.1", "lemma-2.5"),
        )
        texts = {run_sweep(cfg, workers=w).to_canonical_json() for w in (1, 2, 3, 7)}
        assert len(texts) == 1
        # r = 8 runs in blocks of 256 sets, and the ranges of 2, 3 and 7
        # workers start inside a block
        cfg8 = SweepConfig(rank=8, level=3, mode="random", sample_count=600, rng_seed=88,
                           checks=("thm-3.1", "bose-burton"))
        texts8 = {run_sweep(cfg8, workers=w).to_canonical_json() for w in (1, 2, 3, 7)}
        assert len(texts8) == 1
        cfg_ex = SweepConfig(rank=4, level=3, mode="exhaustive", checks=("thm-1.1",))
        texts_ex = {run_sweep(cfg_ex, workers=w).to_canonical_json() for w in (1, 4)}
        assert len(texts_ex) == 1
