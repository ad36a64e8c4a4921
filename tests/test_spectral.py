import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pgfree.constructions import affine_set, bose_burton
from pgfree.errors import HypothesisError, InternalInconsistencyError
from pgfree.matroid import triangle_count_naive
from pgfree.pointset import PointSet, pointset_from_mask
from pgfree.search import hyperplane_intersection
from pgfree.spectral import (
    Spectrum,
    _BLOCK,
    _BYTE_ROWS,
    _CUBE_CHUNK,
    _butterfly,
    _moments,
    _radix4,
    claim_quantities,
    counting_bound_check,
    fwht_inplace,
    triangle_count_spectral,
    triangle_counts_per_hyperplane,
    uniformity,
    walsh_hadamard,
)
from pgfree.verify import sample_pointset

from oracles import (
    brute_cone,
    brute_epsilon_min_num,
    brute_triangle_count,
    copying_fwht,
    direct_walsh,
    python_cube_sum,
    word_transform,
)


def random_set(rng, r, density=0.5):
    return PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < density])


@pytest.mark.parametrize("r", range(1, 9))
def test_walsh_matches_direct_definition(r):
    rng = random.Random(100 + r)
    for _ in range(5):
        e = random_set(rng, r)
        spec = walsh_hadamard(e)
        assert spec.coeffs.tolist() == direct_walsh(e.points, r)
        assert spec[0] == e.size


def test_affine_spectrum_shape():
    r, gamma0 = 5, 0b00110
    e = PointSet.from_points(r, [x for x in range(1, 1 << r) if (x & gamma0).bit_count() & 1])
    spec = walsh_hadamard(e)
    expect = np.zeros(1 << r, dtype=np.int64)
    expect[0] = 1 << (r - 1)
    expect[gamma0] = -(1 << (r - 1))
    assert np.array_equal(spec.coeffs, expect)


def test_parseval_is_enforced_at_construction():
    e = PointSet.from_points(3, [1, 2, 4, 7])
    spec = walsh_hadamard(e)
    assert int(np.dot(spec.coeffs, spec.coeffs)) == e.size << 3
    # each fault in the first block of a one-block table, and in the last
    # entry of an r = 17 table, two blocks past the first
    big = sample_pointset(17, 4, 0)
    for e, gamma in ((e, 3), (big, -1)):
        good = walsh_hadamard(e).coeffs
        r = e.rank
        bad = good.copy()
        bad[gamma] += 2
        with pytest.raises(InternalInconsistencyError, match="Parseval"):
            Spectrum(r, bad, e.size)
        for value in (e.size + 1, -e.size - 1):
            bad = good.copy()
            bad[gamma] = value
            with pytest.raises(InternalInconsistencyError, match="exceeds the set size"):
                Spectrum(r, bad, e.size)


def test_involution_recovers_indicator():
    rng = random.Random(5)
    for r in (1, 3, 6):
        e = random_set(rng, r)
        a = e.indicator().astype(np.int64)
        fwht_inplace(a)
        fwht_inplace(a)
        assert np.array_equal(a, e.indicator().astype(np.int64) << r)


def test_byte_rows_are_the_first_six_stages_of_their_word():
    bytes_ = np.arange(256, dtype=np.uint64)
    for k in range(8):
        assert np.array_equal(_BYTE_ROWS[k], word_transform(bytes_ << np.uint64(8 * k)))
    # a word's first six stages are the sum of its eight bytes' rows
    rng = np.random.default_rng(64)
    words = rng.integers(0, 1 << 64, 200, dtype=np.uint64, endpoint=False)
    words[:2] = 0, (1 << 64) - 1
    by = words.view(np.uint8).reshape(-1, 8)
    rows = sum(_BYTE_ROWS[k][by[:, k]].astype(np.int64) for k in range(8))
    assert np.array_equal(rows, word_transform(words))
    assert int(abs(rows).max()) == 64


def _assert_transforms_match_copying_butterfly(r, rng):
    for density in (0.1, 0.5, 1.0):
        mask = rng.random(1 << r) < density
        mask[0] = False
        e = pointset_from_mask(r, mask)
        coeffs = walsh_hadamard(e).coeffs
        # the butterfly's table is int32 at every rank
        assert coeffs.dtype == np.int32
        assert np.array_equal(coeffs, copying_fwht(mask.astype(np.int64)))
    # the in-place butterfly on arbitrary int64 input, as the per-hyperplane
    # counts use it
    a = rng.integers(-(1 << 20), 1 << 20, 1 << r)
    assert np.array_equal(fwht_inplace(a.copy()), copying_fwht(a.copy()))


# 17 and 18 run wide stages past a whole block
@pytest.mark.parametrize("r", range(1, 19))
def test_int32_transform_matches_copying_int64_butterfly(r):
    _assert_transforms_match_copying_butterfly(r, np.random.default_rng(r))


def test_transform_peak_is_the_int32_table_plus_a_few_blocks():
    # The spectrum is the int32 table the butterfly writes, never widened,
    # so the transform's peak is that table plus block-sized temporaries
    # (the block's gathered byte rows and its int16 copy, a pass's
    # quarter-block pieces, or the moments pass's int64 squares) and the
    # bitset's bytes, 1/32 of the table: about 1.4 MB at r = 20, where the
    # int64 table alone took 8 MiB.
    import tracemalloc

    r = 20
    e = sample_pointset(r, 1, 0)
    e.bits
    tracemalloc.start()
    try:
        coeffs = walsh_hadamard(e).coeffs
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert coeffs.dtype == np.int32
    assert peak < coeffs.nbytes + 4 * _BLOCK * 8
    assert np.array_equal(coeffs, copying_fwht(e.indicator().astype(np.int64)))


def _full_and_punctured(r):
    """PointSet.full(r), and the full set minus 2^(r-4) seeded points."""
    mask = np.ones(1 << r, dtype=bool)
    mask[0] = False
    mask[np.random.default_rng(r).choice(1 << r, 1 << (r - 4), replace=False)] = False
    return PointSet.full(r), pointset_from_mask(r, mask)


def _stage_calls(monkeypatch):
    """The list that each kernel call appends (stage widths, dtype, size) to."""
    import pgfree.spectral as spectral

    calls = []

    def radix4(a, h):
        calls.append(((h, 2 * h), a.dtype, a.size))
        _radix4(a, h)

    def butterfly(a, h):
        calls.append(((h,), a.dtype, a.size))
        _butterfly(a, h)

    monkeypatch.setattr(spectral, "_radix4", radix4)
    monkeypatch.setattr(spectral, "_butterfly", butterfly)
    return calls


def _assert_int16_stages_stay_narrow(calls):
    # a stage of width h forms values of at most 2h, so int16 holds the
    # stages narrower than 2^14, and no wider one may run there
    narrow = [widths for widths, dtype, _ in calls if dtype == np.int16]
    assert narrow and max(max(widths) for widths in narrow) == 1 << 13


@pytest.mark.parametrize("r", range(14, 18))
def test_full_sets_fill_the_int16_stages(r, monkeypatch):
    # After the stage of width h an entry of the full set is 2h (2h - 1 in
    # the run holding word 0), the most the width allows: the int16 stages
    # form up to 2^14, and from r = 15 the int32 ones form 2^15 and more,
    # which int16 would wrap.  At r = 15 the in-block stages are nine, so
    # the last is a plain stage at width 2^14, in int32.
    calls = _stage_calls(monkeypatch)
    for e in _full_and_punctured(r):
        coeffs = walsh_hadamard(e).coeffs
        assert np.array_equal(coeffs, copying_fwht(e.indicator().astype(np.int64)))
    _assert_int16_stages_stay_narrow(calls)
    if r == 15:
        assert ((1 << 14,), np.int32, 1 << 15) in calls


@pytest.mark.parametrize("r", range(15, 18))
def test_odd_in_block_stage_count_runs_its_plain_stage_in_int32(r, monkeypatch):
    # Under 2^15-entry blocks every block's in-block stages from width 64
    # are nine: four int16 passes, then a plain stage at width 2^14 that
    # forms 2^15 on the full set, in the block's int32 slot.
    monkeypatch.setattr("pgfree.spectral._BLOCK", 1 << 15)
    calls = _stage_calls(monkeypatch)
    for e in _full_and_punctured(r):
        coeffs = walsh_hadamard(e).coeffs
        assert np.array_equal(coeffs, copying_fwht(e.indicator().astype(np.int64)))
    _assert_int16_stages_stay_narrow(calls)
    plain = [c for c in calls if c == ((1 << 14,), np.int32, 1 << 15)]
    assert len(plain) == 2 << (r - 15)


# blocks smaller than a word's 64 entries, as large as one, and many blocks
# to a table
@pytest.mark.parametrize("block", [2, 8, 64])
@pytest.mark.parametrize("r", range(1, 13))
def test_transforms_match_copying_butterfly_at_any_block_size(r, block, monkeypatch):
    monkeypatch.setattr("pgfree.spectral._BLOCK", block)
    _assert_transforms_match_copying_butterfly(r, np.random.default_rng(100 * r + block))


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize("r", range(7))
def test_sylvester_product_matches_copying_butterfly_from_any_width(r, dtype):
    # the stages from width w are the copying butterfly on every column of
    # the table read as (2^r / w) rows of w; int32 sums of 64 entries below
    # 2^20 in magnitude fit
    n = 1 << r
    rng = np.random.default_rng(r)
    for width in [1 << j for j in range(max(r, 1))]:
        a = rng.integers(-(1 << 20), 1 << 20, n).astype(dtype)
        expect = a.astype(np.int64).reshape(n // width, width)
        for column in expect.T:
            column[:] = copying_fwht(column.copy())
        got = fwht_inplace(a, width)
        assert got is a and got.dtype == dtype
        assert np.array_equal(got, expect.reshape(-1))


def test_int64_transform_temporaries_stay_within_a_few_quarter_blocks():
    # The per-hyperplane counts transform int64 tables from width 1.  Each
    # radix-4 pass makes four temporaries of at most a quarter block at
    # every width, freed piece by piece; numpy's buffered iterator adds at
    # most about one more on the short-row stages.
    import tracemalloc

    a = np.random.default_rng(20).integers(-(1 << 20), 1 << 20, 1 << 20)
    expect = copying_fwht(a.copy())
    tracemalloc.start()
    try:
        fwht_inplace(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * (_BLOCK >> 2) * a.itemsize
    assert np.array_equal(a, expect)


def _checked_kernel_calls(r, monkeypatch):
    """Kernel calls of each transform in triangle_counts_per_hyperplane at
    rank r, as (stage widths, table size) pairs, checked to run every
    stage from the transform's first width to n/2 exactly once over the
    whole table: in one call, or one per block."""
    import pgfree.spectral as spectral

    # the spectrum's in-block stages run first, so its entry is open from
    # the start; a table of a block or more then runs its wider stages in
    # one fwht_inplace call, which joins that entry, and a narrower one is
    # done in its block, with no fwht_inplace call.  In the one-word
    # ambient the spectrum is one padded word's byte rows, with no stage,
    # and both cone-size transforms are products, with no fwht_inplace call
    transforms = [(1 << r, 64, [])] if r > 6 else []
    alone = (1 << r) >= spectral._BLOCK
    fwht_calls = []

    def fwht(a, width=1):
        if fwht_calls or not alone:
            transforms.append((a.size, width, []))
        fwht_calls.append(width)
        return fwht_inplace(a, width)

    def radix4(a, h):
        transforms[-1][2].append(((h, 2 * h), a.size))
        _radix4(a, h)

    def butterfly(a, h):
        transforms[-1][2].append(((h,), a.size))
        _butterfly(a, h)

    monkeypatch.setattr(spectral, "fwht_inplace", fwht)
    monkeypatch.setattr(spectral, "_radix4", radix4)
    monkeypatch.setattr(spectral, "_butterfly", butterfly)
    triangle_counts_per_hyperplane(sample_pointset(r, 19, 0))
    if r <= 6:
        assert transforms == fwht_calls == []
        return []
    # the spectrum's stages from width 64 and both cone-size transforms'
    # stages from width 1, each cone-size transform one fwht_inplace call
    assert [(n, w) for n, w, _ in transforms] == [(1 << r, 64), (1 << r, 1), (1 << r, 1)]
    assert len(fwht_calls) == len(transforms) - (not alone)
    out = []
    for n, width, calls in transforms:
        covered = {}
        for widths, size in calls:
            for h in widths:
                covered[h] = covered.get(h, 0) + size
        assert covered == {1 << j: n for j in range(width.bit_length() - 1, r)}, (n, width)
        out += calls
    return out


@pytest.mark.parametrize("r", range(1, 8))
def test_butterfly_runs_only_above_one_word(r, monkeypatch):
    calls = _checked_kernel_calls(r, monkeypatch)
    assert (calls == []) == (r <= 6)


def test_small_blocks_leave_one_plain_stage_and_split_wide_passes(monkeypatch):
    # Under 16-entry blocks, quarter-block pieces of 4 entries, ranks 7-12
    # run both rare paths: an odd stage count ends in one plain stage, and
    # a pass wider than a piece goes in column chunks.
    monkeypatch.setattr("pgfree.spectral._BLOCK", 16)
    calls = [c for r in range(7, 13) for c in _checked_kernel_calls(r, monkeypatch)]
    assert any(len(widths) == 1 for widths, _ in calls)
    assert any(len(widths) == 2 and widths[0] > 4 for widths, _ in calls)


def test_uniformity_affine_and_empty():
    r, g = 4, 0b0101
    e = PointSet.from_points(r, [x for x in range(1, 16) if (x & g).bit_count() & 1])
    rep = uniformity(e)
    assert rep.epsilon_min == Fraction(1, 2)
    assert rep.alpha == Fraction(1, 2)
    assert rep.worst_gamma == g
    assert uniformity(PointSet.empty(4)).epsilon_min == 0


def test_uniformity_witness_is_least_gamma_of_greatest_magnitude():
    # every set at r=3 and r=4 containing word 1: ties between a positive
    # and a negative coefficient occur in both index orders
    orders = set()
    for r in (3, 4):
        for mask in range(0, 1 << ((1 << r) - 1), 2):
            e = PointSet(r, (mask | 1) << 1)
            c = direct_walsh(e.points, r)
            top = max(abs(v) for v in c[1:])
            rep = uniformity(e)
            assert rep.epsilon_min == Fraction(top, 1 << r)
            assert rep.worst_gamma == min(g for g in range(1, 1 << r) if abs(c[g]) == top)
            signs = [c[g] > 0 for g in range(1, 1 << r) if abs(c[g]) == top]
            if True in signs and False in signs:
                orders.add(signs[0])
    assert orders == {True, False}


@pytest.mark.parametrize("g", [_BLOCK, _BLOCK + 1])
def test_uniformity_witness_tie_across_a_block_boundary(g):
    # E = {x : x . g = s, x . h = 1 - s} has coefficients of magnitude
    # 2^r / 4 at exactly g, h and g ^ h, signed -, + and - when s = 1 and
    # +, - and - when s = 0.  The scan runs over gamma = 1, 2, ... in
    # blocks, and g is the last gamma of the first block or the first of
    # the second, with h and g ^ h after it.
    r = 18
    h = g | 1 << (r - 1)
    x = np.arange(1 << r)
    dot_g, dot_h = np.bitwise_count(x & g) & 1, np.bitwise_count(x & h) & 1
    for s in (0, 1):
        e = pointset_from_mask(r, (dot_g == s) & (dot_h == 1 - s))
        c = walsh_hadamard(e).coeffs
        top = 1 << (r - 2)
        assert [int(c[v]) for v in (g, h, g ^ h)] == [top - 2 * s * top, 2 * s * top - top, -top]
        rep = uniformity(e)
        assert rep.epsilon_min == Fraction(1, 4)
        assert rep.worst_gamma == g


def test_uniformity_matches_hyperplane_loop():
    rng = random.Random(11)
    for _ in range(25):
        e = PointSet.from_points(4, rng.sample(range(1, 16), 12))
        rep = uniformity(e)
        assert rep.epsilon_min == Fraction(brute_epsilon_min_num(e.points, 4), 16)


def test_character_hyperplane_duality():
    rng = random.Random(23)
    for r in (2, 3, 5):
        e = random_set(rng, r)
        spec = walsh_hadamard(e)
        for gamma in range(1, 1 << r):
            inside = sum(1 for x in e if (x & gamma).bit_count() & 1 == 0)
            outside = e.size - inside
            assert spec[gamma] == inside - outside


def test_spectral_count_examples():
    a, b = 0b01, 0b10
    tri = PointSet.from_points(2, [a, b, a ^ b])
    assert triangle_count_spectral(tri) == 6
    full_plane = PointSet.full(3)
    assert triangle_count_spectral(full_plane) == 42
    assert brute_triangle_count(full_plane.points) == 42
    r, g = 4, 1
    affine = PointSet.from_points(r, [x for x in range(1, 16) if x & g])
    assert triangle_count_spectral(affine) == 0


def test_spectral_equals_naive_exhaustively_small():
    for r in (1, 2, 3):
        npoints = (1 << r) - 1
        for mask in range(1 << npoints):
            e = PointSet(r, mask << 1)
            t = triangle_count_spectral(e)
            assert t == brute_triangle_count(e.points)
            assert t % 6 == 0


@given(st.integers(4, 10), st.randoms(use_true_random=False))
def test_spectral_equals_brute_random(r, rng):
    pts = [w for w in range(1, 1 << r) if rng.random() < 0.4]
    e = PointSet.from_points(r, pts)
    t = triangle_count_spectral(e)
    mem = set(pts)
    pair_count = sum(1 for x, y in combinations(pts, 2) if x ^ y in mem)
    assert t == 2 * pair_count
    assert t % 6 == 0


def test_counting_bound_affine_equality():
    for r in (3, 4, 6):
        e = PointSet.from_points(r, [x for x in range(1, 1 << r) if x & 1])
        holds, lhs, rhs = counting_bound_check(e, Fraction(1, 2))
        assert holds
        assert lhs == rhs == Fraction(1 << (2 * r), 8)


def test_counting_bound_empty_and_random():
    holds, lhs, rhs = counting_bound_check(PointSet.empty(4), Fraction(1, 4))
    assert holds and lhs == 0 and rhs == 0
    rng = random.Random(3)
    for r in range(4, 11):
        e = random_set(rng, r)
        rep = uniformity(e)
        holds, lhs, rhs = counting_bound_check(e, rep.epsilon_min)
        assert holds and lhs <= rhs


def _fraction_counting_bound(e, epsilon):
    """The counting bound decided on Fractions, as its statement reads."""
    import pgfree.spectral as spectral

    epsilon = Fraction(epsilon)
    rep = uniformity(e)
    if epsilon < rep.epsilon_min:
        exc = HypothesisError(f"E is not {epsilon}-uniform (needs at least {rep.epsilon_min})",
                              witness=rep.worst_gamma)
        return HypothesisError, str(exc)
    m, R = e.size, 1 << e.rank
    lhs = Fraction(abs(spectral.triangle_count_spectral(e) * R - m**3), R)
    rhs = epsilon * (m * (R - m))
    if lhs > rhs:
        return InternalInconsistencyError, str(
            InternalInconsistencyError(f"counting bound failed on {e.to_compact()}: {lhs} > {rhs}"))
    return True, lhs, rhs


def _counting_bound_outcome(e, epsilon):
    try:
        return counting_bound_check(e, epsilon)
    except (HypothesisError, InternalInconsistencyError) as exc:
        return type(exc), str(exc)


def test_counting_bound_on_integers_is_the_fraction_decision(monkeypatch):
    import pgfree.spectral as spectral

    rng = random.Random(31)
    sets = [PointSet.from_points(4, [x for x in range(1, 16) if x & 1]), PointSet.empty(5)]
    sets += [random_set(rng, r) for r in range(3, 9) for _ in range(4)]
    for e in sets:
        least = uniformity(e).epsilon_min
        step = Fraction(1, 1 << (e.rank + 1))
        # at, just below and just above the least epsilon, and as an int
        for eps in (least, least - step, least + step, 1, 0.5):
            assert _counting_bound_outcome(e, eps) == _fraction_counting_bound(e, eps), (e.to_compact(), eps)
    # a triangle count off by 2^r pushes the bound past its limit on the
    # full set, whose least epsilon is exactly its slack's
    real = spectral.triangle_count_spectral
    e = PointSet.full(5)
    monkeypatch.setattr(spectral, "triangle_count_spectral", lambda f: real(f) + 32)
    out = _counting_bound_outcome(e, uniformity(e).epsilon_min)
    assert out == _fraction_counting_bound(e, uniformity(e).epsilon_min)
    assert out[0] is InternalInconsistencyError


def test_counting_bound_requires_uniformity():
    r, g = 4, 1
    e = PointSet.from_points(r, [x for x in range(1, 16) if x & g])
    with pytest.raises(HypothesisError) as exc:
        counting_bound_check(e, Fraction(1, 4))
    assert exc.value.witness == g


def test_claim_quantities_examples():
    tri = PointSet.from_points(3, [1, 2, 3])
    q = claim_quantities(tri)
    assert q.triangle_count == 6
    assert sum(q.cone_sizes.values()) == 6
    assert q.cone_sizes == {1: 2, 2: 2, 3: 2}

    plane = PointSet.full(3)
    q = claim_quantities(plane)
    assert set(q.cone_sizes.values()) == {6}
    assert q.triangle_count == 42
    for p in plane:
        assert len(brute_cone(plane.points, p, 3)) == 6

    free = PointSet.from_points(4, [1, 2, 4, 8])
    q = claim_quantities(free)
    assert q.triangle_count == 0
    assert set(q.cone_sizes.values()) == {0}
    assert not q.lower_holds and q.upper_holds


def _bose_burton_by_mask(r, n):
    """bose_burton(r, n) built from its bitset: the words at or above 2^(r-n+1)."""
    low = 1 << (r - n + 1)
    return PointSet(r, PointSet.full(r).bits >> low << low)


def test_bose_burton_by_mask_is_bose_burton():
    for r, n in ((4, 2), (6, 2), (6, 3), (8, 3)):
        assert _bose_burton_by_mask(r, n) == bose_burton(r, n)


@pytest.mark.parametrize("r", [21, 22])
def test_cube_sum_matches_python_integers_above_rank_20(r):
    # sample sets have |E| near 2^(r-1), so c[0]^3 sits near 2^63 at r=22;
    # bose_burton(r, 3) has three coefficients of -2^(r-2) and a cube sum of
    # 3 * 2^(3r-3), past 2^63 at both ranks
    sets = (
        sample_pointset(r, 7, 0),
        affine_set(r, 1),
        _bose_burton_by_mask(r, 2),
        _bose_burton_by_mask(r, 3),
    )
    for e in sets:
        spec = walsh_hadamard(e)
        total = python_cube_sum(spec.coeffs)
        assert spec.cube_sum == total
        assert triangle_count_spectral(e) == total >> r


def test_spectral_closed_forms_at_the_rank_cap():
    r, top = 24, 1 << 24
    full = PointSet.full(r)
    spec = walsh_hadamard(full)
    c = spec.coeffs
    # |c[0]| = 2^24 - 1 is the largest value the int32 butterfly forms
    assert int(c[0]) == top - 1
    assert int(c[1:].min()) == int(c[1:].max()) == -1
    # c[0]^2 is near 2^48, so the int32 table's own dot wraps
    c = c.astype(np.int64)
    assert int(np.dot(c, c)) == (top - 1) << r
    # c[0]^3 is near 2^72, so a plain int64 sum of cubes wraps
    cube_sum = (top - 1) ** 3 - (top - 1)
    assert int(np.dot(c * c, c)) != cube_sum
    assert spec.cube_sum == cube_sum
    assert (spec.nontrivial_min, spec.nontrivial_max) == (-1, -1)
    assert triangle_count_spectral(full) == (top - 1) * (top - 2)
    assert triangle_count_spectral(affine_set(r, 1)) == 0


@pytest.mark.parametrize("r", range(1, 9))
def test_hyperplane_counts_match_the_naive_count(r):
    rng = random.Random(80 + r)
    sets = [PointSet.full(r), PointSet.empty(r)]
    sets += [bose_burton(r, n) for n in (2, 3) if n <= r]
    sets += [random_set(rng, r, density) for density in (0.2, 0.5, 0.8)]
    for e in sets:
        counts = triangle_counts_per_hyperplane(e)
        assert counts.shape == (1 << r,)
        assert int(counts[0]) == triangle_count_naive(e)
        for g in range(1, 1 << r):
            assert int(counts[g]) == triangle_count_naive(hyperplane_intersection(e, g))


def test_hyperplane_counts_on_sampled_normals_at_rank_17():
    # past 4^r |E|^2 < 2^63, where the counts once needed a Python-level loop
    r = 17
    rng = random.Random(17)
    bb = _bose_burton_by_mask(r, 3)
    e = bb.without_point(rng.choice(bb.points))
    counts = triangle_counts_per_hyperplane(e)
    assert int(counts[0]) == triangle_count_naive(e)
    # the normals of the missing flat's hyperplanes meet E in affine sets
    normals = [1 << (r - 1), 1 << (r - 2), 3 << (r - 2)] + rng.sample(range(1, 1 << r), 3)
    for g in normals:
        assert int(counts[g]) == triangle_count_naive(hyperplane_intersection(e, g))
    assert {int(counts[g]) for g in normals[:3]} == {0}


def test_hyperplane_counts_closed_forms_at_the_rank_cap():
    r, top = 24, 1 << 24
    counts = triangle_counts_per_hyperplane(PointSet.full(r))
    assert int(counts[0]) == (top - 1) * (top - 2)
    half = top >> 1
    assert int(counts[1:].min()) == int(counts[1:].max()) == (half - 1) * (half - 2)
    del counts
    counts = triangle_counts_per_hyperplane(affine_set(22, 5))
    assert not counts.any()


def test_hyperplane_counts_need_int64_squares_at_the_rank_cap(monkeypatch):
    # c[0] = 2^24 - 1 of the full set squares to near 2^48; squared in the
    # int32 table's own dtype it wraps, and the counts come out wrong
    import pgfree.spectral as spectral

    r, top = 24, 1 << 24
    full = PointSet.full(r)
    c = walsh_hadamard(full).coeffs
    assert int(np.square(c[:1])[0]) != (top - 1) ** 2
    assert int(np.square(c[:1], dtype=np.int64)[0]) == (top - 1) ** 2

    class Int32Squares:
        """numpy, except that squares keep their input's dtype"""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def square(a, dtype=None):
            return np.square(a)

    monkeypatch.setattr(spectral, "np", Int32Squares())
    assert int(triangle_counts_per_hyperplane(full)[0]) != (top - 1) * (top - 2)


_CUBE_SUM_BASES = [
    [1 << 21],  # 2^63
    [-(1 << 21)],  # -2^63
    [1 << 21, 1 << 21],  # 2^64
    [-(1 << 21), -(1 << 21)],  # -2^64
    [1 << 22, 1 << 21, -(1 << 21)],  # 4 * 2^64
    [1 << 24, -(1 << 22), 1 << 21],  # 2^72 - 2^66 + 2^63
    [(1 << 24) - 1, -(1 << 24) + 3],
]


@pytest.mark.parametrize("base", _CUBE_SUM_BASES)
@pytest.mark.parametrize("tail", [[], [1], [-1], [2], [-2], [1, 1], [-1, -1]])
def test_exact_cube_sum_across_int64_boundaries(base, tail):
    values = base + tail
    c = np.array(values, dtype=np.int64)
    assert _moments(c) == (
        min(values),
        max(values),
        sum(v * v for v in values),
        sum(v**3 for v in values),
    )


@pytest.mark.parametrize("base", _CUBE_SUM_BASES)
def test_exact_cube_sum_across_chunk_boundaries(base):
    # lengths that are not a multiple of the piece, with the extremes split
    # every way across the first piece boundary
    rng = np.random.default_rng(len(base))
    for n in (_BLOCK + 3, 2 * _BLOCK + 1):
        for split in range(len(base) + 1):
            c = rng.integers(-(1 << 12), 1 << 12, n, endpoint=True)
            c[_BLOCK - split : _BLOCK - split + len(base)] = base
            assert _moments(c)[3] == python_cube_sum(c)


def test_exact_cube_sum_on_long_wide_arrays():
    rng = np.random.default_rng(12)
    for n in (1 << 10, 1 << 16):
        c = rng.integers(-(1 << 24), 1 << 24, n, endpoint=True)
        assert _moments(c)[3] == python_cube_sum(c)
        c[: n // 2] = np.abs(c[: n // 2])
        assert _moments(c)[3] == python_cube_sum(c)


def test_exact_cube_sum_on_full_chunks_at_the_bound():
    # every dot of a full chunk of +-2^24 is 2^14 * 2^24 * 2^24 = 2^62
    top = 1 << 24
    for v in (top, -top):
        c = np.full(3 * _CUBE_CHUNK, v, dtype=np.int64)
        assert _moments(c) == (v, v, c.size * v**2, c.size * v**3)
    c[:_CUBE_CHUNK] = top
    assert _moments(c)[3] == -_CUBE_CHUNK * top**3


def _split_pieces(monkeypatch):
    """The list that each piece ``_moments`` sends to ``_split_cube_sum``
    is appended to, in order."""
    import pgfree.spectral as spectral

    pieces = []
    split_cube_sum = spectral._split_cube_sum

    def split(d, sq):
        pieces.append(d)
        return split_cube_sum(d, sq)

    monkeypatch.setattr(spectral, "_split_cube_sum", split)
    return pieces


@pytest.mark.parametrize("peak", [1 << 15, (1 << 15) + 1])
def test_moments_split_only_pieces_past_two_to_the_fifteen(peak, monkeypatch):
    # one int64 dot of d with d * d serves a piece up to |c| = 2^15, even
    # a whole piece at that bound (2^16 cubes of 2^45 sum to 2^61)
    split = _split_pieces(monkeypatch)
    rng = np.random.default_rng(peak)
    c = rng.integers(-(1 << 12), 1 << 12, 3 * _BLOCK + 5, endpoint=True)
    c[_BLOCK : 2 * _BLOCK] = -peak
    c[2 * _BLOCK + 7] = peak
    squares = sum(v * v for v in c.tolist())
    assert _moments(c) == (-peak, peak, squares, python_cube_sum(c))
    if peak == 1 << 15:
        assert split == []
    else:
        assert [d.size for d in split] == [_BLOCK, _BLOCK]
        assert split[0][0] == -peak and split[1][7] == peak


def test_moments_leave_out_the_large_coefficient_at_zero(monkeypatch):
    # c[0] = |E| is past 2^15 but in no piece, so no piece is split
    split = _split_pieces(monkeypatch)
    e = sample_pointset(17, 5, 0)
    spec = walsh_hadamard(e)
    c = spec.coeffs
    assert spec[0] > 1 << 15 >= int(abs(c[1:]).max())
    assert spec.cube_sum == python_cube_sum(c)
    assert (spec.nontrivial_min, spec.nontrivial_max) == (int(c[1:].min()), int(c[1:].max()))
    assert split == []


def test_moments_pass_temporaries_stay_within_a_few_blocks():
    # the checks and moments of an r = 18 spectrum, four blocks long, keep
    # one block of int64 squares, numpy's casting buffers and chunk-sized
    # splits of it, never a table-sized temporary
    import tracemalloc

    r = 18
    e = sample_pointset(r, 6, 0)
    c = walsh_hadamard(e).coeffs.copy()
    tracemalloc.start()
    try:
        Spectrum(r, c, e.size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.dtype == np.int32
    assert peak < 2 * _BLOCK * 8


def test_spectral_results_are_remembered_per_instance():
    e = sample_pointset(8, 3, 0)
    assert triangle_count_spectral(e) is triangle_count_spectral(e)
    assert uniformity(e) is uniformity(e)
    assert {"triangle_count_spectral", "uniformity"} <= e.memo.keys()
    assert "uniformity" not in PointSet(8, e.bits).memo
