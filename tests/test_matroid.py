import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pgfree.constructions import affine_set, bose_burton, m_k5
from pgfree.errors import GeometryError, HypothesisError
from pgfree.geometry import closure, flat_points, hyperplane_of, rank_of
from pgfree.matroid import (
    _NAIVE_PYTHON_CUTOFF,
    _spans_by_bit_lengths,
    FreenessWitness,
    check_corollary_1_3,
    critical_number,
    is_pg_free,
    lift_flat,
    matroid_rank,
    restrict_to_flat,
    triangle_count_naive,
)
from pgfree.pointset import PointSet
from pgfree.spectral import triangle_count_spectral, triangle_counts_per_hyperplane, walsh_hadamard
from pgfree.verify import sample_pointset

from oracles import (
    all_flats,
    brute_chi,
    brute_is_pg_free,
    brute_triangle_count,
    dfs_least_generators,
    flat_rank,
    loop_triangle_count,
    qbinom_recurrence,
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


def _assert_rank_certified(e):
    r, rank = e.rank, rank_of(e.points)
    # the check certifies full rank, and holds exactly on sets with every bit length
    certified = _spans_by_bit_lengths(e)
    assert certified == (len({w.bit_length() for w in e.points}) == r)
    assert rank == r or not certified
    assert matroid_rank(PointSet(r, e.bits)) == rank


def test_bit_length_check_certifies_rank_on_every_subset_up_to_rank_4():
    for r in range(1, 5):
        for bits in range(0, 1 << (1 << r), 2):
            _assert_rank_certified(PointSet(r, bits))


@pytest.mark.parametrize("r", range(5, 17))
def test_bit_length_check_certifies_rank_on_seeded_sets(r):
    for index in range(3):
        e = sample_pointset(r, 11, index)
        _assert_rank_certified(e)
        _assert_rank_certified(e.complement())


@pytest.mark.parametrize("r", [3, 5, 7, 10, 16])
def test_full_rank_without_a_bit_length_falls_back_to_elimination(r):
    # every word of bit length 2 removed: the set still spans, by {3, 5, 7}
    # at r = 3 and by far more points above
    e = PointSet.from_points(r, [w for w in range(1, 1 << r) if w.bit_length() != 2])
    assert not _spans_by_bit_lengths(e)
    assert matroid_rank(e) == r
    _assert_rank_certified(e)
    # a hyperplane section lacks one bit length and has rank r - 1
    section = PointSet.full(r).intersection(flat_points(hyperplane_of(r, 1 << (r - 1))))
    assert matroid_rank(section) == r - 1
    _assert_rank_certified(section)


def _bose_burton_8_3_minus_seeded_points():
    # bose_burton(8, 3) minus k seeded points, k = 1..22: words of bit
    # lengths 7 and 8 only, so the bit-length certificate never applies
    full = bose_burton(8, 3)
    pts = full.points
    for i in range(128):
        drop = set(random.Random(f"7/{i}").sample(pts, 1 + i % (full.size // 8)))
        yield PointSet.from_points(8, [p for p in pts if p not in drop])


def test_elimination_stops_at_full_rank_with_the_rank_of_all_words():
    seeded = [sample_pointset(r, 13, i) for r in range(1, 13) for i in range(3)]
    for e in [*_bose_burton_8_3_minus_seeded_points(), *seeded]:
        for s in (e, e.complement()):
            assert matroid_rank(PointSet(s.rank, s.bits)) == rank_of(s.points)
    e = next(_bose_burton_8_3_minus_seeded_points())
    assert not _spans_by_bit_lengths(e)
    read = []
    assert rank_of((read.append(w) or w for w in e.points), e.rank) == 8
    assert len(read) < e.size // 2


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
        for n in (1, 2, 3, 4):
            assert_matches_dfs(e, n)


@pytest.mark.parametrize("r", [5, 6, 7, 8, 9])
def test_is_pg_free_matches_dfs_oracle_bose_burton(r):
    # Minus 0-5 points: the candidate pools of the last three generators
    # fall on both sides of the 64-point cutoff from r = 7 on.  The oracle's
    # no-witness level-4 search on bose_burton(r, 4) is left to r <= 7,
    # where it stays fast; above, the answer is known.
    rng = random.Random(200 + r)
    for level in (3, 4):
        bb = bose_burton(r, level)
        for k in (r - 5, (r + 2) % 6):
            e = bb
            for w in rng.sample(bb.points, k):
                e = e.without_point(w)
            for n in (2, 3, 4):
                if level == n == 4 and r > 7:
                    # a subset of the PG(3,2)-free bose_burton(r, 4) is free
                    assert is_pg_free(e, 4) == FreenessWitness(False, None)
                    continue
                assert_matches_dfs(e, n)


def fano_free_below(r, low, mid, rng, keep=0.9):
    """A set of rank r whose fanos all have their least point in mid or above.

    Below 2^(r-2) it holds low, whose points flip exactly one of bits 0 and
    1, and mid, at most two points that keep them equal.  Above, it keeps a
    random part of the words with equal bits 0 and 1.  So no fano meets
    low.  A fano through l in low meets the flat below 2^(r-2) in l, in a
    line through l, or lies in it.  In the first two cases its points above
    come in pairs y, y ^ l, which differ in bit 0 or bit 1.  In the last it
    meets the hyperplane of equal bits 0 and 1 in a line, a third point of
    mid.
    """
    high = [w for w in range(1 << (r - 2), 1 << r) if w & 1 == (w >> 1) & 1 and rng.random() < keep]
    return PointSet.from_points(r, sorted(low) + sorted(mid) + high)


def spy_on(monkeypatch, *names):
    """Record the name of every call to the given functions of ``matroid``."""
    import pgfree.matroid as matroid

    calls = []
    for name in names:
        real = getattr(matroid, name)
        monkeypatch.setattr(matroid, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    return calls


def spy_on_kernel(monkeypatch):
    """Record the arguments of every apex-kernel call."""
    import pgfree.matroid as matroid

    calls = []
    kernel = matroid._first_apex_with_pair
    monkeypatch.setattr(matroid, "_first_apex_with_pair", lambda *a: calls.append(a) or kernel(*a))
    return calls


def least_apex_of_dfs(e, n):
    """The first generator the plain DFS oracle fixes, or None."""
    gens = dfs_least_generators(e.points, n)
    return gens[0] if gens else None


def test_apex_kernel_decides_later_apexes(monkeypatch):
    # The kernel must find completions in some blocks and none in others,
    # and agree with the plain DFS: at n = 3 on sets whose first fano apex
    # lies past the least apex, at n = 4 on random sets, where the least
    # apex below the first generator often has no completion.  A flat has
    # many generating tuples, so at n = 3 the tuples are compared too.
    import pgfree.matroid as matroid

    outcomes = []
    kernel = matroid._first_apex_with_pair

    def spy(*args):
        outcomes.append(kernel(*args))
        return outcomes[-1]

    monkeypatch.setattr(matroid, "_first_apex_with_pair", spy)
    for r in (8, 9):
        rng = random.Random(300 + r)
        flipped = [w for w in range(1, 1 << (r - 2)) if w & 3 in (1, 2)]
        kept = [w for w in range(4, 1 << (r - 2)) if w & 3 in (0, 3)]
        for _ in range(6):
            low = [w for w in flipped if rng.random() < rng.random()]
            e = fano_free_below(r, low, rng.sample(kept, 2), rng)
            assert matroid._least_apex(e.bits, e.bits, r) == least_apex_of_dfs(e, 3)
            assert_matches_dfs(e, 3)
        for density in (0.45, 0.55):
            for _ in range(4):
                e = PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < density])
                assert_matches_dfs(e, 4)
    assert any(o is None for o in outcomes)
    assert any(o is not None for o in outcomes)


def test_is_pg_free_small_blocks_split_rows_and_columns(monkeypatch):
    # A tiny block cap splits the apex blocks down to single apexes and the
    # pair rows of the apex kernel down to single rows.
    import pgfree.matroid as matroid

    rng = random.Random(31)
    cases = [(bose_burton(7, 4).without_point(rng.randrange(1, 128)), 4)]
    for r in (7, 8):
        sets = [bose_burton(r, 3), bose_burton(r, 4).without_point(rng.randrange(1, 1 << r))]
        sets += [
            PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < d])
            for d in (0.35, 0.55, 0.8)
        ]
        cases += [(e, n) for e in sets for n in (2, 3)]
    expected = [dfs_witness(e, n) for e, n in cases]
    for cap in (1, 3, 40):
        monkeypatch.setattr(matroid, "_PAIR_BLOCK_ELEMENTS", cap)
        for (e, n), want in zip(cases, expected):
            got = is_pg_free(PointSet(e.rank, e.bits), n)
            assert got.to_json_obj() == want.to_json_obj(), (e.to_compact(), n, cap)


def test_apex_kernel_first_hit_at_word_boundary(monkeypatch):
    # The least point of a fano is 63, which ends a 64-bit word, so all of
    # its completions lie in later words.  With two points below it, in no
    # fano, it is the first apex of the kernel's first block: the search
    # tries the least point itself before the per-hyperplane counts, which
    # cannot settle a set holding a fano, and the walk on from the second
    # point tries that point itself.
    import pgfree.matroid as matroid

    calls = spy_on_kernel(monkeypatch)
    rng = random.Random(41)
    flipped = [w for w in range(1, 63) if w & 3 in (1, 2)]
    for low in (flipped, flipped[:2]):
        e = fano_free_below(8, low, [63], rng)
        assert dfs_least_generators(e.points, 3)[0] == 63
        rest = e.bits & (e.bits - 1)
        assert matroid._least_apex(e.bits, rest, 8) == least_apex_of_dfs(e, 3)
        calls.clear()
        assert_matches_dfs(e, 3)
    assert int(calls[0][2][0]) == 63


def test_walk_completes_a_least_apex_without_the_kernel(monkeypatch):
    # Each set holds the flat spanned by 1, 2, 4 (and 8), so the least
    # point of every pool the walk meets completes: the kernel never runs,
    # even where the pool of g_{n-2} holds more than 64 points.
    calls = spy_on_kernel(monkeypatch)
    rng = random.Random(61)
    for r in (8, 9):
        sets = [PointSet.full(r)]
        for density in (0.5, 0.8):
            pts = [w for w in range(1, 1 << r) if rng.random() < density]
            sets.append(PointSet.from_points(r, pts + list(range(1, 16))))
        for e in sets:
            for n in (3, 4):
                assert is_pg_free(e, n).subspace.basis == (1, 2, 4, 8)[:n]
    assert calls == []


def test_apex_kernel_sees_only_pool_points_at_n4(monkeypatch):
    # At n = 4 the kernel runs at the walk's node of g_2 with cone
    # K = E ∩ (E + g_1).  Every apex it tests must be in that node's pool:
    # a point of K above g_1 with bit hb(g_1) clear.
    from pgfree.pointset import xor_translate

    calls = spy_on_kernel(monkeypatch)
    rng = random.Random(67)
    # bose_burton(8, 4) is PG(3,2)-free, so the kernel scans every pool
    free = bose_burton(8, 4).without_point(rng.randrange(32, 256))
    assert not is_pg_free(free, 4).found
    sets, scanned = [free], 0
    for density in (0.45, 0.55):
        for _ in range(4):
            e = PointSet.from_points(8, [w for w in range(1, 256) if rng.random() < density])
            assert_matches_dfs(e, 4)
            sets.append(e)
    for e in sets:
        calls.clear()
        is_pg_free(PointSet(8, e.bits), 4)
        for words, _, xs in calls:
            cone = int.from_bytes(words.tobytes(), "little")
            # the pools of the nodes of g_2 whose cone this is
            pools = [
                {w for w in range(g + 1, 256) if cone >> w & 1 and not w >> (g.bit_length() - 1) & 1}
                for g in e.points
                if e.bits & xor_translate(e.bits, g, 8) == cone
            ]
            assert any(pool.issuperset(xs.tolist()) for pool in pools), e.to_compact()
        scanned += len(calls)
    assert scanned


def test_apex_kernel_never_runs_at_n1_or_n2(monkeypatch):
    calls = spy_on_kernel(monkeypatch)
    rng = random.Random(71)
    for r in (7, 8, 9):
        sets = [PointSet.full(r), bose_burton(r, 2), affine_set(r, (1 << r) - 1)]
        sets.append(PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < 0.6]))
        for e in sets:
            for n in (1, 2):
                assert_matches_dfs(e, n)
    assert calls == []


def lift(a, rank, seed):
    """The preimage of a under a seeded surjection GF(2)^rank -> GF(2)^a.rank."""
    rng = random.Random(seed)
    words = np.arange(1 << rank)
    while True:
        image = np.zeros(1 << rank, dtype=np.int64)
        for i in range(a.rank):
            row = rng.randrange(1, 1 << rank)
            image |= (np.bitwise_count(words & row) & 1).astype(np.int64) << i
        if np.unique(image).size == 1 << a.rank:
            return PointSet.from_points(rank, words[a.membership[image]].tolist())


def test_is_pg_free_on_lifted_dense_free_set():
    # Lifting preserves PG(2,2)-freeness: the preimage of a fano-free set
    # under a surjection holds a fano iff the set does.
    a = bose_burton(5, 3).without_point(8)
    e = lift(a, 12, seed=4)
    assert e.size == a.size << 7
    assert is_pg_free(e, 3) == FreenessWitness(False, None)
    assert_matches_dfs(e, 2)


def greedy_fano_free(r, seed):
    """A maximal fano-free set of rank r: each point, in a seeded order, is
    kept unless it closes a fano, that is unless the cone at it of the set
    with it added holds a triangle.  The seeds the tests use give sets with
    a triangle in every hyperplane and, from r = 8 on, more than 65
    points."""
    from pgfree.pointset import xor_translate

    order = list(range(1, 1 << r))
    random.Random(seed).shuffle(order)
    bits = 0
    for p in order:
        grown = bits | 1 << p
        if triangle_count_naive(PointSet(r, grown & xor_translate(grown, p, r))) == 0:
            bits = grown
    return PointSet(r, bits)


@pytest.mark.parametrize("r", [7, 8, 9, 10])
def test_triangle_free_hyperplane_proves_fano_freeness_without_the_kernel(monkeypatch, r):
    # Dense fano-free sets, above (5/8) 2^r: bose_burton(r, 3) minus seeded
    # points and a lift of bose_burton(5, 3) minus one.  Theorem 4.1 gives
    # each a triangle-free hyperplane, so after the least point's subtree
    # the per-hyperplane counts end the search, and neither the apex
    # kernel nor its skip runs.  The DFS oracle takes seconds on these sets
    # from r = 9, where a subset of bose_burton(r, 3) or a lift of a
    # fano-free set is known to be fano-free.
    calls = spy_on(monkeypatch, "_least_apex", "_first_apex_with_pair")
    rng = random.Random(800 + r)
    bb, bb5 = bose_burton(r, 3), bose_burton(5, 3)
    sets = [bb.without_point(w) for w in rng.sample(bb.points, 2)]
    sets.append(lift(bb5.without_point(rng.choice(bb5.points)), r, seed=r))
    for e in sets:
        assert 8 * e.size > 5 << r
        assert is_pg_free(e, 3) == FreenessWitness(False, None)
        assert not e.memo["triangle_counts_per_hyperplane"][1:].all()
        if r <= 8:
            assert dfs_least_generators(e.points, 3) is None
    assert calls == []


@pytest.mark.parametrize("r", [7, 8, 9, 10])
def test_fano_free_set_with_a_triangle_in_every_hyperplane_runs_the_kernel(monkeypatch, r):
    # A lift of M(K5), of exactly (5/8) 2^r points, the sharpness example
    # of Theorem 4.1, and greedy maximal fano-free sets meet every
    # hyperplane in a triangle, so the counts prove nothing and the walk
    # goes on past the least point; with more than 65 points its pool
    # reaches the apex kernel.  The DFS oracle on the lift takes seconds
    # from r = 9, where the lift of fano-free M(K5) is known to be free.
    calls = spy_on(monkeypatch, "_least_apex", "_first_apex_with_pair")
    lifted = lift(m_k5(), r, seed=r)
    assert lifted.size > 65
    for e in (lifted, greedy_fano_free(r, 1), greedy_fano_free(r, 2)):
        calls.clear()
        if r <= 8 or e is not lifted:
            assert_matches_dfs(e, 3)
        assert is_pg_free(e, 3) == FreenessWitness(False, None)
        assert e.memo["triangle_counts_per_hyperplane"][1:].all()
        assert ("_first_apex_with_pair" in calls) == ("_least_apex" in calls) == (e.size > 65)


@pytest.mark.parametrize("r", [7, 8, 9, 10])
def test_per_hyperplane_counts_never_free_a_set_holding_a_fano(monkeypatch, r):
    # Sets with a fano whose least point is in none: fano_free_below sets,
    # and greedy maximal fano-free sets or a lift of M(K5) plus a point
    # above their least.  The search reads the counts, which must not
    # certify freeness, and then finds the DFS's least generating tuple.
    import pgfree.matroid as matroid

    verdicts = []
    certify = matroid._free_by_triangle_counts
    monkeypatch.setattr(matroid, "_free_by_triangle_counts", lambda *a: verdicts.append(certify(*a)) or verdicts[-1])
    rng = random.Random(900 + r)
    flipped = [w for w in range(1, 1 << (r - 2)) if w & 3 in (1, 2)]
    kept = [w for w in range(4, 1 << (r - 2)) if w & 3 in (0, 3)]
    sets = [fano_free_below(r, rng.sample(flipped, k), rng.sample(kept, 2), rng) for k in (1, 2, 5)]
    for base in (greedy_fano_free(r, 3), greedy_fano_free(r, 4), lift(m_k5(), r, seed=r)):
        above = [w for w in base.complement().points if w > base.points[0]]
        sets += [base.with_point(w) for w in rng.sample(above, 4)]
    checked = 0
    for e in sets:
        gens = dfs_least_generators(e.points, 3)
        if gens is None or gens[0] == e.points[0]:
            continue
        verdicts.clear()
        assert_matches_dfs(e, 3)
        assert verdicts == [False], e.to_compact()
        checked += 1
    assert checked >= 6


@settings(max_examples=20)
@given(st.integers(7, 8), st.integers(1, 255), st.floats(0.05, 1.0), st.randoms(use_true_random=False))
def test_a_triangle_free_hyperplane_section_means_no_fano(r, gamma, density, rng):
    # E meets W_gamma in a triangle-free set, built greedily from its
    # points in a random order, and holds a random part of the rest: so
    # T(E ∩ W_gamma) = 0, and is_pg_free(E, 3) and the DFS find no fano.
    gamma %= 1 << r
    assume(gamma)
    inside, outside = [], []
    for w in rng.sample(range(1, 1 << r), (1 << r) - 1):
        if (w & gamma).bit_count() & 1:
            if rng.random() < density:
                outside.append(w)
        elif rng.random() < density and all(w ^ v not in inside for v in inside):
            inside.append(w)
    e = PointSet.from_points(r, inside + outside)
    assert brute_triangle_count(inside) == 0
    assert triangle_counts_per_hyperplane(e)[gamma] == 0
    assert is_pg_free(e, 3) == FreenessWitness(False, None)
    assert dfs_least_generators(e.points, 3) is None


@pytest.mark.parametrize("r", [7, 8, 9])
def test_is_pg_free_matches_dfs_oracle_at_levels_5_and_6(r):
    # Above g_{n-2} the DFS walks the iterated cone over coset minima and
    # stops when the pool cannot finish a flat.  bose_burton(r, level) plus
    # a point or two holds its least witness past the first points.  The
    # oracle's no-witness searches at these levels take seconds to minutes,
    # so the free sets are bose_burton(r, level) minus a point, whose
    # answer is known, at r = 7 and 8, and one random set at r = 7.
    rng = random.Random(600 + r)
    for level in (5, 6):
        bb = bose_burton(r, level)
        outside = bb.complement().points
        for k in (1, 2):
            e = bb
            for w in rng.sample(outside, k):
                e = e.with_point(w)
            for n in range(5, level + 1):
                assert_matches_dfs(e, n)
        if r < 9:
            minus = bb.without_point(rng.choice(bb.points))
            assert is_pg_free(minus, level) == FreenessWitness(False, None)
    for density in (0.85, 0.9, 0.93):
        e = PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < density])
        assert_matches_dfs(e, 5)
    if r == 7:
        e = PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < 0.8])
        assert_matches_dfs(e, 5)


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
    assert 3 not in e2.memo
    w2 = is_pg_free(e2, 3)
    assert w2 == w1 and w2 is not w1
    assert is_pg_free(e1, 2) == is_pg_free(e2, 2) and is_pg_free(e1, 2).found


def test_lazy_witness_spans_the_dfs_generators():
    # r <= 6 reads the table of flats; at r = 7 the sets of at most 64
    # points run the DFS loop alone, the larger ones its vectorised searches
    rng = random.Random(41)
    for r in (4, 5, 6, 7):
        sets = [PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < density])
                for density in (0.3, 0.6, 0.9)]
        if r == 7:
            sets += [PointSet.from_points(r, rng.sample(range(1, 128), k)) for k in (20, 45, 64)]
        for e in sets:
            for n in (1, 2, 3, 4):
                gens = dfs_least_generators(e.points, n)
                w = is_pg_free(e, n)
                assert w.found == (gens is not None)
                assert w.subspace == (closure(r, gens) if gens else None)


def test_freeness_witness_constructs_compares_and_serialises():
    plane = closure(3, [1, 2, 4])
    assert FreenessWitness(False, None) == FreenessWitness(False, None)
    assert FreenessWitness(True, plane) == FreenessWitness(True, closure(3, [7, 1, 2]))
    assert FreenessWitness(True, plane) != FreenessWitness(False, None)
    assert FreenessWitness(False, None).to_json_obj() == {"found": False, "witness_basis": None}
    assert FreenessWitness(True, plane).to_json_obj() == {"found": True, "witness_basis": [1, 2, 4]}
    searched = is_pg_free(PointSet.full(3), 3)
    assert searched == FreenessWitness(True, plane)
    assert hash(searched) == hash(FreenessWitness(True, plane))
    assert searched.to_json_obj() == FreenessWitness(True, plane).to_json_obj()
    assert repr(searched) == f"FreenessWitness(found=True, subspace={plane!r})"


def test_sweep_spans_no_witness_flat(monkeypatch):
    import pgfree.matroid as matroid
    from pgfree.verify import SweepConfig, run_sweep

    spans = []
    real = matroid.closure
    monkeypatch.setattr(matroid, "closure", lambda r, pts: spans.append(pts) or real(r, pts))
    cfg = SweepConfig(rank=3, level=3, mode="exhaustive", checks=("lemma-2.4", "lemma-2.5"))
    out = run_sweep(cfg, workers=1)
    assert out.checks["lemma-2.5"]["evaluated"] == 127
    assert spans == []
    # the spy sees the flat of a witness that is read
    assert is_pg_free(PointSet.full(3), 2).subspace.rank == 2
    assert spans == [[1, 2]]


def _span_point_after_g2_sets(r, rng):
    """Sets with 1, 2 and 3 = 1 ^ 2: the DFS takes g_1 = 1 and g_2 = 2, and
    then meets the span point 3 first among the candidates for g_3.  Above
    r = 6 the densities shrink, so that the sets keep at most 64 points."""
    scale = min(1.0, 64 / (1 << r))
    for density in (0.2, 0.5, 0.8):
        words = {1, 2, 3} | {w for w in range(4, 1 << r) if rng.random() < density * scale}
        yield PointSet.from_points(r, words)


def test_dfs_without_span_set_matches_dfs_oracle():
    for bits in range(0, 1 << 8, 2):
        e = PointSet(3, bits)
        for n in (1, 2, 3):
            assert_matches_dfs(e, n)
    for n in (3, 4):
        # {1, 2, 3} is a line: 3 must not be taken as g_3
        assert not is_pg_free(PointSet.from_points(5, [1, 2, 3]), n).found
    # r <= 6 reads the table of flats; r = 7 keeps the DFS loop covered
    rng = random.Random(43)
    for r in (5, 6, 7):
        cases = list(_span_point_after_g2_sets(r, rng))
        cases += [PointSet.from_points(r, rng.sample(range(1, 1 << r), rng.randint(5, min(64, (1 << r) - 1))))
                  for _ in range(12)]
        for e in cases:
            assert e.size <= 64
            for n in (1, 2, 3, 4):
                assert_matches_dfs(e, n)


@pytest.mark.parametrize("r", range(1, 7))
def test_flat_table_lists_every_flat_once_by_least_generators(r):
    import pgfree.matroid as matroid

    for n in range(1, r + 1):
        masks, generators = matroid._flat_table(r, n)
        assert masks.dtype == np.uint64
        assert len(masks) == len(generators) == qbinom_recurrence(r, n)
        assert list(generators) == sorted(set(generators))
        for mask, gens in zip(masks.tolist(), generators):
            assert mask.bit_count() == (1 << n) - 1
            assert mask == flat_points(closure(r, gens)).bits
            # g_1 is the least point, each later g_i the least point outside
            # the span of the earlier ones
            for i, g in enumerate(gens):
                span = flat_points(closure(r, gens[:i])).bits if i else 0
                rest = mask & ~span
                assert g == (rest & -rest).bit_length() - 1


@pytest.mark.parametrize("r", range(1, 5))
def test_least_generating_tuples_list_every_flat_once(r):
    import pgfree.matroid as matroid

    everything = (1 << (1 << r)) - 1
    full = everything - 1
    for d in range(r + 1):
        leaves = list(matroid._walk(full, full, r, d))
        assert [gens for gens, _, _ in leaves] == sorted({gens for gens, _, _ in leaves})
        flats = [span_points(gens) for gens, _, _ in leaves]
        assert sorted(flats, key=sorted) == sorted((f for f in all_flats(r) if flat_rank(f) == d), key=sorted)
        for (gens, cone, pool), flat in zip(leaves, flats):
            # each generator is the least point of the flat outside the span of the earlier ones
            assert all(g == min(flat - span_points(gens[:i])) for i, g in enumerate(gens))
            assert cone == everything & ~sum(1 << w for w in flat | {0})
            # the pool holds the points that extend the tuple to a least generating tuple
            above = [q for q in range(1, 1 << r) if q not in flat and q > max(gens, default=0)]
            assert pool == sum(1 << q for q in above if q == min(span_points(gens + (q,)) - flat))


def test_walk_of_a_set_is_the_ambient_walk_filtered_to_its_flats(monkeypatch):
    # The walk of E lists exactly the flats of the ambient's walk that lie
    # inside E, in the same order, and each leaf's cone is E_S, the points
    # x of E whose coset x + S lies in E.  On these sets the apex skip at
    # the node of g_{d-2} fires, both with a hit and with none.
    import pgfree.matroid as matroid

    apexes = []
    least_apex = matroid._least_apex
    monkeypatch.setattr(matroid, "_least_apex", lambda *a: apexes.append(least_apex(*a)) or apexes[-1])
    rng = random.Random(71)
    for r in (7, 8):
        full = (1 << (1 << r)) - 2
        bb = bose_burton(r, 3)
        flipped = [w for w in range(1, 1 << (r - 2)) if w & 3 in (1, 2)]
        kept = [w for w in range(4, 1 << (r - 2)) if w & 3 in (0, 3)]
        sets = [bb.without_point(rng.choice(bb.points)), fano_free_below(r, flipped[:3], rng.sample(kept, 2), rng)]
        sets += [PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < p]) for p in (0.45, 0.6)]
        for d in (3, 4):
            ambient = [(gens, full ^ cone, pool) for gens, cone, pool in matroid._walk(full, full, r, d)]
            for e in sets:
                want = [(gens, pool) for gens, flat, pool in ambient if flat & ~e.bits == 0]
                leaves = list(matroid._walk(e.bits, e.bits, r, d))
                assert [gens for gens, _, _ in leaves] == [gens for gens, _ in want], (e.to_compact(), d)
                for (gens, cone, pool), (_, ambient_pool) in zip(leaves, want):
                    span = span_points(gens)
                    e_s = [x for x in e.points if all(x ^ s in e for s in span)]
                    assert cone == sum(1 << x for x in e_s)
                    assert pool == ambient_pool & cone
    assert None in apexes
    assert any(x is not None for x in apexes)


def _assert_table_witness_is_dfs_tuple(e):
    for n in range(1, e.rank + 1):
        gens = dfs_least_generators(e.points, n)
        w = is_pg_free(e, n)
        assert w.found == (gens is not None), (e.to_compact(), n)
        if gens is not None:
            assert w._span == (e.rank, list(gens)), (e.to_compact(), n)
            assert w.subspace == closure(e.rank, gens)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_table_witness_is_dfs_tuple_on_every_set(r):
    for bits in range(0, 1 << (1 << r), 2):
        _assert_table_witness_is_dfs_tuple(PointSet(r, bits))


@pytest.mark.parametrize("r", [4, 5, 6])
def test_table_witness_is_dfs_tuple_on_seeded_sets(r):
    # the oracle's no-witness searches on bose_burton(6, 5 or 6) take
    # seconds to a minute, so the levels stop at 4
    rng = random.Random(500 + r)
    sets = [bose_burton(r, level) for level in range(2, min(r, 4) + 1)]
    sets += [PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < rng.random()])
             for _ in range(20)]
    for e in sets:
        _assert_table_witness_is_dfs_tuple(e)


def test_flat_table_replaces_the_dfs_up_to_rank_6(monkeypatch):
    import pgfree.matroid as matroid

    for r in range(1, 7):  # the tables are built by the walk, once
        for n in range(1, r + 1):
            matroid._flat_table(r, n)
    calls = spy_on(monkeypatch, "_least_apex", "_first_apex_with_pair", "_walk")
    rng = random.Random(47)
    for r in range(1, 7):
        sets = [PointSet.full(r), PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < 0.7])]
        sets += [bose_burton(r, level) for level in range(2, min(r, 4) + 1)]
        for e in sets:
            for n in range(1, r + 1):
                is_pg_free(e, n)
    assert calls == []
    # at r = 7 the walk runs, and a pool of more than 64 points whose least
    # point fails reaches the apex kernel: the 80 points of a lift of M(K5)
    # are fano-free with a triangle in every hyperplane, so no
    # per-hyperplane count settles them
    assert is_pg_free(PointSet.full(7), 3).found
    assert not is_pg_free(lift(m_k5(), 7, seed=7), 3).found
    assert set(calls) == {"_least_apex", "_first_apex_with_pair", "_walk"}


def test_is_pg_free_rejects_bad_n():
    with pytest.raises(GeometryError):
        is_pg_free(PointSet.full(3), 0)


def test_freeness_matches_triangle_count():
    rng = random.Random(3)
    for _ in range(40):
        e = PointSet.from_points(4, rng.sample(range(1, 16), rng.randint(0, 10)))
        assert (not is_pg_free(e, 2).found) == (triangle_count_naive(e) == 0)


def test_triangle_free_set_is_free_at_n2_with_no_walk(monkeypatch):
    # From r = 7 a set with no triangle is free at n = 2 by its count alone;
    # a set with one keeps the walk's least pair as its witness.  The least
    # point's pairs come first: when it has one, neither the count nor the
    # walk runs; when it has none, both do.
    import pgfree.matroid as matroid

    calls = []
    walk = matroid._walk
    monkeypatch.setattr(matroid, "_walk", lambda *a: calls.append(a) or walk(*a))
    for r in (7, 10):
        for g in (1, 5, (1 << r) - 1):
            e = affine_set(r, g)
            assert triangle_count_naive(e) == 0
            assert not is_pg_free(e, 2).found
        assert calls == []
        # the least point 1 is in the triangle {1, 2, 3}
        e = affine_set(r, 1).with_point(2)
        assert_matches_dfs(e, 2)
        assert calls == [] and "triangle_count_naive" not in e.memo
        # 1 plus the even words: 1 is in no triangle, the even words hold many
        e = affine_set(r, 1).complement().with_point(1)
        assert_matches_dfs(e, 2)
        assert len(calls) == 1 and e.memo["triangle_count_naive"] > 0
        calls.clear()


@pytest.mark.parametrize("r", [7, 8, 9])
def test_n2_witness_matches_dfs_past_the_least_point(r):
    # sparse sets, where the least point is often in no triangle, so the
    # search walks on past it or ends on the count
    rng = random.Random(200 + r)
    branches = set()
    for density in (0.03, 0.06, 0.1, 0.2):
        for _ in range(6):
            e = PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < density])
            assert_matches_dfs(e, 2)
            branches.add(("triangle_count_naive" in e.memo, is_pg_free(e, 2).found))
    assert branches == {(False, True), (True, True), (True, False)}


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
    # A block cap below a level's word count splits one translate E + x into
    # several gathers; a cap of one or two words also gives one-point blocks.
    # At r = 12 caps of 3 and 5 split the base and the levels of 8, 16 and
    # 32 words into column chunks of one row, the last chunk a short one.
    import pgfree.matroid as matroid

    rng = random.Random(47)
    for cap in (1, 2, 3, 5):
        monkeypatch.setattr(matroid, "_PAIR_BLOCK_ELEMENTS", cap)
        for r in (6, 7, 8, 10) + ((12,) if cap >= 3 else ()):
            for e in _triangle_count_cases(r, rng):
                assert triangle_count_naive(e) == loop_triangle_count(e.points, r)


def _level_split_cases(r, rng):
    """Sets that stress the split of the triangle count into a base term and
    levels of points by their top bit."""
    half = 1 << (r - 1)
    low = [w for w in range(1, half) if rng.random() < 0.6]
    high = [w for w in range(half, 1 << r) if rng.random() < 0.6]
    word0 = list(range(1, 64))
    return {
        # the top level holds no pairs
        "low": PointSet.from_points(r, low),
        # x ^ y < 2^(r-1) for two points at or above it, so T = 0
        "high": PointSet.from_points(r, high),
        "high-full": PointSet.from_points(r, range(half, 1 << r)),
        # a full first word plus a few high points, some of them in triangles
        "word0-plus-high": PointSet.from_points(r, word0 + [half + 5, half + 9, half + 12, (1 << r) - 1]),
        "word0-plus-one-per-level": PointSet.from_points(r, word0 + [1 << k for k in range(6, r)]),
        "mixed": PointSet.from_points(r, low[::3] + high[::2]),
    }


@pytest.mark.parametrize("r", [9, 10, 11, 12])
def test_triangle_count_level_split_matches_loop_oracle(r):
    # r = 9 is the 8-word base alone; from r = 10 the levels start
    rng = random.Random(900 + r)
    for name, e in _level_split_cases(r, rng).items():
        t = triangle_count_naive(e)
        assert t == loop_triangle_count(e.points, r), name
        assert (t == 0) == name.startswith("high"), name


def test_triangle_count_level_split_matches_spectral_at_rank_16():
    e = sample_pointset(16, 7, 3)
    assert triangle_count_naive(e) == triangle_count_spectral(e)


def test_triangle_count_gathers_a_third_of_the_words(monkeypatch):
    # Every word the count gathers is popcounted once: the spy sums them.
    # Up to r = 9 the base term is the whole count, m * nw words in one block.
    import pgfree.matroid as matroid

    real = np.bitwise_count
    for r in (8, 9, 12):
        e = sample_pointset(r, 1, 0)
        m, nw = e.size, e.words().size
        blocks = []

        def spy(block, *args, **kwargs):
            blocks.append(block.size)
            return real(block, *args, **kwargs)

        monkeypatch.setattr(matroid.np, "bitwise_count", spy)
        t = triangle_count_naive(e)
        monkeypatch.undo()
        assert t == loop_triangle_count(e.points, r)
        assert max(blocks) <= matroid._PAIR_BLOCK_ELEMENTS
        if r <= 9:
            assert blocks == [m * nw]
        else:
            assert sum(blocks) <= 0.4 * m * nw


@given(
    st.integers(7, 11).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(st.one_of(st.integers(1, 63), st.integers(1, (1 << r) - 1)), max_size=400),
        )
    )
)
def test_triangle_count_matches_loop_oracle_on_random_word_lists(case):
    r, words = case
    assert triangle_count_naive(PointSet.from_points(r, words)) == loop_triangle_count(set(words), r)


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


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_chi_matches_oracle_on_every_set(r):
    for bits in range(0, 1 << (1 << r), 2):
        e = PointSet(r, bits)
        assert critical_number(e) == brute_chi(e.points, r)


@pytest.mark.parametrize("r", [5, 6])
def test_chi_matches_oracle_off_the_table_of_flats(monkeypatch, r):
    # Random sets whose Fourier support spans, so that no quotient runs and
    # chi is read off the tables of flats of the full ambient, with no walk.
    import pgfree.matroid as matroid

    for n in range(1, r + 1):
        matroid._flat_table(r, n)
    calls = []
    walk = matroid._walk
    monkeypatch.setattr(matroid, "_walk", lambda *a: calls.append(a) or walk(*a))
    rng = random.Random(90 + r)
    chis = set()
    for _ in range(12):
        e = PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < rng.random()])
        support = np.nonzero(walsh_hadamard(e).coeffs[1:])[0] + 1
        assert rank_of(support.tolist()) == r
        chi = critical_number(e)
        assert chi == brute_chi(e.points, r)
        chis.add(chi)
    assert len(chis) > 1
    assert calls == []


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


@pytest.mark.parametrize(
    "kind, r, arg",
    [("affine", r, g) for r, g in ((3, 1), (3, 6), (4, 5), (4, 15), (5, 3), (5, 16), (6, 33))]
    + [("bose-burton", r, n) for r in (3, 4, 5) for n in range(2, r + 1)]
    + [("bose-burton", 6, 3)],
)
def test_critical_number_of_cosets_matches_oracle(kind, r, arg):
    e = affine_set(r, arg) if kind == "affine" else bose_burton(r, arg)
    # unions of cosets: the Fourier support does not span, so the quotient runs
    support = np.nonzero(walsh_hadamard(e).coeffs[1:])[0] + 1
    assert rank_of(support.tolist()) < e.rank
    assert critical_number(e) == brute_chi(e.points, e.rank)


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
    sub = restrict_to_flat(e, h)
    assert sub.size == len([x for x in e if x < 8])
    tri = is_pg_free(sub, 2)
    assert tri.found
    assert flat_points(lift_flat(h, tri.subspace)).issubset(e)
    # every point of a restriction lifts, as a rank-1 flat, onto E ∩ f
    for gamma in range(1, 16):
        h = hyperplane_of(4, gamma)
        sub = restrict_to_flat(e, h)
        lifted = {lift_flat(h, closure(3, [w])).basis[0] for w in sub}
        assert lifted == set(e.intersection(flat_points(h)))
    f = closure(4, [3, 5, 9])  # a basis that is not a set of unit vectors
    sub = restrict_to_flat(e, f)
    assert {lift_flat(f, closure(3, [w])).basis[0] for w in sub} == set(e.intersection(flat_points(f)))


def test_lift_flat_rejects_a_flat_of_another_ambient():
    h = hyperplane_of(4, 8)
    for wrong in (closure(4, [1]), closure(2, [1])):
        with pytest.raises(GeometryError):
            lift_flat(h, wrong)


def test_restrict_to_closure_has_full_rank():
    e = PointSet.from_points(5, [3, 5, 6, 24])
    f = closure(5, e.points)
    sub = restrict_to_flat(e, f)
    assert matroid_rank(sub) == sub.rank == f.rank


def test_restrict_preserves_triangles_in_flat():
    rng = random.Random(8)
    for _ in range(20):
        e = PointSet.from_points(4, rng.sample(range(1, 16), 9))
        h = hyperplane_of(4, rng.randint(1, 15))
        sub = restrict_to_flat(e, h)
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
