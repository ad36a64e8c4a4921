"""The block kernels: the stacked spectra of a block of sets at every
rank, and its per-hyperplane triangle counts, translation triangle counts
and cone lemma at r <= 6, formed together and kept in each set's memo,
with the uniformity reports read off them; and the row-gather triangle
count from r = 7."""

import random
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import pgfree.matroid as matroid
import pgfree.search as search
import pgfree.spectral as spectral
import pgfree.verify as verify
from pgfree.constructions import bose_burton
from pgfree.errors import InternalInconsistencyError
from pgfree.matroid import _block_triangle_counts, triangle_count_naive
from pgfree.pointset import PointSet, hyperplane_mask
from pgfree.search import _block_cone_lemma, cone_sizes, find_triangle_free_flat
from pgfree.spectral import (
    Spectrum,
    _block_hyperplane_counts,
    _block_spectra,
    triangle_counts_per_hyperplane,
    uniformity,
    walsh_hadamard,
)
from pgfree.verify import SweepConfig, run_sweep

from oracles import (
    brute_cone,
    brute_epsilon_min_num,
    brute_triangle_count,
    cone_lemma_tables,
    copying_fwht,
    definition_tables,
    dfs_least_generators,
    direct_walsh,
    loop_triangle_count,
    python_cube_sum,
)

KEYS = ("walsh_hadamard", "triangle_counts_per_hyperplane", "uniformity", "triangle_count_naive")


def _every_subset(r):
    return [PointSet(r, i << 1) for i in range(1 << ((1 << r) - 1))]


def _seeded_sets(r, count, seed):
    """Seeded sets of every density, plus the empty and the full set and
    sets of one and two points."""
    rng = random.Random(seed)
    n = 1 << r
    sets = [PointSet.empty(r), PointSet.full(r), PointSet(r, 1 << (n - 1)),
            PointSet.from_points(r, [1, n - 1])]
    for i in range(count):
        density = (i % 7 + 1) / 8
        sets.append(PointSet.from_points(r, [w for w in range(1, n) if rng.random() < density]))
    return sets


def _same_spectrum(a, b):
    return np.array_equal(a.coeffs, b.coeffs) and all(
        getattr(a, f) == getattr(b, f)
        for f in ("ambient_rank", "set_size", "nontrivial_min", "nontrivial_max", "cube_sum")
    )


def _uniformity_reports(sets):
    """Each set's uniformity report, read off its memoized spectrum where it has one."""
    for e in sets:
        if "walsh_hadamard" in e.memo:
            uniformity(e)


def _run_kernels(block):
    for kernel in (_block_spectra, _block_hyperplane_counts, _uniformity_reports, _block_triangle_counts):
        kernel(block)


def _run_blocks(sets, size):
    for i in range(0, len(sets), size):
        _run_kernels(sets[i : i + size])


def _assert_block_values_are_the_definitions(sets):
    r = sets[0].rank
    coeffs, counts, per_hyperplane = definition_tables([e.bits for e in sets], r)
    for e, c, t, p in zip(sets, coeffs, counts, per_hyperplane):
        assert set(KEYS) <= e.memo.keys(), e.to_compact()
        spec = e.memo["walsh_hadamard"]
        assert spec.coeffs.dtype == np.int32 and not spec.coeffs.flags.writeable
        assert np.array_equal(spec.coeffs, c), e.to_compact()
        assert (spec.ambient_rank, spec.set_size) == (r, e.size)
        assert (spec.nontrivial_min, spec.nontrivial_max) == (int(c[1:].min()), int(c[1:].max()))
        assert spec.cube_sum == python_cube_sum(c)
        hyper = e.memo["triangle_counts_per_hyperplane"]
        assert not hyper.flags.writeable and np.array_equal(hyper, p), e.to_compact()
        assert e.memo["triangle_count_naive"] == int(t)
        peak = int(abs(c[1:]).max())
        rep = e.memo["uniformity"]
        assert rep.epsilon_min == Fraction(peak, 1 << r) and rep.alpha == e.density
        assert rep.worst_gamma == min(g for g in range(1, 1 << r) if abs(int(c[g])) == peak)


# blocks of 1 (up to r = 3: 32,768 blocks of one take seconds), and blocks
# of 7 and 300 whose last block is shorter wherever the count of subsets
# is not a multiple of them
@pytest.mark.parametrize(
    "r, size", [(r, size) for r in range(1, 5) for size in (1, 7, 300) if (r, size) != (4, 1)]
)
def test_block_kernels_on_every_subset_match_the_definitions(r, size):
    sets = _every_subset(r)
    _run_blocks(sets, size)
    _assert_block_values_are_the_definitions(sets)


@pytest.mark.parametrize("r", [5, 6])
@pytest.mark.parametrize("size", [1, 16, 256])
def test_block_kernels_on_seeded_sets_match_the_definitions(r, size):
    sets = _seeded_sets(r, 36, 100 + r)
    _run_blocks(sets, size)
    _assert_block_values_are_the_definitions(sets)
    # the definitions themselves, against the plain loops of the oracles
    for e in sets[:8]:
        assert e.memo["walsh_hadamard"].coeffs.tolist() == direct_walsh(e.points, r)
        assert e.memo["triangle_count_naive"] == brute_triangle_count(e.points)
        assert e.memo["uniformity"].epsilon_min == Fraction(brute_epsilon_min_num(e.points, r), 1 << r)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_per_set_calls_are_the_block_rows(r):
    # a set's own calls, on a fresh instance, give the values its block row
    # gave; a Spectrum built from the row's table reproduces its moments
    sets = _every_subset(r) if r <= 3 else _seeded_sets(r, 60, r)
    _run_blocks(sets, 256)
    for e in sets:
        f = PointSet(r, e.bits)
        spec, row = walsh_hadamard(f), e.memo["walsh_hadamard"]
        assert _same_spectrum(spec, row) and not spec.coeffs.flags.writeable
        assert _same_spectrum(spec, Spectrum(r, row.coeffs.copy(), e.size))
        assert np.array_equal(triangle_counts_per_hyperplane(f), e.memo["triangle_counts_per_hyperplane"])
        assert uniformity(f) == e.memo["uniformity"]
        assert triangle_count_naive(f) == e.memo["triangle_count_naive"]


def test_kernels_form_only_what_the_memo_lacks(monkeypatch):
    sets = _every_subset(3)
    _run_kernels(sets[:50])
    kept = [dict(e.memo) for e in sets[:50]]
    calls = _spy_on_kernels(monkeypatch)
    _run_kernels(sets[:50])
    assert calls == []
    assert all(e.memo[k] is memo[k] for e, memo in zip(sets, kept) for k in KEYS)
    # a block whose first sets are formed forms only the rest, once each
    _run_kernels(sets)
    assert calls.count("_spectrum_rows") == calls.count("_translation_counts") == 1
    assert all(e.memo[k] is memo[k] for e, memo in zip(sets, kept) for k in KEYS)
    _assert_block_values_are_the_definitions(sets)


def _corrupt_row_of(monkeypatch, target):
    """Make every stacked transform add 2 to the coefficient at gamma = 3 of
    the target set's row."""
    real = spectral._int32_transform

    def transform(sets):
        out = real(sets)
        for i, e in enumerate(sets):
            if e.bits == target.bits:
                out[i, 3] += 2
        return out

    monkeypatch.setattr(spectral, "_int32_transform", transform)


def _row_kernels(block):
    """The spectra of a block, the uniformity reports read off them and, in
    the one-word ambient, the per-hyperplane counts."""
    _block_spectra(block)
    if block[0].rank <= 6:
        _block_hyperplane_counts(block)
    _uniformity_reports(block)


# a block of one-word sets, whose rows are cut from their padded words',
# and one of wider tables
@pytest.mark.parametrize("r", [4, 8])
def test_a_corrupted_row_is_not_kept_and_leaves_its_block_alone(monkeypatch, r):
    sets = _every_subset(4)[:256] if r == 4 else _stacked_cases(8, 40)
    clean = [PointSet(r, e.bits) for e in sets]
    _row_kernels(clean)
    target = sets[77 if r == 4 else 11]
    _corrupt_row_of(monkeypatch, target)
    _row_kernels(sets)
    for e, c in zip(sets, clean):
        if e is target:
            assert not {"walsh_hadamard", "triangle_counts_per_hyperplane", "uniformity"} & e.memo.keys()
            continue
        assert _same_spectrum(e.memo["walsh_hadamard"], c.memo["walsh_hadamard"])
        assert e.memo["uniformity"] == c.memo["uniformity"]
        if r == 4:
            assert np.array_equal(e.memo["triangle_counts_per_hyperplane"],
                                  c.memo["triangle_counts_per_hyperplane"])
    # the set's own call recomputes its row, and raises inside its check
    with pytest.raises(InternalInconsistencyError, match="Parseval"):
        walsh_hadamard(target)


def test_a_count_row_that_fails_its_division_is_not_kept(monkeypatch):
    sets = _every_subset(4)[:256]
    target = sets[200]
    real = spectral._hyperplane_counts

    def counts(c, member, rank):
        # set the low bit of T + 3A's OR on the target's row
        a, convolved, counted = real(c, member, rank)
        return a, convolved, counted | (member == target.membership).all(axis=-1)

    monkeypatch.setattr(spectral, "_hyperplane_counts", counts)
    _block_spectra(sets)
    _block_hyperplane_counts(sets)
    assert [e for e in sets if "triangle_counts_per_hyperplane" not in e.memo] == [target]
    with pytest.raises(InternalInconsistencyError, match="not divisible by 4"):
        triangle_counts_per_hyperplane(target)


@pytest.mark.parametrize("cfg, target", [
    pytest.param(SweepConfig(rank=4, level=3, mode="exhaustive", checks=("thm-3.1",)), PointSet(4, 0x0E8A), id="4"),
    pytest.param(SweepConfig(rank=8, level=3, mode="random", sample_count=40, rng_seed=8, checks=("thm-3.1",)),
                 verify.sample_pointset(8, 8, 17), id="8"),
])
def test_a_corrupted_row_is_one_violation_of_the_sweep(monkeypatch, cfg, target):
    clean = run_sweep(cfg, workers=1).to_json_obj()
    _corrupt_row_of(monkeypatch, target)
    out = run_sweep(cfg, workers=1).to_json_obj()
    st = out["checks"]["thm-3.1"]
    assert st["violations"] == 1
    assert st["witnesses"] == [f"{target.to_compact()} Parseval identity failed"]
    st["violations"], st["witnesses"] = 0, []
    assert out == clean


def _spy_on_kernels(monkeypatch):
    calls = []
    for module, name in ((verify, "_block_pg_free"), (verify, "_block_spectra"), (verify, "_block_hyperplane_counts"),
                         (verify, "_block_triangle_counts"),
                         (search, "_block_spectra"), (search, "_block_hyperplane_counts"),
                         (verify, "_block_cone_lemma"), (search, "_cone_tables"),
                         (spectral, "_spectrum_rows"), (spectral, "_sylvester_rows"),
                         (matroid, "_translation_counts")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k)
        )
    return calls


def _spy_on_blocks(monkeypatch):
    """The list that each block kernel a sweep runs appends (its name, the
    number of sets it is given) to."""
    calls = []
    for name in ("_block_spectra", "_block_triangle_counts",
                 "_block_hyperplane_counts", "_block_cone_lemma"):
        real = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda sets, *a, name=name, real=real: calls.append((name, len(sets))) or real(sets, *a)
        )
    return calls


@pytest.mark.parametrize("r, samples", [(7, 300), (12, 40)])
def test_random_sweeps_from_rank_7_form_spectra_and_uniformity_by_block(monkeypatch, r, samples):
    # blocks of min(256, 2^16 >> r) sets: 256 at r = 7, 16 at r = 12, the
    # last one shorter; thm-3.1 comes first and gates nothing, so its
    # spectra kernel, whose moments pass forms each uniformity peak, gets
    # whole blocks, and no other kernel runs
    calls = _spy_on_blocks(monkeypatch)
    cfg = SweepConfig(rank=r, level=3, mode="random", sample_count=samples, rng_seed=r,
                      checks=("thm-3.1", "bose-burton", "cor-1.3", "thm-4.1", "lemma-2.4", "lemma-2.5"))
    assert run_sweep(cfg, workers=1).total_violations == 0
    size = min(256, (1 << 16) >> r)
    assert verify._sweep_block(r) == size
    blocks = [min(size, samples - i) for i in range(0, samples, size)]
    assert len(blocks) > 1 and blocks[-1] < size
    assert calls == [("_block_spectra", b) for b in blocks]


def test_random_sweeps_from_rank_16_take_one_set_per_block(monkeypatch):
    calls = _spy_on_blocks(monkeypatch)
    cfg = SweepConfig(rank=16, level=3, mode="random", sample_count=2, rng_seed=16, checks=("thm-3.1",))
    assert run_sweep(cfg, workers=1).total_violations == 0
    assert verify._sweep_block(16) == 1
    assert calls == [("_block_spectra", 1)] * 2


def test_one_word_sweeps_form_every_thm_31_value_by_block(monkeypatch):
    calls = _spy_on_blocks(monkeypatch)
    cfg = SweepConfig(rank=6, level=3, mode="random", sample_count=300, rng_seed=6,
                      checks=("thm-3.1",))
    run_sweep(cfg, workers=1)
    assert calls == [(name, b) for b in (256, 44)
                     for name in ("_block_spectra", "_block_triangle_counts")]


def test_a_sweep_runs_no_kernel_its_checks_do_not_read(monkeypatch):
    # the reconcile row reads none of the block values at r = 4, so no
    # product or translation count runs anywhere in its sweep
    calls = _spy_on_kernels(monkeypatch)
    cfg = SweepConfig(rank=4, level=3, mode="exhaustive", checks=("reconcile",))
    assert run_sweep(cfg, workers=1).total_violations == 0
    assert calls == []


def test_a_check_runs_its_kernels_on_its_gated_sets_only(monkeypatch):
    given = []
    real = verify._block_hyperplane_counts
    monkeypatch.setattr(verify, "_block_hyperplane_counts", lambda sets: given.extend(sets) or real(sets))
    cfg = SweepConfig(rank=5, level=3, mode="random", sample_count=300, rng_seed=5,
                      checks=("lemma-2.4",))
    out = run_sweep(cfg, workers=1).checks["lemma-2.4"]
    free = [e for e in given if not matroid.is_pg_free(e, 3).found]
    assert 0 < len(free) == len(given) == 300 - out["hypothesis_skipped"]
    assert all("triangle_counts_per_hyperplane" in e.memo for e in given)


def test_exhaustive_flat_search_forms_its_leaves_in_one_kernel_call(monkeypatch):
    calls = _spy_on_kernels(monkeypatch)
    e = PointSet(4, 0xFEEC)
    result, _ = find_triangle_free_flat(e, 4, "exhaustive")
    assert result.found
    assert calls.count("_block_spectra") == calls.count("_block_hyperplane_counts") == 1
    assert calls.count("_spectrum_rows") == 1
    # at level 3 the one leaf is the set itself, whose own calls form its
    # spectrum as a block of one, and nothing if its memo holds its
    # counts, as a sweep's block leaves them
    calls.clear()
    find_triangle_free_flat(e, 3, "exhaustive")
    assert calls.count("_spectrum_rows") == 1 and "_block_spectra" not in calls
    f = PointSet(4, e.bits)
    triangle_counts_per_hyperplane(f)
    calls.clear()
    find_triangle_free_flat(f, 3, "exhaustive")
    assert "_spectrum_rows" not in calls and "_sylvester_rows" not in calls


def test_one_block_at_rank_6_stays_within_a_few_stacks():
    # a block's stacks hold B x 2^r int64 entries; the kernels keep a few of
    # them live at once, plus the kept rows' reports (about 7 stacks in all)
    import tracemalloc

    rng = random.Random(66)
    sets = [PointSet(6, rng.getrandbits(64) & ~1) for _ in range(verify._SWEEP_BLOCK)]
    stack = verify._SWEEP_BLOCK * 64 * 8
    tracemalloc.start()
    try:
        _run_kernels(sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(set(KEYS) <= e.memo.keys() for e in sets)
    assert peak < 10 * stack


# ---------------------------------------------------------------------------
# the cone lemma (Lemma 2.5)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _every_subset_cone_tables(r, n):
    return cone_lemma_tables([i << 1 for i in range(1 << ((1 << r) - 1))], r, n)


def _assert_cone_lemma_rows_are_the_definitions(sets, n, tables):
    """Each nonempty set's kept cone sizes and least slack are the
    definitions', and the lemma holds there: a free set's cones are free."""
    r = sets[0].rank
    sizes, holds, cone_holds = tables
    for e, size, held, cone_held in zip(sets, sizes, holds, cone_holds):
        if not e.size:
            continue
        apexes = list(e.points)
        assert not (not held and cone_held[apexes].any()), e.to_compact()
        assert e.memo["cone_sizes"].tolist() == size[apexes].tolist(), e.to_compact()
        assert not e.memo["cone_sizes"].flags.writeable
        assert e.memo[("cone_lemma", n)] == int(size[apexes].min()) - (2 * e.size - (1 << r))


# blocks of 1 up to r = 3, and at r = 4 as each set's own call, which is
# the kernel on a block of one (below)
@pytest.mark.parametrize(
    "r, n, size",
    [(r, n, size) for r, n in ((3, 3), (4, 3), (4, 4)) for size in (1, 7, 256, 300) if (r, size) != (4, 1)],
)
def test_cone_lemma_kernel_on_every_subset_matches_the_definitions(r, n, size):
    sets = _every_subset(r)[1:]  # the lemma's gate: a nonempty set
    for i in range(0, len(sets), size):
        _block_cone_lemma(sets[i : i + size], n)
    tables = _every_subset_cone_tables(r, n)
    _assert_cone_lemma_rows_are_the_definitions(sets, n, tuple(t[1:] for t in tables))


@pytest.mark.parametrize("r, n", [(3, 3), (4, 3), (4, 4)])
def test_per_set_cone_lemma_is_the_kernel_row_on_every_subset(r, n):
    sets = _every_subset(r)[1:]
    for i in range(0, len(sets), 256):
        _block_cone_lemma(sets[i : i + 256], n)
    for e in sets:
        f = PointSet(r, e.bits)
        assert verify._lemma_25(f, n) == (1, e.memo[("cone_lemma", n)])
        assert np.array_equal(f.memo["cone_sizes"], e.memo["cone_sizes"])


@pytest.mark.parametrize("size", [1, 7, 256, 300])
@pytest.mark.parametrize("r, n", [(5, 3), (5, 4), (6, 3), (6, 4)])
def test_cone_lemma_kernel_on_seeded_sets_matches_the_definitions(r, n, size):
    sets = _seeded_sets(r, 36, 200 + r)
    # seeded dense fano-free sets keep the freeness clause active at n = 3
    rng = random.Random(r)
    dense_free = PointSet.full(r).bits >> (1 << (r - 2)) << (1 << (r - 2))
    sets += [PointSet(r, dense_free & ~(1 << w)) for w in rng.sample(range(1 << (r - 2), 1 << r), 3)]
    for i in range(0, len(sets), size):
        _block_cone_lemma([e for e in sets[i : i + size] if e.size], n)
    _assert_cone_lemma_rows_are_the_definitions(sets, n, cone_lemma_tables([e.bits for e in sets], r, n))
    for e in sets:
        f = PointSet(r, e.bits)
        assert np.array_equal(cone_sizes(f), [len(brute_cone(e.points, p, r)) for p in e])
        if e.size:
            assert verify._lemma_25(f, n) == (1, e.memo[("cone_lemma", n)])


@pytest.mark.parametrize("r", [7, 8])
def test_cone_lemma_above_one_word_matches_the_cone_loop(r):
    rng = random.Random(r)
    sets = [verify.sample_pointset(r, 70 + r, i) for i in range(3)]
    e = PointSet.full(r).bits >> (1 << (r - 2)) << (1 << (r - 2))
    sets.append(PointSet(r, e & ~(1 << rng.randrange(1 << (r - 2), 1 << r))))
    for e in sets:
        sizes = [search.cone(e, p).size for p in e]
        assert cone_sizes(e).tolist() == sizes
        bound = 2 * e.size - (1 << r)
        assert verify._lemma_25(e, 3) == (1, min(sizes) - bound)
        assert search._cone_identity_holds(e, sum(sizes))


def _corrupt_cones_of(monkeypatch, target, apex, cone):
    """Make ``search._cone_tables`` give the target set the cone bitset
    ``cone`` at ``apex``, with its size."""
    real = search._cone_tables

    def tables(sets):
        cones, sizes, apexes = real(sets)
        for i, e in enumerate(sets):
            if e == target:
                cones[apex, i], sizes[apex, i] = cone, cone.bit_count()
        return cones, sizes, apexes

    monkeypatch.setattr(search, "_cone_tables", tables)


@pytest.mark.parametrize(
    "target, apex, cone, message",
    [
        # words 8..15 but 9, triangle-free, so fano-free: its empty cone at 8
        # becomes the line {1, 2, 3}
        (PointSet(4, 0xFD00), 8, 0b1110, "cone at 8 contains a PG(1,2) despite the freeness hypothesis"),
        # words 4..15: its cone at 4, words 8..15, loses word 8 and falls one
        # point below the bound 2|E| - 2^r = 8
        (PointSet(4, 0xFFF0), 4, 0xFE00, "cone at 4 has 7 points, below the bound 8"),
    ],
    ids=["freeness", "bound"],
)
def test_a_corrupted_cone_row_is_one_violation_of_the_sweep(monkeypatch, target, apex, cone, message):
    cfg = SweepConfig(rank=4, level=3, mode="exhaustive", checks=("bose-burton", "lemma-2.5", "thm-3.1"))
    clean = run_sweep(cfg, workers=1).to_json_obj()
    _corrupt_cones_of(monkeypatch, target, apex, cone)
    # the set's own call raises the message the sweep records
    with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
        verify._lemma_25(PointSet(4, target.bits), 3)
    out = run_sweep(cfg, workers=1).to_json_obj()
    st = out["checks"]["lemma-2.5"]
    assert st["violations"] == 1
    assert st["witnesses"] == [f"{target.to_compact()} {message}"]
    st["violations"], st["witnesses"] = 0, []
    assert out == clean


def test_the_cone_identity_holds_the_cone_sizes_against_the_spectral_count(monkeypatch):
    # the cone sizes come off the stack the translation count sums, so only
    # the spectral count checks them: a wrong one is one violation
    cfg = SweepConfig(rank=4, level=3, mode="exhaustive", checks=("lemma-2.5",))
    clean = run_sweep(cfg, workers=1).to_json_obj()
    target = PointSet(4, 0x0E8A)
    real = search.triangle_count_spectral
    monkeypatch.setattr(search, "triangle_count_spectral", lambda e: real(e) + 6 if e == target else real(e))
    out = run_sweep(cfg, workers=1).to_json_obj()
    st = out["checks"]["lemma-2.5"]
    t = triangle_count_naive(target)
    assert st["witnesses"] == [f"{target.to_compact()} sum of cone sizes {t} != T {t + 6}"]
    st["violations"], st["witnesses"] = 0, []
    assert out == clean


def test_one_cone_lemma_block_at_rank_6_stays_within_a_few_stacks():
    # the cone tables are about two (2^r x B) stacks of uint64 and int64;
    # the flat test adds chunks of at most _PAIR_BLOCK_ELEMENTS pairs
    import tracemalloc

    stack = verify._SWEEP_BLOCK * 64 * 8
    for n in (3, 4, 5):
        rng = random.Random(66 + n)
        sets = [PointSet(6, rng.getrandbits(64) & ~1) for _ in range(verify._SWEEP_BLOCK)]
        # the gate's freeness and the spectra, as a sweep forms them first
        for e in sets:
            matroid.is_pg_free(e, n)
            walsh_hadamard(e)
        matroid._flat_table(6, n - 1)
        tracemalloc.start()
        try:
            _block_cone_lemma(sets, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(("cone_lemma", n) in e.memo for e in sets)
        assert peak < 8 * stack


# ---------------------------------------------------------------------------
# from r = 7: the stacked int32 transform and the row-gather triangle count
# ---------------------------------------------------------------------------


def _row_gather_cases(r):
    """Sets that put the count's rows at the edges of its levels and chunks."""
    rng = random.Random(1000 + r)
    n, half = 1 << r, 1 << (r - 1)
    full = PointSet.full(r)
    return {
        "empty-low-half": PointSet.from_points(r, [w for w in range(half, n) if rng.random() < 0.5]),
        "top-half": PointSet.from_points(r, range(half, n)),
        "full-minus-point": full.without_point(rng.randrange(1, n)),
        "density-7/8": PointSet.from_points(r, [w for w in range(1, n) if rng.random() < 7 / 8]),
        "below-cutoff": PointSet.from_points(r, rng.sample(range(1, n), matroid._NAIVE_PYTHON_CUTOFF - 1)),
        "at-cutoff": PointSet.from_points(r, rng.sample(range(1, n), matroid._NAIVE_PYTHON_CUTOFF)),
        # a triangle whose points lie in three different words
        "spread": PointSet.from_points(r, {1, 64 + 2, 64 + 3} | set(rng.sample(range(2, n), 40))),
    }


def _assert_counts_are_the_oracle(r):
    for name, e in _row_gather_cases(r).items():
        t = triangle_count_naive(PointSet(r, e.bits))
        assert t == loop_triangle_count(e.points, r), (r, name)
        if e.size < 64:
            assert t == brute_triangle_count(e.points), (r, name)
    assert triangle_count_naive(PointSet(r, PointSet.full(r).without_point(1).bits)) == (
        ((1 << r) - 2) * ((1 << r) - 4)
    )


@pytest.mark.parametrize("r", range(7, 13))
def test_row_gather_count_matches_the_loop_oracle(r):
    _assert_counts_are_the_oracle(r)


# caps that split the levels into column chunks, the points into row chunks
# and the words' h into chunks of a few rows, most of them not a power of
# two (one word per gather only up to r = 10, where it takes a fraction of
# a second)
@pytest.mark.parametrize(
    "r, cap", [(r, cap) for r in (7, 9, 10, 12) for cap in (1, 3, 40, 1000) if (r, cap) != (12, 1)]
)
def test_row_gather_count_with_small_chunks_matches_the_loop_oracle(r, cap, monkeypatch):
    monkeypatch.setattr(matroid, "_PAIR_BLOCK_ELEMENTS", cap)
    _assert_counts_are_the_oracle(r)


def _stacked_cases(r, count):
    sets = [verify.sample_pointset(r, 500 + r, i) for i in range(count - 3)]
    return sets + [PointSet.empty(r), PointSet.full(r), PointSet.full(r).without_point(5)]


# B not a multiple of the tables per block (2^16 >> r): 513 > 512 at r = 7,
# 21 > 16 at r = 12, 3 > 2 at r = 15; from r = 16 each table is alone.  A
# one-word set is one padded 64-entry word, 1024 to a block: 1025 > 1024
# at r = 5
@pytest.mark.parametrize("r, count", [(4, 300), (5, 1025), (6, 257), (7, 513), (12, 21), (15, 3), (16, 3)])
def test_stacked_rows_are_the_single_tables(r, count):
    sets = _stacked_cases(r, count)
    spectral._block_spectra(sets)
    if r <= 6:
        # the rows cut from the padded words are one contiguous stack
        stack = spectral._spectrum_stack(sets[3:9])
        assert stack.shape == (6, 1 << r) and np.shares_memory(stack, sets[3].memo["walsh_hadamard"].coeffs)
    for i, e in enumerate(sets):
        row = e.memo["walsh_hadamard"]
        single = walsh_hadamard(PointSet(r, e.bits))
        assert row.coeffs.dtype == np.int32 and not row.coeffs.flags.writeable
        assert _same_spectrum(row, single), (r, i)
        if i % 64 == 0 or i >= count - 3:
            # against the copying int64 butterfly and Python cubes
            oracle = copying_fwht(e.indicator().astype(np.int64))
            assert np.array_equal(row.coeffs, oracle)
            assert (row.nontrivial_min, row.nontrivial_max) == (int(oracle[1:].min()), int(oracle[1:].max()))
            assert row.cube_sum == python_cube_sum(oracle)
    _uniformity_reports(sets)
    for e in sets[:5] + sets[-3:]:
        assert e.memo["uniformity"] == uniformity(PointSet(r, e.bits))


def test_later_kernels_read_the_formed_stack_in_place():
    sets = _stacked_cases(12, 16)
    spectral._block_spectra(sets)
    stack = spectral._spectrum_stack(sets[3:9])
    assert np.shares_memory(stack, sets[3].memo["walsh_hadamard"].coeffs) and not stack.flags.writeable
    assert np.array_equal(stack, np.stack([e.memo["walsh_hadamard"].coeffs for e in sets[3:9]]))
    # rows out of order, or of two stacks, are stacked anew
    others = _stacked_cases(12, 4)
    spectral._block_spectra(others)
    for mixed in (sets[9:3:-1], sets[:2] + others[:2]):
        stack = spectral._spectrum_stack(mixed)
        assert not np.shares_memory(stack, sets[0].memo["walsh_hadamard"].coeffs)
        assert np.array_equal(stack, np.stack([e.memo["walsh_hadamard"].coeffs for e in mixed]))


def test_one_stacked_block_at_rank_12_stays_within_the_stack_and_its_block_buffers():
    # the int32 stack, and while it is built the block's buffers: its eight
    # gathered byte rows (8 bytes per entry), their index, their sum and
    # the int16 copy (3.25), and a radix-4 pass's quarter-block temporaries
    # (at most 4); then the moments' int64 squares (two stacks), once the
    # buffers are freed, and each uniformity report's |coeff| row
    import tracemalloc

    sets = [verify.sample_pointset(12, 12, i) for i in range(verify._sweep_block(12))]
    for e in sets:
        e.bits
    stack = len(sets) * (1 << 12) * 4
    tracemalloc.start()
    try:
        spectral._block_spectra(sets)
        _uniformity_reports(sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all({"walsh_hadamard", "uniformity"} <= e.memo.keys() for e in sets)
    assert stack == spectral._BLOCK * 4
    assert peak < stack + 20 * spectral._BLOCK


# ---------------------------------------------------------------------------
# the block conclusions of thm-3.1 and lemma-2.4, the records, and the
# freeness kernel
# ---------------------------------------------------------------------------


def _thm_31_per_set(e):
    """Theorem 3.1 on one set by the library's own calls, as a sweep row
    concluded it one set at a time: (count, slack), or the message the
    set fails with."""
    try:
        verify._checked_triangle_count(e)
        _, lhs, rhs = spectral.counting_bound_check(e, uniformity(e).epsilon_min)
    except InternalInconsistencyError as exc:
        return str(exc)
    return 1, rhs - lhs


def _rows_of(done):
    """Each set's (count, value), or its fault message, from a block conclusion."""
    rows = []
    for i, count in enumerate(done.counts.tolist()):
        if i in done.faults:
            rows.append(done.faults[i])
            continue
        value = None
        if done.valued[i]:
            value = int(done.values[i]) if done.den is None else Fraction(int(done.values[i]), done.den)
        rows.append((count, value))
    return rows


def _concluded_by_blocks(conclude, sets, n, size):
    return [row for i in range(0, len(sets), size) for row in _rows_of(conclude(sets[i : i + size], n))]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_thm_31_block_conclusion_is_the_per_set_one_on_every_subset(r):
    want = [_thm_31_per_set(e) for e in _every_subset(r)]
    for level, size in ((2, 256), (3, 7)):
        assert _concluded_by_blocks(verify._thm_31, _every_subset(r), level, size) == want


# r = 16 tables are transformed alone, and decided on Python integers
@pytest.mark.parametrize("r, count", [(5, 60), (6, 60), (7, 300), (12, 20), (16, 2)])
def test_thm_31_block_conclusion_is_the_per_set_one_on_seeded_sets(r, count):
    sets = _seeded_sets(r, count, 310 + r) if r <= 6 else _stacked_cases(r, count)
    want = [_thm_31_per_set(PointSet(r, e.bits)) for e in sets]
    assert _concluded_by_blocks(verify._thm_31, sets, 3, verify._sweep_block(r)) == want
    assert all(row[0] == 1 and row[1] >= 0 for row in want)


@lru_cache(maxsize=None)
def _holds_pg(r, bits, k):
    return dfs_least_generators(PointSet(r, bits).points, k) is not None


def _lemma_24_loop(e, n):
    """(count, least slack) of Lemma 2.4's outside bound over the
    hyperplanes whose intersection holds a PG(n-2,2), by the plain search."""
    r = e.rank
    bound = ((1 << (n - 1)) - 1) << (r - n)
    count, slack = 0, None
    for g in range(1, 1 << r):
        inside = PointSet(r, e.bits & hyperplane_mask(r, g))
        if _holds_pg(r, inside.bits, n - 1):
            count += 1
            s = bound - (e.size - inside.size)
            slack = s if slack is None else min(slack, s)
    return count, None if slack is None else Fraction(slack)


@pytest.mark.parametrize("r, n", [(3, 3), (4, 3), (4, 4)])
def test_lemma_24_block_conclusion_is_the_hyperplane_loop_on_every_free_subset(r, n):
    sets = [e for e in _every_subset(r) if not matroid.is_pg_free(e, n).found]
    got = _concluded_by_blocks(verify._lemma_24, sets, n, 256)
    assert got == [_lemma_24_loop(e, n) for e in sets]
    assert any(row[0] == 0 for row in got) and any(row[0] for row in got)


@pytest.mark.parametrize("r, n", [(5, 3), (6, 3), (7, 3), (5, 4), (6, 4)])
def test_lemma_24_block_conclusion_is_the_hyperplane_loop_on_seeded_free_sets(r, n):
    rng = random.Random(240 + r)
    bb = bose_burton(r, n)
    sets = [bb.without_point(w).without_point(v) for w, v in (rng.sample(bb.points, 2) for _ in range(6))]
    sets += [e for e in _seeded_sets(r, 40, 250 + r) if not matroid.is_pg_free(e, n).found]
    got = _concluded_by_blocks(verify._lemma_24, sets, n, verify._sweep_block(r))
    assert got == [_lemma_24_loop(PointSet(r, e.bits), n) for e in sets]
    assert any(row[0] for row in got)


def _miscount(monkeypatch, targets):
    """Make the block translation counts give each target six more triangles."""
    real = matroid._translation_counts
    monkeypatch.setattr(matroid, "_translation_counts",
                        lambda sets: [t + 6 * (e.bits in targets) for e, t in zip(sets, real(sets))])


def test_thm_31_block_faults_are_the_per_set_messages(monkeypatch):
    sets = _every_subset(4)[1792:2048]
    # 2 more at gamma = 3 breaks Parseval on 0x0E8A, but keeps it, and
    # breaks only the cube sum's division, where the coefficient was -1
    parseval = sets.index(PointSet(4, 0x0E8A))
    cubes = next(i for i, e in enumerate(sets) if walsh_hadamard(PointSet(4, e.bits))[3] == -1)
    miscounted, loose = 70, 140
    for i in (parseval, cubes):
        _corrupt_row_of(monkeypatch, sets[i])
    _miscount(monkeypatch, {sets[miscounted].bits})
    fresh = [PointSet(4, e.bits) for e in sets]
    for block in (sets, fresh):
        _block_spectra(block)
        _block_triangle_counts(block)
        # a zero peak makes epsilon_min 0, under which the bound fails
        block[loose].memo["walsh_hadamard"].__dict__["peak"] = 0
    done = verify._thm_31(sets, 3)
    t = triangle_count_naive(PointSet(4, sets[miscounted].bits))
    assert done.faults == {
        parseval: "Parseval identity failed",
        cubes: "cube sum is not divisible by 2^r",
        miscounted: f"triangle counts disagree: naive {t + 6}, spectral {t}",
        loose: _thm_31_per_set(fresh[loose]),
    }
    assert done.faults[loose].startswith(f"counting bound failed on {sets[loose].to_compact()}: ")
    assert _rows_of(done) == [_thm_31_per_set(e) for e in fresh]
    # a failed set is one evaluation and one violation, with no value
    st = verify._CheckStats(verify._CHECKS["thm-3.1"])
    st.add(sets, done)
    assert (st.evaluated, st.violations) == (len(sets), 4)
    assert st.extremal == min((row[1], e.to_compact()) for row, e in zip(_rows_of(done), sets) if row[0] == 1)


def test_lemma_24_block_faults_are_the_bound_messages(monkeypatch):
    # a triangle in every hyperplane of the target, a largest fano-free
    # set: its least inside size is then its least |E ∩ H|, and the
    # outside part of that hyperplane breaks the bound 6
    sets = [e for e in _every_subset(4) if not matroid.is_pg_free(e, 3).found][-256:]
    target = max(sets, key=lambda e: e.size)
    real = spectral._hyperplane_counts

    def counts(c, member, rank):
        a, convolved, counted = real(c, member, rank)
        a[(member == target.membership).all(axis=-1)] += 1
        return a, convolved, counted

    monkeypatch.setattr(spectral, "_hyperplane_counts", counts)
    done = verify._lemma_24(sets, 3)
    i = sets.index(target)
    outside = max(target.size - (target.bits & hyperplane_mask(4, g)).bit_count() for g in range(1, 16))
    assert outside > 6
    assert done.faults == {i: f"|E \\ H| = {outside} exceeds the proven bound 6"}
    rows = [_lemma_24_loop(e, 3) for e in sets if e is not target]
    assert _rows_of(done)[:i] + _rows_of(done)[i + 1 :] == rows
    # the failed set is one evaluation and one violation, with no value
    st = verify._CheckStats(verify._CHECKS["lemma-2.4"])
    st.add(sets, done)
    assert (st.evaluated, st.violations) == (sum(count for count, _ in rows) + 1, 1)


def _stats(check, blocks):
    st = verify._CheckStats(verify._CHECKS[check])
    for sets, values, den in blocks:
        n = len(sets)
        st.add(sets, verify._Concluded(np.ones(n, dtype=np.int64), np.array(values, dtype=np.int64),
                                       np.ones(n, dtype=bool), {}, den))
    return st


def test_records_break_ties_by_compact_string_across_blocks(monkeypatch):
    # "5:100" < "5:1E" < "5:2" as strings, though 0x2 < 0x1E < 0x100
    two, e1e, hundred, four = (PointSet(5, b) for b in (0x2, 0x1E, 0x100, 0x4))
    formatted = []
    real = PointSet.to_compact
    monkeypatch.setattr(PointSet, "to_compact", lambda e: formatted.append(e.bits) or real(e))
    first = ([two, four], [7, 9], None)
    second = ([e1e, hundred, four], [7, 7, 8], None)
    st = _stats("thm-4.1", [first, second])  # a "min" record
    assert st.extremal == (7, "5:100")
    # only the tied sets of each block are formatted
    assert formatted == [0x2, 0x1E, 0x100]
    assert _stats("thm-4.1", [second, first]).extremal == (7, "5:100")
    # a "max" record, and slacks as numerators over a block's denominator
    assert _stats("bose-burton", [first, second]).extremal == (9, "5:4")
    # 3/12 in one block ties 1/4 in the next
    assert _stats("thm-3.1", [([two, e1e], [3, 5], 12), ([hundred], [1], 4)]).extremal == (
        Fraction(1, 4), "5:100")
    assert _stats("thm-3.1", [([two, e1e], [3, 3], 12), ([four], [1], 4)]).extremal == (
        Fraction(1, 4), "5:1E")
    # partials merge by the same rule, whichever range holds which block
    parts = [{"thm-4.1": _stats("thm-4.1", [second])}, {"thm-4.1": _stats("thm-4.1", [first])}]
    merged = verify._merge_stats(parts, ["thm-4.1"])
    assert merged["thm-4.1"].extremal == (7, "5:100")


def test_a_check_keeps_only_its_five_least_witnesses(monkeypatch):
    sets = _every_subset(3)
    st = verify._CheckStats(verify._CHECKS["thm-3.1"])
    for i in random.Random(5).sample(range(len(sets)), len(sets)):
        st.violation(sets[i], "x")
    assert st.violations == 128
    assert st.witnesses == sorted(f"{e.to_compact()} x" for e in sets)[:5]
    # a broken kernel faults every set of a sweep but the empty one, whose
    # spectrum is all zeros; the list stays at five
    monkeypatch.setattr(spectral, "_int32_transform", lambda sets: np.zeros((len(sets), 8), dtype=np.int32))
    stats = verify._sweep_range(SweepConfig(rank=3, level=3, mode="exhaustive", checks=("thm-3.1",)), 0, 128)
    st = stats["thm-3.1"]
    assert st.violations == 127 and st.evaluated == 128 and st.extremal == (0, "3:0")
    assert st.witnesses == sorted(f"{e.to_compact()} coeff at 0 must equal the set size" for e in sets[1:])[:5]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_block_freeness_is_the_per_set_search_on_every_subset(r):
    for n in range(1, r + 1):
        sets = _every_subset(r)
        for i in range(0, len(sets), 300):
            matroid._block_pg_free(sets[i : i + 300], n)
        for e in sets:
            w, own = e.memo[n], matroid.is_pg_free(PointSet(r, e.bits), n)
            assert (w.found, w.subspace) == (own.found, own.subspace)


@pytest.mark.parametrize("r", [5, 6])
def test_block_freeness_finds_the_least_generating_tuple(r):
    # and the words from 2^(r-2) up, a fano-free set of (3/4) 2^r points
    sets = _seeded_sets(r, 40, 60 + r) + [PointSet(r, PointSet.full(r).bits >> (1 << (r - 2)) << (1 << (r - 2)))]
    for n in range(2, 5):
        matroid._block_pg_free(sets, n)
        for e in sets:
            want = dfs_least_generators(e.points, n)
            w = e.memo[n]
            assert w.found == (want is not None)
            if want is not None:
                assert tuple(w._span[1]) == want


def test_a_sweep_forms_freeness_by_block_only_for_the_rows_that_read_it(monkeypatch):
    calls = _spy_on_kernels(monkeypatch)
    run_sweep(SweepConfig(rank=4, level=3, mode="exhaustive", checks=("thm-3.1", "thm-1.1")), workers=1)
    assert "_block_pg_free" not in calls
    calls.clear()
    run_sweep(SweepConfig(rank=4, level=3, mode="exhaustive", checks=("bose-burton",)), workers=1)
    assert calls.count("_block_pg_free") == 128
    # a set's own search is the kernel's row on a block of one
    given = []
    real = matroid._block_pg_free
    monkeypatch.setattr(matroid, "_block_pg_free", lambda sets, n: given.append(sets) or real(sets, n))
    e = PointSet(5, 0xFFFF0000)
    assert not matroid.is_pg_free(e, 3).found
    assert given == [[e]]
