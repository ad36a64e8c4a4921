import ast
import contextlib
import hashlib
import importlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pgfree import cli
from pgfree.constructions import affine_set, bose_burton, m_k5
from pgfree.errors import ConfigError, RankCapError, ResourceCapError
from pgfree.matroid import is_pg_free, triangle_count_naive
from pgfree.pointset import PointSet
from pgfree.search import StructureResult, hyperplane_intersection
from pgfree.verify import (
    ALL_CHECKS,
    SweepConfig,
    _lemma_24,
    analyze,
    extremal_records_csv,
    run_sweep,
    sample_pointset,
)

from oracles import direct_walsh


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(rank=5, level=3, mode="exhaustive")
    with pytest.raises(ConfigError):
        SweepConfig(rank=4, level=3, mode="random", sample_count=0)
    with pytest.raises(ConfigError):
        SweepConfig(rank=4, level=5, mode="exhaustive")
    with pytest.raises(ConfigError):
        SweepConfig(rank=4, level=3, mode="exhaustive", checks=("nope",))
    with pytest.raises(ConfigError):
        SweepConfig(rank=4, level=2, mode="exhaustive", checks=("lemma-2.4",))
    with pytest.raises(ConfigError):
        SweepConfig(rank=4, level=4, mode="exhaustive", checks=("thm-4.1",))
    with pytest.raises(ConfigError):
        SweepConfig(rank=4, level=3, mode="exhaustive", checks=("gs",))
    with pytest.raises(ConfigError):
        SweepConfig(rank=4, level=3, mode="bogus")
    with pytest.raises(ConfigError):
        SweepConfig(rank=3, level=2, mode="exhaustive", checks=("bose-burton", "bose-burton"))
    # a set has at most 2^r - 1 points, so it never passes a filter of 1 - 1/2^r or more
    for df in (Fraction(15, 16), Fraction(1), Fraction(2)):
        with pytest.raises(ConfigError, match="denser than the filter"):
            SweepConfig(rank=4, level=3, mode="random", sample_count=1, density_filter=df, checks=("thm-1.1",))
    SweepConfig(rank=4, level=3, mode="random", sample_count=1, density_filter=Fraction(7, 8), checks=("thm-1.1",))


def test_exhaustive_sweep_r3_is_clean():
    cfg = SweepConfig(
        rank=3,
        level=3,
        mode="exhaustive",
        checks=("bose-burton", "lemma-2.4", "lemma-2.5", "thm-3.1", "thm-4.1", "thm-1.1", "cor-1.3", "reconcile"),
    )
    out = run_sweep(cfg)
    assert out.total_violations == 0
    assert out.sets_processed == 128
    assert out.checks["thm-3.1"]["evaluated"] == 128
    assert out.checks["bose-burton"]["extremal"]["max_free_size"]["value"] == "6"
    gated = out.checks["thm-1.1"]
    assert gated["evaluated"] + gated["hypothesis_skipped"] == 128


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "level, checks, digest, rank",
    [
        (2, ("bose-burton", "thm-3.1", "thm-1.1", "cor-1.3", "reconcile"),
         "521bc921f54729c9501e47091cd811cf72e2c39c2e43a8ee28a103a24e1f96f7", 3),
        (3, ("bose-burton", "lemma-2.4", "lemma-2.5", "thm-3.1", "thm-4.1", "thm-1.1",
             "cor-1.3", "reconcile"),
         "7a499899d2d37ba8856a07054fce182925b088cd2de2773963af794e6117e019", 3),
        # every subset of PG(3,2): the sweep the benchmark's exhaustive workload pins
        (3, ("bose-burton", "lemma-2.4", "lemma-2.5", "thm-3.1", "thm-4.1", "thm-1.1",
             "cor-1.3", "reconcile"),
         "68681873c77fd83770dd0707361a92866e9d4d68833bd2bdd6f59032e22a0160", 4),
    ],
)
def test_exhaustive_sweep_r3_json_is_pinned(level, checks, digest, rank):
    # every check the level admits at the rank (gs needs rank >= level + 2)
    out = run_sweep(SweepConfig(rank=rank, level=level, mode="exhaustive", checks=checks))
    assert _sha256(out.to_canonical_json()) == digest


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_exhaustive_r4_digest_holds_across_workers(workers):
    # every check at level 3 on every subset of PG(3,2), as the benchmark's
    # exhaustive workload runs it; one-word sweeps conclude in blocks of
    # 256 sets, and the ranges of three and seven workers start inside a
    # block, so records meet across blocks and across ranges
    checks = tuple(c for c in ALL_CHECKS if c != "gs")  # gs needs rank >= level + 2
    out = run_sweep(SweepConfig(rank=4, level=3, mode="exhaustive", checks=checks), workers=workers)
    assert _sha256(out.to_canonical_json()) == (
        "68681873c77fd83770dd0707361a92866e9d4d68833bd2bdd6f59032e22a0160"
    )
    evaluated = {name: chk["evaluated"] for name, chk in out.checks.items()}
    assert {k: evaluated[k] for k in ("thm-1.1", "cor-1.3", "lemma-2.4", "bose-burton")} == {
        "thm-1.1": 455, "cor-1.3": 455, "lemma-2.4": 202545, "bose-burton": 29887
    }


def _bose_burton_6_3_minus_a_point():
    bb = bose_burton(6, 3)
    return bb.without_point(bb.points[0])


@pytest.mark.parametrize(
    "make, digest",
    [
        (m_k5, "caf97b8872a26812c7bd18881554deaea760c9ebe413bbe61c745d4b4512b701"),
        (_bose_burton_6_3_minus_a_point,
         "b01ae3062a768c2edc64b804c1c8290797ecc582699c4a4daabe007214edf350"),
    ],
)
def test_analyze_json_is_pinned(make, digest):
    assert _sha256(json.dumps(analyze(make(), [2, 3]).to_json_obj())) == digest


_PLANE = PointSet.full(3)
_PLANE_MINUS_7 = _PLANE.without_point(7)  # six points: fano-free and dense at level 3
_ODD_WORDS = affine_set(4, 1)  # eight points, triangle-free: gs applies at level 2
_NO_FLAT = (StructureResult(False, None, 0, False), None)


def _emptied_cones(real, target):
    """``_cone_tables`` with every cone of the target set emptied."""
    def tables(sets):
        cones, sizes, apexes = real(sets)
        hit = [i for i, e in enumerate(sets) if e == target]
        cones[:, hit], sizes[:, hit] = 0, 0
        return cones, sizes, apexes
    return tables


def _miscounted(real, target):
    """``_translation_counts`` with six more triangles in the target set."""
    def counts(sets):
        return [t + 6 * (e == target) for e, t in zip(sets, real(sets))]
    return counts


def _held_everywhere(real, target):
    """``_hyperplane_counts`` with a triangle in every hyperplane of the target set."""
    def counts(c, member, rank):
        a, convolved, counted = real(c, member, rank)
        a[(member == target.membership).all(axis=-1)] += 1
        return a, convolved, counted
    return counts


@pytest.mark.parametrize(
    "check, level, target, patched, wrong",
    [
        # Bose–Burton reads the critical number of a set at the bound
        ("bose-burton", 3, _PLANE_MINUS_7, "pgfree.verify.critical_number", 4),
        # Govaerts–Storme reads the critical number
        ("gs", 2, _ODD_WORDS, "pgfree.verify.critical_number", 3),
        # the counting bound reads the naive triangle count off the block's translation counts
        ("thm-3.1", 3, _PLANE_MINUS_7, "pgfree.matroid._translation_counts", _miscounted),
        # Corollary 1.3 reads the critical number
        ("cor-1.3", 3, _PLANE_MINUS_7, "pgfree.matroid.critical_number", 0),
        # Lemma 2.4 reads the held hyperplanes off the block's per-hyperplane counts
        ("lemma-2.4", 3, _PLANE_MINUS_7, "pgfree.spectral._hyperplane_counts", _held_everywhere),
        # the cone lemma reads each cone off the set's column of the cone tables
        ("lemma-2.5", 3, _PLANE_MINUS_7, "pgfree.search._cone_tables", _emptied_cones),
        # Theorem 4.1 reads the first triangle-free hyperplane
        ("thm-4.1", 3, _PLANE_MINUS_7, "pgfree.verify.find_pg_free_hyperplane", None),
        # Theorem 1.1 reads the flat search
        ("thm-1.1", 3, _PLANE_MINUS_7, "pgfree.verify.find_triangle_free_flat", _NO_FLAT),
        # rank reconciliation reads the matroid rank
        ("reconcile", 3, _PLANE_MINUS_7, "pgfree.search.matroid_rank", 0),
    ],
    ids=["bose-burton", "gs", "thm-3.1", "cor-1.3", "lemma-2.4", "lemma-2.5", "thm-4.1",
         "thm-1.1", "reconcile"],
)
def test_failed_conclusion_is_counted_as_a_violation(
    check, level, target, patched, wrong, monkeypatch
):
    module, name = patched.rsplit(".", 1)
    real = getattr(importlib.import_module(module), name)
    if callable(wrong):  # a wrong value inside a block's table, not a set's own value
        monkeypatch.setattr(patched, wrong(real, target))
    else:
        monkeypatch.setattr(patched, lambda e, *args: wrong if e == target else real(e, *args))
    cfg = SweepConfig(rank=target.rank, level=level, mode="exhaustive", checks=(check,))
    st = run_sweep(cfg).checks[check]
    assert st["violations"] >= 1
    assert st["witnesses"]
    assert all(w.split()[0] == target.to_compact() for w in st["witnesses"])


def test_sweep_hypothesis_gating_counts_separately():
    cfg = SweepConfig(rank=3, level=2, mode="exhaustive", checks=("bose-burton",))
    out = run_sweep(cfg)
    st = out.checks["bose-burton"]
    assert st["evaluated"] + st["hypothesis_skipped"] == 128
    assert st["evaluated"] == 64  # triangle-free subsets, frozen from the triple-loop oracle
    assert st["violations"] == 0


def _lemma_24_by_hyperplane_loop(e, n):
    """(count, least slack) of Lemma 2.4's outside bound, one hyperplane at a time."""
    bound = ((1 << (n - 1)) - 1) << (e.rank - n)
    count, slack = 0, None
    for g in range(1, 1 << e.rank):
        inside = hyperplane_intersection(e, g)
        if n == 3:
            held = triangle_count_naive(inside) > 0
        else:
            held = is_pg_free(inside, n - 1).found
        if held:
            count += 1
            s = bound - (e.size - inside.size)
            slack = s if slack is None else min(slack, s)
    return count, None if slack is None else Fraction(slack)


def _lemma_24_cases():
    rng = random.Random(24)
    for r in range(5, 10):
        bb = bose_burton(r, 3)
        for k in (1, 3):
            yield _minus(bb, rng, k), 3
        kept = PointSet.from_points(r, [w for w in bb.points if rng.random() < 0.7])
        yield kept, 3
    for r in (5, 6):
        for _ in range(20):
            e = PointSet.from_points(r, [w for w in range(1, 1 << r) if rng.random() < 0.4])
            if not is_pg_free(e, 3).found:
                yield e, 3
    bb = bose_burton(6, 4)
    for k in (1, 2):
        yield _minus(bb, rng, k), 4


def _minus(e, rng, k):
    for w in rng.sample(e.points, k):
        e = e.without_point(w)
    return e


def test_lemma_24_row_matches_a_hyperplane_loop():
    # the row concludes on a block of same-rank sets at a time
    groups = {}
    for e, n in _lemma_24_cases():
        assert not is_pg_free(e, n).found
        groups.setdefault((e.rank, n), []).append(e)
    seen = []
    for (r, n), sets in groups.items():
        done = _lemma_24(sets, n)
        assert done.faults == {}
        for i, e in enumerate(sets):
            value = Fraction(int(done.values[i]), done.den) if done.valued[i] else None
            assert (int(done.counts[i]), value) == _lemma_24_by_hyperplane_loop(e, n)
            seen.append((n, int(done.counts[i])))
    assert {n for n, count in seen if count} == {3, 4}
    assert any(count == 0 for n, count in seen)


def test_lemma_24_sweep_runs_no_per_hyperplane_search(monkeypatch):
    import pgfree.search as search
    import pgfree.verify as verify

    intersections, levels = [], []
    for module in (search, verify):
        real_free = module.is_pg_free
        monkeypatch.setattr(
            module, "is_pg_free", lambda e, n, f=real_free: levels.append(n) or f(e, n)
        )
    # of the modules a sweep runs, only search binds hyperplane_intersection
    real_meet = search.hyperplane_intersection
    monkeypatch.setattr(
        search, "hyperplane_intersection", lambda e, g: intersections.append(g) or real_meet(e, g)
    )
    out = run_sweep(SweepConfig(rank=4, level=3, mode="exhaustive", checks=("lemma-2.4",)))
    assert out.checks["lemma-2.4"]["evaluated"] == 202_545
    assert intersections == []
    assert levels == [3] * (1 << 15)  # the freeness gate, once per set


def test_thm_41_sweep_builds_no_restriction(monkeypatch):
    # the thm-4.1 row reads the size of E ∩ W_gamma off the free normal
    import pgfree

    calls = []
    real = pgfree.matroid.restrict_to_flat
    spy = lambda *a: calls.append(a) or real(*a)
    for module in (pgfree, pgfree.matroid, pgfree.search, pgfree.verify):
        if getattr(module, "restrict_to_flat", None) is real:
            monkeypatch.setattr(module, "restrict_to_flat", spy)
    out = run_sweep(SweepConfig(rank=4, level=3, mode="exhaustive", checks=("thm-4.1",)))
    assert out.checks["thm-4.1"]["evaluated"] == 455
    assert calls == []
    # the descent step does restrict, through the spy
    pgfree.find_triangle_free_flat(bose_burton(4, 3).without_point(4), 3)
    assert len(calls) == 1


def test_reconcile_sweep_builds_no_hyperplane_flat(monkeypatch):
    # the reconcile row intersects E with each hyperplane by its normal
    import pgfree

    built = []
    for name in ("hyperplane_of", "flat_points"):
        real = getattr(pgfree.geometry, name)
        spy = lambda *a, f=real, name=name: built.append(name) or f(*a)
        for module in (pgfree, pgfree.geometry, pgfree.matroid, pgfree.search, pgfree.verify):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    out = run_sweep(SweepConfig(rank=4, level=3, mode="exhaustive", checks=("reconcile",)))
    assert out.checks["reconcile"]["evaluated"] == 15 * 996
    assert built == []


def test_sweep_computes_the_hyperplane_counts_once_per_set(monkeypatch):
    # lemma-2.4, thm-4.1 and thm-1.1's scan and descent all read the
    # per-hyperplane counts of a dense fano-free set; it is computed once,
    # as a row of a block kernel call or by a call that misses the memo
    import pgfree.search as search
    import pgfree.verify as verify

    seen = {}  # id -> [the set, calls, computations]; the set keeps its id unique
    real = search.triangle_counts_per_hyperplane
    block_counts = verify._block_hyperplane_counts
    key = "triangle_counts_per_hyperplane"

    def spy(e):
        entry = seen.setdefault(id(e), [e, 0, 0])
        entry[1] += 1
        entry[2] += key not in e.memo
        return real(e)

    def block_spy(sets):
        # a row counts as a computation when the kernel fills its memo
        missing = [e for e in sets if key not in e.memo]
        block_counts(sets)
        for e in missing:
            seen.setdefault(id(e), [e, 0, 0])[2] += key in e.memo

    monkeypatch.setattr(search, "triangle_counts_per_hyperplane", spy)
    for module in (search, verify):
        monkeypatch.setattr(module, "_block_hyperplane_counts", block_spy)
    checks = tuple(c for c in ALL_CHECKS if c != "gs")  # gs needs rank >= level + 2
    cfg = SweepConfig(rank=4, level=3, mode="random", sample_count=200, rng_seed=5,
                      density_filter=Fraction(5, 8), checks=checks)
    out = run_sweep(cfg, workers=1)
    assert out.checks["thm-1.1"]["evaluated"] > 0
    assert max(computed for _, _, computed in seen.values()) == 1
    assert max(calls for _, calls, _ in seen.values()) > 1


def test_fano_free_hyperplane_theorem_exhaustive_r4():
    out = run_sweep(SweepConfig(rank=4, level=3, mode="exhaustive", checks=("thm-4.1",)))
    st = out.checks["thm-4.1"]
    assert st["violations"] == 0
    assert st["evaluated"] == 455
    assert int(st["extremal"]["min_intersection"]["value"]) >= 3


def test_worker_count_env_var(monkeypatch):
    cfg = SweepConfig(rank=3, level=2, mode="exhaustive", checks=("thm-1.1",))
    base = run_sweep(cfg).to_canonical_json()
    monkeypatch.setenv("PGFREE_WORKERS", "3")
    assert run_sweep(cfg).to_canonical_json() == base


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, forks nothing."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, args):
        return [fn(*a) for a in args]


def test_worker_count_env_var_is_capped_at_usable_cpus(monkeypatch):
    import multiprocessing
    import os

    cfg = SweepConfig(rank=3, level=2, mode="exhaustive", checks=("thm-1.1",))
    base = run_sweep(cfg).to_canonical_json()
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    RecordingPool.sizes.clear()
    monkeypatch.setenv("PGFREE_WORKERS", "100000")
    assert run_sweep(cfg).to_canonical_json() == base
    # an explicit worker count is not capped
    assert run_sweep(cfg, workers=7).to_canonical_json() == base
    assert RecordingPool.sizes == [3, 7]


def test_sweep_determinism_across_workers():
    cfg = SweepConfig(
        rank=4,
        level=3,
        mode="random",
        sample_count=120,
        rng_seed=99,
        checks=("thm-3.1", "lemma-2.5"),
    )
    texts = {run_sweep(cfg, workers=w).to_canonical_json() for w in (1, 2, 5)}
    assert len(texts) == 1


def test_sample_pointset_counter_based():
    a = sample_pointset(8, 7, 123)
    b = sample_pointset(8, 7, 123)
    c = sample_pointset(8, 7, 124)
    d = sample_pointset(8, 8, 123)
    assert a == b and a != c and a != d
    assert a.bits & 1 == 0


def test_rank_cap_is_checked_before_any_draw():
    import tracemalloc

    with pytest.raises(RankCapError):
        SweepConfig(rank=25, level=3, mode="random", sample_count=1)
    # a rank-25 draw would take 4 MiB of bytes before the set is built
    tracemalloc.start()
    try:
        with pytest.raises(RankCapError):
            sample_pointset(25, 0, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sample_density_filter():
    e = sample_pointset(6, 3, 5, density_filter=Fraction(1, 2))
    assert Fraction(e.size, 64) > Fraction(1, 2)
    with pytest.raises(ResourceCapError):
        sample_pointset(4, 3, 0, density_filter=Fraction(99, 100))


def test_analyze_k5():
    rep = analyze(m_k5(), [3])
    assert rep.size == 10
    assert rep.matroid_rank == 4
    assert not rep.pg_freeness[3].found
    assert rep.critical_number == 3
    assert rep.triangle_count_ordered == 60
    assert rep.density == Fraction(5, 8)
    level, flat_res = rep.flat_search
    assert level == 3 and not flat_res.found
    assert not rep.degenerate
    obj = rep.to_json_obj()
    assert obj["density"] == {"num": 5, "den": 8}
    assert obj["epsilon_min"] == {"num": 1, "den": 8}


def test_analyze_affine_and_empty():
    rep = analyze(affine_set(5, 1), [2])
    assert not rep.pg_freeness[2].found
    assert rep.critical_number == 1
    assert rep.epsilon_min == Fraction(1, 2)
    assert rep.triangle_count_ordered == 0
    level, res = rep.flat_search
    assert level == 2 and res.found and res.intersection_size == 16

    rep = analyze(PointSet.empty(4), [2])
    assert rep.degenerate
    assert rep.size == 0 and rep.critical_number == 0
    assert rep.to_json_obj()["degenerate"] is True


def test_extremal_csv_shape():
    cfg = SweepConfig(rank=3, level=2, mode="exhaustive", checks=("bose-burton",))
    out = run_sweep(cfg)
    csv = extremal_records_csv(out)
    lines = csv.strip().split("\n")
    assert lines[0] == "size,rank,chi,T_E,epsilon_min,flat_found,flat_size"
    assert len(lines) >= 2
    row = lines[1].split(",")
    assert len(row) == 7


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(args, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_construct_kinds(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(["construct", "--kind", "k5", "--format", "compact"], capsys=capsys)
    assert code == 0 and out.strip() == "4:177E"

    code, out, _ = run_cli(
        ["construct", "--kind", "bose-burton", "--rank", "4", "--level", "2"], capsys=capsys
    )
    assert code == 0 and json.loads(out)["rank"] == 4

    code, out, _ = run_cli(
        ["construct", "--kind", "affine", "--rank", "3", "--gamma", "0x1", "--format", "compact"],
        capsys=capsys,
    )
    assert code == 0 and out.strip() == "3:AA"

    edges = tmp_path / "k4.txt"
    edges.write_text("vertices 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(
        ["construct", "--kind", "graphic", "--edges-file", str(edges)], capsys=capsys
    )
    assert code == 0 and len(json.loads(out)["points"]) == 6

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(PointSet.from_points(2, [1, 2, 3]).to_json())
    b.write_text("2:2")
    code, out, _ = run_cli(
        ["construct", "--kind", "direct-sum", "--in", str(a), "--in", str(b)], capsys=capsys
    )
    assert code == 0
    assert json.loads(out) == {"rank": 4, "points": [1, 2, 3, 4]}


def test_cli_analyze_pipe(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["analyze", "--levels", "3"],
        stdin_text="4:177E",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 10 and obj["critical_number"] == 3
    assert obj["flat_search"]["found"] is False


def test_cli_analyze_parse_error_exit_1(monkeypatch, capsys):
    code, _, err = run_cli(
        ["analyze"],
        stdin_text='{"rank": 4, "points": [0]}',
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1
    assert "points[0]" in err


def test_cli_analyze_bad_levels_is_a_usage_error_before_reading_input(monkeypatch, capsys):
    class UnreadableStdin:
        def read(self, *args):
            raise AssertionError("stdin was read")

    monkeypatch.setattr("sys.stdin", UnreadableStdin())
    code, out, err = run_cli(["analyze", "--levels", "x"], capsys=capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["usage error: bad --levels value 'x'"]


def test_cli_usage_error_exit_1(capsys):
    code, _, err = run_cli(["construct", "--kind", "bose-burton"], capsys=capsys)
    assert code == 1 and "usage error" in err
    code, _, _ = run_cli(["bogus-command"], capsys=capsys)
    assert code == 1


def test_cli_rank_cap_exit_3(capsys):
    code, _, err = run_cli(
        ["construct", "--kind", "affine", "--rank", "30", "--gamma", "1"], capsys=capsys
    )
    assert code == 3 and "resource cap" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["construct", "--kind", "bose-burton", "--rank", "-1", "--level", "2"], 1),
        (["construct", "--kind", "bose-burton", "--rank", "0", "--level", "2"], 1),
        (["construct", "--kind", "bose-burton", "--rank", "25", "--level", "2"], 3),
        (["verify", "--rank", "4", "--level", "3", "--mode", "random", "--samples", "1",
          "--density-filter", "2"], 1),
        (["verify", "--rank", "4", "--level", "3", "--mode", "random", "--samples", "1",
          "--density-filter", "15/16"], 1),
    ],
)
def test_cli_rank_and_density_filter_exit_codes(argv, code, capsys):
    assert run_cli(argv, capsys=capsys)[0] == code


def test_exhaustive_mode_rejects_a_density_filter(capsys):
    # exhaustive mode sweeps every subset, so a recorded filter would be a lie
    with pytest.raises(ConfigError, match="no density filter"):
        SweepConfig(rank=3, level=2, mode="exhaustive", density_filter=Fraction(1, 2),
                    checks=("bose-burton",))
    code, out, err = run_cli(
        ["verify", "--rank", "3", "--level", "2", "--mode", "exhaustive",
         "--checks", "bose-burton", "--density-filter", "1/2"],
        capsys=capsys,
    )
    assert (code, out) == (1, "")
    assert err == "error: exhaustive mode sweeps every subset and takes no density filter\n"


# Near-valid point sets reach the parser's later checks; their ranks stay
# small so that a set that does parse is analyzed in milliseconds.
_fuzz_compact = st.one_of(
    st.builds(lambda r, bits: f"{r}:{bits % (1 << (1 << r)) & ~1:X}", st.integers(1, 6), st.integers(0, 1 << 64)),
    st.builds(
        "{}:{}".format,
        st.one_of(st.integers(-2, 6), st.sampled_from([25, 99]), st.text(max_size=3)),
        st.one_of(st.integers(0, 1 << 70).map("{:X}".format), st.text(max_size=4)),
    ),
)
_fuzz_json = st.builds(
    json.dumps,
    st.dictionaries(
        st.sampled_from(["rank", "points", "other"]),
        st.one_of(
            st.integers(-2, 6),
            st.lists(st.one_of(st.integers(-2, 70), st.booleans(), st.floats(), st.text(max_size=2))),
            st.none(),
            st.text(max_size=3),
        ),
    ),
)


@given(
    text=st.one_of(st.text(), _fuzz_compact, _fuzz_json),
    command=st.sampled_from([["analyze"], ["find-flat", "--level", "3"],
                             ["find-flat", "--level", "4", "--strategy", "exhaustive"]]),
)
def test_cli_fuzzed_input_exits_0_or_1_with_one_line(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "fuzzed-input.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*command, "--in", str(path)])
    if code == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())
    else:
        assert code == 1, (text, err.getvalue())
        assert len(err.getvalue().splitlines()) == 1 and "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "text",
    ['{"rank": 4, "points": [' + "1" * 5000 + "]}", '{"rank": ' + "[" * 100000 + "]" * 100000 + "}"],
    ids=["digits", "depth"],
)
def test_cli_json_past_the_digit_or_depth_limit_exits_1(text, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_cli(["analyze", "--in", str(path)], capsys=capsys)
    assert code == 1 and out == "" and len(err.splitlines()) == 1


def test_cli_spectrum(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["spectrum"], stdin_text="3:AA", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "gamma,coefficient"
    assert lines[1] == "0,4"
    assert lines[2] == "1,-4"
    assert len(lines) == 9

    code, out, _ = run_cli(
        ["spectrum", "--top", "2"], stdin_text="3:AA", monkeypatch=monkeypatch, capsys=capsys
    )
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 2
    assert {r.split(",")[0] for r in rows} == {"0", "1"}


@pytest.mark.parametrize(
    "r, digest",
    [
        # one zero-padded word, cut to 2^r entries, with no in-block stage
        (1, "71f5a87f1c87a3077d511d848d9cd7d6b031a65fd993bc9d21cfc023c9fede7e"),
        (2, "d4defa437cb912a8bb90d02e7b77437892217eb90aaf60908a3f208976a59cbd"),
        (4, "9f2cf72b1e54254377a5e21686867869a87c76c204c31cb549dc4fa03897022a"),
        (6, "bb09df49bce7b81a285d2b3cb97ad084e824ca981b1c191628be0f6f2e93b966"),
        # one block of in-block stages, all in int16
        (7, "046c8477b3ebf1a5f9b80629c7d1669adc1fffbcd9f11d5aab71eb8bd65dcb76"),
        (12, "3b1118227ccba1d116f4981cfa868f780523ed93829088549dda6ec61b58d9d0"),
        # int16 and int32 in-block stages, then a wide stage over two blocks
        (17, "98348762312c3db21769eccb02ad9eba1f75a477885c976b877c3466f5edc277"),
    ],
)
def test_cli_spectrum_stdout_is_pinned(r, digest, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["spectrum"],
        stdin_text=sample_pointset(r, 1, 0).to_compact(),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert len(out.splitlines()) == (1 << r) + 1
    assert _sha256(out) == digest


def test_cli_spectrum_rejects_negative_top_before_any_output(monkeypatch, capsys):
    code, out, err = run_cli(
        ["spectrum", "--top", "-2"], stdin_text="3:AA", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("usage error:")


@pytest.mark.parametrize("e", [bose_burton(6, 3), affine_set(6, 0b101101)])
@pytest.mark.parametrize("top", [0, 5, 100])
def test_cli_spectrum_top_orders_ties_by_gamma(e, top, monkeypatch, capsys):
    # both sets have many coefficients of equal magnitude; the rows must
    # follow magnitude descending, then gamma ascending
    coeffs = direct_walsh(e.points, e.rank)
    order = sorted(range(len(coeffs)), key=lambda g: (-abs(coeffs[g]), g))
    expect = ["gamma,coefficient"] + [f"{g},{coeffs[g]}" for g in order[:top]]
    code, out, _ = run_cli(
        ["spectrum", "--top", str(top)],
        stdin_text=e.to_compact(),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out.splitlines() == expect


def test_cli_count_triangles(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["count-triangles"], stdin_text="2:E", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert json.loads(out) == {"ordered_triples": 6, "triangles": 1}


def test_cli_find_flat(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["find-flat", "--level", "3", "--strategy", "exhaustive"],
        stdin_text="4:FFF0",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True and obj["density_claim_holds"] is True

    code, out, _ = run_cli(
        ["find-flat", "--level", "3"],
        stdin_text="4:FFF0",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    obj = json.loads(out)
    assert obj["trace"]["fallback_level"] is None
    assert len(obj["trace"]["steps"]) == 1


def test_cli_cone(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["cone", "--point", "3", "--format", "compact"],
        stdin_text="2:E",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0 and out.strip() == "2:6"
    code, _, err = run_cli(
        ["cone", "--point", "7"], stdin_text="3:E", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 1


def test_cli_verify_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "outcome.json"
    csv_path = tmp_path / "records.csv"
    code, out, err = run_cli(
        [
            "verify", "--rank", "3", "--level", "2", "--mode", "exhaustive",
            "--checks", "bose-burton,thm-1.1", "--out", str(out_path), "--csv", str(csv_path),
        ],
        capsys=capsys,
    )
    assert code == 0
    assert "wall time" in err
    obj = json.loads(out_path.read_text())
    assert obj["checks"]["bose-burton"]["violations"] == 0
    assert csv_path.read_text().startswith("size,rank,chi")


def test_cli_verify_default_checks_stdout_is_pinned(capsys):
    # no --checks: every row of ALL_CHECKS runs, in order, gs included
    code, out, _ = run_cli(
        ["verify", "--rank", "5", "--level", "3", "--mode", "random", "--samples", "30",
         "--seed", "3", "--density-filter", "11/16"],
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["config"]["checks"] == list(ALL_CHECKS)
    assert _sha256(out) == "ebfb3e685b9aa105fde63363bf320a051a811472815baa0b47a95d18b14414a8"


@pytest.mark.parametrize(
    "r, digest",
    [
        (5, "4ead7fd1b72fbac886d487b27fa493f353fc81658d0f498f80aa7d5294037b0e"),
        (6, "f848ec5620ec86d07f0473bb14aa4f426e0ac2a9f8a32f0c66c34b31ca48ecc5"),
    ],
)
def test_one_word_random_sweep_json_is_pinned(r, digest, tmp_path, capsys):
    # every check at level 3 on 300 random one-word sets, in blocks of 256
    # and 44, as the CI step at rank 6 runs it; the file adds a newline
    out_path = tmp_path / "v.json"
    code, _, _ = run_cli(["verify", "--rank", str(r), "--level", "3", "--mode", "random", "--samples", "300",
                          "--seed", str(r), "--out", str(out_path)], capsys=capsys)
    assert code == 0
    text = out_path.read_text()
    assert text.endswith("\n") and _sha256(text[:-1]) == digest


@pytest.mark.parametrize(
    "argv, inapplicable, digest",
    [
        # the exhaustive r=4 sweep that the pinned row of
        # test_exhaustive_sweep_r3_json_is_pinned runs
        (["--rank", "4", "--level", "3", "--mode", "exhaustive"], {"gs"},
         "68681873c77fd83770dd0707361a92866e9d4d68833bd2bdd6f59032e22a0160"),
        (["--rank", "6", "--level", "4", "--mode", "random", "--samples", "3"], {"thm-4.1"},
         None),
        (["--rank", "3", "--level", "2", "--mode", "exhaustive"],
         {"gs", "lemma-2.4", "lemma-2.5", "thm-4.1"}, None),
    ],
)
def test_cli_verify_defaults_to_the_checks_the_config_admits(argv, inapplicable, digest, capsys):
    code, out, _ = run_cli(["verify", *argv], capsys=capsys)
    assert code == 0
    assert json.loads(out)["config"]["checks"] == [c for c in ALL_CHECKS if c not in inapplicable]
    assert digest is None or _sha256(out.rstrip("\n")) == digest
    # naming an inapplicable row is still refused, with the rule's reason
    for check in inapplicable:
        code, _, err = run_cli(["verify", *argv, "--checks", f"bose-burton,{check}"], capsys=capsys)
        assert (code, err) == (1, f"error: {_REFUSALS[check]}\n")


_REFUSALS = {
    "gs": "gs needs rank >= level + 2",
    "lemma-2.4": "lemma-2.4 needs level >= 3",
    "lemma-2.5": "lemma-2.5 needs level >= 3",
    "thm-4.1": "thm-4.1 is a level-3 statement",
}


def test_readme_check_table_lists_all_checks():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### verify", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in section.splitlines() if line.startswith("|")]
    assert rows[:2] == ["token", "-" * len(rows[1])]
    assert tuple(rows[2:]) == ALL_CHECKS


def test_traced_names_resolve():
    # perfbench/tracing.py wraps these by name; a refactor must keep them
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    source = tracing.read_text(encoding="utf-8")
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    assert traced
    for module, qualname in traced:
        owner = importlib.import_module(f"pgfree.{module}")
        for attr in qualname.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (module, qualname)


def test_cli_verify_bad_config_exit_1(capsys):
    code, _, err = run_cli(
        ["verify", "--rank", "5", "--level", "3", "--mode", "exhaustive"], capsys=capsys
    )
    assert code == 1 and "error" in err


def test_cli_verify_violation_exit_2(monkeypatch, capsys, tmp_path):
    import pgfree.cli as climod

    class FakeOutcome:
        total_violations = 1
        wall_time_seconds = 0.0

        def to_canonical_json(self):
            return "{}"

    monkeypatch.setattr(climod, "run_sweep", lambda cfg: FakeOutcome())
    code, _, _ = run_cli(
        ["verify", "--rank", "3", "--level", "2", "--mode", "exhaustive",
         "--checks", "bose-burton"],
        capsys=capsys,
    )
    assert code == 2


def test_cli_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_cli_reused_parser_acts_like_a_fresh_one(tmp_path, monkeypatch, capsys):
    a, b, e = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "e.json"
    a.write_text(PointSet.from_points(2, [1, 2, 3]).to_json())
    b.write_text("2:2")
    e.write_text(bose_burton(5, 3).without_point(31).to_json())
    direct_sum = ["construct", "--kind", "direct-sum", "--in", str(a), "--in", str(b)]
    calls = [
        (["analyze", "--in", str(e)], None),
        (["analyze", "--levels", "x"], "3:AA"),
        (["--help"], None),
        (direct_sum, None),
        (direct_sum, None),
        (["analyze", "--in", str(e)], None),
    ]

    def run_all():
        return [run_cli(args, text, monkeypatch, capsys)[:2] for args, text in calls]

    reused = run_all()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert reused == run_all()
    assert [code for code, _ in reused] == [0, 1, 0, 0, 0, 0]
    # the append default of --in does not carry inputs over between calls
    assert json.loads(reused[4][1]) == {"rank": 4, "points": [1, 2, 3, 4]}


def test_cli_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    real_init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for i in range(50):
        args = [["construct", "--kind", "k5"], ["construct", "--kind", "affine"], ["cone"]][i % 3]
        cli.main(args)
    capsys.readouterr()
    assert len(built) <= 8  # the top-level parser and its seven subcommands


_GRAPHIC = ["construct", "--kind", "graphic", "--edges-file", "graph.txt"]


@pytest.mark.parametrize(
    "args, stdin_text, env, files",
    [
        (["verify", "--rank", "3", "--level", "2", "--mode", "exhaustive",
          "--checks", "bose-burton"], None, {"PGFREE_WORKERS": "abc"}, {}),
        (["verify", "--rank", "4", "--level", "3", "--mode", "random",
          "--samples", "2", "--seed", "-1", "--checks", "thm-3.1"], None, {}, {}),
        (["spectrum", "--top", "-1"], "3:AA", {}, {}),
        (["analyze"], '{"rank": true, "points": []}', {}, {}),
        (["analyze"], '{"rank": 3, "points": [true]}', {}, {}),
        (_GRAPHIC, None, {}, {"graph.txt": "vertices x\n0 1\n"}),
        (_GRAPHIC, None, {}, {"graph.txt": "vertices 3\n0 1\n0 y\n"}),
    ],
    ids=["workers-not-int", "negative-seed", "negative-top", "bool-rank", "bool-point",
         "graph-vertex-count-not-int", "graph-edge-field-not-int"],
)
def test_cli_malformed_input_exit_1_one_line(
    args, stdin_text, env, files, tmp_path, monkeypatch, capsys
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli(args, stdin_text=stdin_text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith(("error:", "usage error:"))


@pytest.mark.parametrize(
    "flag_args",
    [["analyze", "--in"], ["construct", "--kind", "graphic", "--edges-file"]],
    ids=["analyze-in", "graphic-edges-file"],
)
def test_cli_non_utf8_file_exit_1_one_line(flag_args, tmp_path):
    # run as a process, so that an escaping exception would show its traceback
    import subprocess
    import sys

    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00bad")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "pgfree.cli", *flag_args, str(bad)],
        capture_output=True, text=True, env={"PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr and str(bad) in proc.stderr
