"""Exhaustive and randomized theorem sweeps, plus the one-stop analyzer.

A sweep iterates a universe of point sets (every subset at desk scale, or
counter-seeded uniform samples), applies the selected checks with exact
hypothesis gating, and aggregates into an outcome whose canonical JSON is
byte-identical for a fixed configuration regardless of worker count.  Any
reported violation would be a counterexample to a proven statement, i.e.
an implementation bug, which is exactly what the sweeps exist to catch.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import FORMAT_VERSION, __version__
from .errors import ConfigError, InternalInconsistencyError, ResourceCapError
from .geometry import hyperplane_of
from .matroid import (
    AnalysisReport,
    _dense_free,
    check_corollary_1_3,
    critical_number,
    is_pg_free,
    matroid_rank,
    triangle_count_naive,
)
from .pointset import PointSet
from .search import (
    _cone_identity_holds,
    _cone_lemma_at,
    _hyperplane_bounds,
    _reconcile_condition,
    find_pg_free_hyperplane,
    find_triangle_free_flat,
    hyperplane_intersection,
    reconcile_hyperplane,
)
from .spectral import counting_bound_check, triangle_count_spectral, uniformity

ALL_CHECKS = (
    "bose-burton",
    "gs",
    "lemma-2.4",
    "lemma-2.5",
    "thm-3.1",
    "thm-4.1",
    "thm-1.1",
    "cor-1.3",
    "reconcile",
)

_SAMPLE_STRIDE = 1 << 48
_MAX_REJECTIONS = 4096


@dataclass(frozen=True)
class SweepConfig:
    rank: int
    level: int
    mode: str  # "exhaustive" | "random"
    sample_count: int = 0
    rng_seed: int = 0
    density_filter: Optional[Fraction] = None
    checks: tuple[str, ...] = ALL_CHECKS

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ConfigError(f"mode must be exhaustive or random, got {self.mode!r}")
        if self.mode == "exhaustive" and self.rank > 4:
            raise ConfigError("exhaustive mode is limited to rank <= 4")
        if not 0 <= self.rng_seed < 1 << 128:
            raise ConfigError(f"rng_seed must be an integer in 0..2^128-1, got {self.rng_seed}")
        if self.mode == "random" and self.sample_count < 1:
            raise ConfigError("random mode needs sample_count >= 1")
        if not 2 <= self.level <= self.rank:
            raise ConfigError(f"level must be in 2..rank, got {self.level}")
        unknown = [c for c in self.checks if c not in ALL_CHECKS]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}")
        if not self.checks:
            raise ConfigError("at least one check is required")
        if len(set(self.checks)) != len(self.checks):
            raise ConfigError(f"each check may be named once, got {list(self.checks)}")
        for c in ("lemma-2.4", "lemma-2.5") :
            if c in self.checks and self.level < 3:
                raise ConfigError(f"{c} needs level >= 3")
        if "thm-4.1" in self.checks and self.level != 3:
            raise ConfigError("thm-4.1 is a level-3 statement")
        if "gs" in self.checks and self.rank < self.level + 2:
            raise ConfigError("gs needs rank >= level + 2")

    def universe_size(self) -> int:
        if self.mode == "exhaustive":
            return 1 << ((1 << self.rank) - 1)
        return self.sample_count

    def to_json_obj(self) -> dict:
        df = self.density_filter
        return {
            "rank": self.rank,
            "level": self.level,
            "mode": self.mode,
            "sample_count": self.sample_count,
            "rng_seed": self.rng_seed,
            "density_filter": None if df is None else {"num": df.numerator, "den": df.denominator},
            "checks": list(self.checks),
        }


def sample_pointset(
    rank: int,
    seed: int,
    index: int,
    density_filter: Optional[Fraction] = None,
) -> PointSet:
    """Uniform random subset number `index` of the seed's sample stream.

    Each sample index owns a disjoint counter range of a counter-based
    generator, so the draw depends only on (seed, index), never on how
    samples are partitioned across workers.  With a density filter,
    rejected draws are retried within the sample's own range.
    """
    nbits = 1 << rank
    nbytes = (nbits + 7) // 8
    mask = ((1 << nbits) - 1) & ~1
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(index * _SAMPLE_STRIDE)
    gen = np.random.Generator(bitgen)
    for _ in range(_MAX_REJECTIONS):
        bits = int.from_bytes(gen.bytes(nbytes), "little") & mask
        e = PointSet(rank, bits)
        if density_filter is None or Fraction(e.size, nbits) > density_filter:
            return e
    raise ResourceCapError(
        f"density filter {density_filter} rejected {_MAX_REJECTIONS} consecutive draws"
    )


def _universe_set(cfg: SweepConfig, index: int) -> PointSet:
    if cfg.mode == "exhaustive":
        return PointSet(cfg.rank, index << 1)
    return sample_pointset(cfg.rank, cfg.rng_seed, index, cfg.density_filter)


# ---------------------------------------------------------------------------
# per-check logic
# ---------------------------------------------------------------------------


class _CheckStats:
    __slots__ = ("evaluated", "hypothesis_skipped", "violations", "witnesses", "extremal")

    def __init__(self):
        self.evaluated = 0
        self.hypothesis_skipped = 0
        self.violations = 0
        self.witnesses: list[str] = []
        self.extremal: dict[str, tuple] = {}  # name -> (kind, value, witness)

    def violation(self, e: PointSet, detail: str) -> None:
        self.violations += 1
        self.witnesses.append(f"{e.to_compact()} {detail}")

    def record(self, name: str, kind: str, value, witness: str) -> None:
        cur = self.extremal.get(name)
        cand = (kind, value, witness)
        if cur is None or _extremal_beats(cand, cur):
            self.extremal[name] = cand

    def to_json_obj(self) -> dict:
        return {
            "evaluated": self.evaluated,
            "hypothesis_skipped": self.hypothesis_skipped,
            "violations": self.violations,
            "witnesses": sorted(self.witnesses)[:5],
            "extremal": {
                name: {"value": _value_str(value), "witness": witness}
                for name, (kind, value, witness) in sorted(self.extremal.items())
            },
        }


def _value_str(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _extremal_beats(cand: tuple, cur: tuple) -> bool:
    kind, value, witness = cand
    _, cur_value, cur_witness = cur
    if value != cur_value:
        return value > cur_value if kind == "max" else value < cur_value
    return witness < cur_witness


# Each check below has three jobs: gate the set on the statement's
# hypotheses, call the library's single definition of its conclusion (an
# InternalInconsistencyError from it is a violation), and keep the
# extremal records.


def _check_bose_burton(e: PointSet, n: int, stats: _CheckStats) -> None:
    if is_pg_free(e, n).found:
        stats.hypothesis_skipped += 1
        return
    stats.evaluated += 1
    bound_num = (1 << n) - 2  # |E| <= bound_num/2^n * 2^r
    bound = bound_num * (1 << (e.rank - n))
    if e.size > bound:
        stats.violation(e, f"size {e.size} exceeds the extremal bound {bound}")
        return
    stats.record("max_free_size", "max", e.size, e.to_compact())
    if e.size == bound and critical_number(e) > n:
        stats.violation(e, f"extremal set is not inside the complement of a corank-{n} flat")


def _check_gs(e: PointSet, n: int, stats: _CheckStats) -> None:
    # threshold (1 - 2/2^n - 3/2^(n+2)) 2^r, as a single fraction
    num = (1 << (n + 2)) - (1 << 3) - 3
    if not e.denser_than(num, 1 << (n + 2)) or is_pg_free(e, n).found:
        stats.hypothesis_skipped += 1
        return
    stats.evaluated += 1
    if critical_number(e) > n:
        stats.violation(e, f"no corank-{n} flat is disjoint (chi = {critical_number(e)})")
    else:
        stats.record("max_evaluated_size", "max", e.size, e.to_compact())


def _check_lemma_24(e: PointSet, n: int, stats: _CheckStats) -> None:
    if is_pg_free(e, n).found:
        stats.hypothesis_skipped += 1
        return
    for gamma in range(1, 1 << e.rank):
        inter = hyperplane_intersection(e, gamma)
        if not is_pg_free(inter, n - 1).found:
            continue  # E ∩ H is PG(n-2,2)-free: the lemma does not apply
        stats.evaluated += 1
        try:
            outside_bound, _, _ = _hyperplane_bounds(e, inter, n)
        except InternalInconsistencyError as exc:
            stats.violation(e, f"gamma={gamma}: {exc}")
            continue
        slack = Fraction(outside_bound - (e.size - inter.size))
        stats.record("min_outside_slack", "min", slack, e.to_compact())


def _check_lemma_25(e: PointSet, n: int, stats: _CheckStats) -> None:
    if e.size == 0:
        stats.hypothesis_skipped += 1
        return
    stats.evaluated += 1
    free = not is_pg_free(e, n).found
    total = 0
    for p in e:
        try:
            size, bound = _cone_lemma_at(e, p, n, free)
        except InternalInconsistencyError as exc:
            stats.violation(e, str(exc))
            return
        total += size
        stats.record("min_cone_slack", "min", size - bound, e.to_compact())
    if not _cone_identity_holds(e, total):
        stats.violation(e, f"sum of cone sizes {total} != T {triangle_count_naive(e)}")


def _check_thm_31(e: PointSet, n: int, stats: _CheckStats) -> None:
    stats.evaluated += 1
    try:
        _checked_triangle_count(e)
        _, lhs, rhs = counting_bound_check(e, uniformity(e).epsilon_min)
    except InternalInconsistencyError as exc:
        stats.violation(e, str(exc))
        return
    stats.record("min_bound_slack", "min", rhs - lhs, e.to_compact())


def _check_thm_41(e: PointSet, n: int, stats: _CheckStats) -> None:
    if not _dense_free(e, 3):
        stats.hypothesis_skipped += 1
        return
    stats.evaluated += 1
    out = find_pg_free_hyperplane(e, 3)
    if out is None:
        stats.violation(e, "no hyperplane has a triangle-free intersection")
        return
    _, (sub, _) = out
    if 4 * sub.size <= (1 << (e.rank - 1)):
        stats.violation(e, f"triangle-free intersection of size {sub.size} is too small")
        return
    stats.record("min_intersection", "min", sub.size, e.to_compact())


def _check_thm_11(e: PointSet, n: int, stats: _CheckStats) -> None:
    if not _dense_free(e, n):
        stats.hypothesis_skipped += 1
        return
    stats.evaluated += 1
    exh, _ = find_triangle_free_flat(e, n, "exhaustive")
    if not exh.found:
        stats.violation(e, f"no triangle-free corank-{n - 2} flat exists")
        return
    if not exh.density_claim_holds:
        stats.violation(e, f"flat found but |E∩K| = {exh.intersection_size} is too sparse")
        return
    desc, _ = find_triangle_free_flat(e, n, "descent")
    if not desc.found:
        stats.violation(e, "descent missed a flat the exhaustive scan found")
        return
    stats.record("min_intersection", "min", exh.intersection_size, e.to_compact())


def _check_cor_13(e: PointSet, n: int, stats: _CheckStats) -> None:
    if not _dense_free(e, n):
        stats.hypothesis_skipped += 1
        return
    stats.evaluated += 1
    if not check_corollary_1_3(e, n):
        stats.violation(e, f"critical number {critical_number(e)} is outside {{{n - 1}, {n}}}")
    else:
        stats.record("max_chi", "max", critical_number(e), e.to_compact())


def _check_reconcile(e: PointSet, n: int, stats: _CheckStats) -> None:
    if _reconcile_condition(e, n) is None:
        stats.hypothesis_skipped += 1
        return
    for gamma in range(1, 1 << e.rank):
        stats.evaluated += 1
        try:
            reconcile_hyperplane(e, hyperplane_of(e.rank, gamma), n)
        except InternalInconsistencyError as exc:
            stats.violation(e, f"gamma={gamma}: {exc}")
            return


_CHECK_FNS = {
    "bose-burton": _check_bose_burton,
    "gs": _check_gs,
    "lemma-2.4": _check_lemma_24,
    "lemma-2.5": _check_lemma_25,
    "thm-3.1": _check_thm_31,
    "thm-4.1": _check_thm_41,
    "thm-1.1": _check_thm_11,
    "cor-1.3": _check_cor_13,
    "reconcile": _check_reconcile,
}


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------


@dataclass
class SweepOutcome:
    config: SweepConfig
    checks: dict[str, dict]
    sets_processed: int
    wall_time_seconds: float = field(default=0.0, compare=False)

    @property
    def total_violations(self) -> int:
        return sum(c["violations"] for c in self.checks.values())

    def to_json_obj(self) -> dict:
        """Canonical content: excludes wall time so that identical configs
        produce byte-identical JSON regardless of workers or machine."""
        return {
            "format_version": FORMAT_VERSION,
            "library_version": __version__,
            "config": self.config.to_json_obj(),
            "sets_processed": self.sets_processed,
            "checks": self.checks,
        }

    def to_canonical_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


def _sweep_range(cfg: SweepConfig, start: int, stop: int) -> dict[str, _CheckStats]:
    stats = {name: _CheckStats() for name in cfg.checks}
    checks = [(_CHECK_FNS[name], stats[name]) for name in cfg.checks]
    for index in range(start, stop):
        e = _universe_set(cfg, index)
        for check, st in checks:
            check(e, cfg.level, st)
    return stats


def _merge_stats(parts: list[dict[str, _CheckStats]], checks) -> dict[str, _CheckStats]:
    merged = {name: _CheckStats() for name in checks}
    for part in parts:
        for name, st in part.items():
            m = merged[name]
            m.evaluated += st.evaluated
            m.hypothesis_skipped += st.hypothesis_skipped
            m.violations += st.violations
            m.witnesses = sorted(set(m.witnesses) | set(st.witnesses))[:5]
            for rec_name, cand in st.extremal.items():
                m.record(rec_name, *cand)
    return merged


def worker_count() -> int:
    text = os.environ.get("PGFREE_WORKERS", "1")
    try:
        return max(1, int(text))
    except ValueError:
        raise ConfigError(f"PGFREE_WORKERS must be an integer, got {text!r}") from None


def run_sweep(cfg: SweepConfig, workers: Optional[int] = None) -> SweepOutcome:
    """Apply the configured checks over the configured universe.

    The result is a deterministic function of the config alone: partials
    from statically-partitioned index ranges are merged by an ordered
    reduction with canonical tie-breaks.
    """
    t0 = time.perf_counter()
    n = cfg.universe_size()
    workers = worker_count() if workers is None else max(1, workers)
    workers = min(workers, max(1, n))
    if workers == 1:
        parts = [_sweep_range(cfg, 0, n)]
    else:
        import multiprocessing

        bounds = [(n * i) // workers for i in range(workers + 1)]
        args = [(cfg, bounds[i], bounds[i + 1]) for i in range(workers)]
        with multiprocessing.Pool(workers) as pool:
            parts = pool.starmap(_sweep_range, args)
    merged = _merge_stats(parts, cfg.checks)
    return SweepOutcome(
        config=cfg,
        checks={name: merged[name].to_json_obj() for name in sorted(cfg.checks)},
        sets_processed=n,
        wall_time_seconds=time.perf_counter() - t0,
    )


def extremal_records_csv(outcome: SweepOutcome) -> str:
    """CSV of the extremal witness sets with their headline measurements."""
    lines = ["size,rank,chi,T_E,epsilon_min,flat_found,flat_size"]
    witnesses = sorted(
        {rec["witness"] for chk in outcome.checks.values() for rec in chk["extremal"].values()}
    )
    for compact in witnesses:
        e = PointSet.parse(compact)
        eps = uniformity(e).epsilon_min
        res, _ = find_triangle_free_flat(e, outcome.config.level, "exhaustive")
        lines.append(
            ",".join(
                [
                    str(e.size),
                    str(matroid_rank(e)),
                    str(critical_number(e)),
                    str(triangle_count_naive(e)),
                    f"{eps.numerator}/{eps.denominator}",
                    str(res.found).lower(),
                    str(res.intersection_size),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _checked_triangle_count(E: PointSet) -> int:
    """T(E) by the translation count, after checking it against the spectral count."""
    t_naive = triangle_count_naive(E)
    t_spectral = triangle_count_spectral(E)
    if t_naive != t_spectral:
        raise InternalInconsistencyError(
            f"triangle counts disagree: naive {t_naive}, spectral {t_spectral}"
        )
    return t_naive


def analyze(E: PointSet, levels: list[int], find_flat: bool = True) -> AnalysisReport:
    """Fill every report field with exact arithmetic.

    The spectral and naive triangle counts are cross-checked internally;
    a mismatch is an implementation bug and raises.
    """
    t_naive = _checked_triangle_count(E)
    freeness = {n: is_pg_free(E, n) for n in levels}
    flat_search = None
    if find_flat and levels:
        lvl = max(levels)
        if lvl >= 2 and E.rank >= lvl:
            result, _ = find_triangle_free_flat(E, lvl, "descent")
            flat_search = (lvl, result)
    return AnalysisReport(
        size=E.size,
        matroid_rank=matroid_rank(E),
        density=E.density,
        pg_freeness=freeness,
        critical_number=critical_number(E),
        triangle_count_ordered=t_naive,
        epsilon_min=uniformity(E).epsilon_min,
        flat_search=flat_search,
        degenerate=E.size == 0,
    )
