"""Exhaustive and randomized theorem sweeps, plus the one-stop analyzer.

A sweep iterates a universe of point sets (every subset at desk scale, or
counter-seeded uniform samples), applies the selected checks with exact
hypothesis gating, and aggregates into an outcome whose canonical JSON is
byte-identical for a fixed configuration regardless of worker count.  Any
reported violation would be a counterexample to a proven statement, i.e.
an implementation bug, which is exactly what the sweeps exist to catch.

A sweep builds its sets in blocks, as many as fill one cache-sized
block of transform entries and at most ``_SWEEP_BLOCK`` (``_sweep_block``:
256 to r = 8, 16 at r = 12, one from r = 16), and takes each block one
check at a time: the check's gate runs on every set of the block, then
the block kernels of the values its conclusion reads on every set it
concludes on (``_conclusion_kernels``) run on the sets that passed, then
the conclusion runs on each of them and finds those values in the set's
memo.  In the one-word ambient, r <= 6, the kernels are
``spectral._block_spectra``, ``_block_hyperplane_counts``,
``_block_uniformity``, ``matroid._block_triangle_counts`` and
``search._block_cone_lemma``, whose kernel checks all of Lemma 2.5 on a
block at once and keeps each passing set's least slack.  From r = 7
thm-3.1 forms its spectra, as one stacked int32 transform, and its
uniformity reports by block; every other value is formed per set.
A kernel forms a value only where the memo lacks it, so checks share
what an earlier one formed; a value that a conclusion reads on a few sets
only is left to those sets' own calls.  A row that fails its checks is
not kept, so the set's own call recomputes it and raises, and the
violation is counted as for any set.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from . import FORMAT_VERSION, __version__
from .errors import ConfigError, InternalInconsistencyError, ResourceCapError
from .matroid import (
    AnalysisReport,
    _block_triangle_counts,
    _dense_free,
    check_corollary_1_3,
    critical_number,
    is_pg_free,
    matroid_rank,
    triangle_count_naive,
)
from .pointset import SMALL_SET_POINTS, PointSet, check_rank
from .search import (
    _block_cone_lemma,
    _cone_lemma,
    _hyperplane_bounds,
    _hyperplanes_holding_pg,
    _reconcile_condition,
    find_pg_free_hyperplane,
    find_triangle_free_flat,
    hyperplane_intersection,
    reconcile_hyperplane,
)
from .spectral import (
    _BLOCK,
    _block_hyperplane_counts,
    _block_spectra,
    _block_uniformity,
    counting_bound_check,
    triangle_count_spectral,
    uniformity,
    walsh_hadamard,
)

# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------
#
# Each statement's conclusion calls the library's single definition of it.
# A conclusion returns (instances evaluated, the set's extremal value or
# None) and raises InternalInconsistencyError when it fails.


def _free(e: PointSet, n: int) -> bool:
    return not is_pg_free(e, n).found


def _bose_burton(e: PointSet, n: int) -> tuple[int, int]:
    bound = ((1 << n) - 2) << (e.rank - n)  # (1 - 2/2^n) 2^r
    if e.size > bound:
        raise InternalInconsistencyError(f"size {e.size} exceeds the extremal bound {bound}")
    if e.size == bound and critical_number(e) > n:
        raise InternalInconsistencyError(
            f"extremal set is not inside the complement of a corank-{n} flat"
        )
    return 1, e.size


def _gs_dense_free(e: PointSet, n: int) -> bool:
    # |E| > (1 - 2/2^n - 3/2^(n+2)) 2^r, as a single fraction
    return e.denser_than((1 << (n + 2)) - (1 << 3) - 3, 1 << (n + 2)) and _free(e, n)


def _gs(e: PointSet, n: int) -> tuple[int, int]:
    if critical_number(e) > n:
        raise InternalInconsistencyError(
            f"no corank-{n} flat is disjoint (chi = {critical_number(e)})"
        )
    return 1, e.size


def _lemma_24(e: PointSet, n: int) -> tuple[int, Optional[Fraction]]:
    # the lemma applies to the hyperplanes whose intersection holds a PG(n-2,2)
    held = _hyperplanes_holding_pg(e, n)
    if n > 3:
        held = np.fromiter(held, dtype=bool, count=(1 << e.rank) - 1)
    inside = (e.size + walsh_hadamard(e).coeffs[1:][held]) >> 1
    if not inside.size:
        return 0, None
    outside_bound, _, _ = _hyperplane_bounds(e, inside, n)
    return inside.size, Fraction(outside_bound - e.size + int(inside.min()))


def _lemma_25(e: PointSet, n: int) -> tuple[int, int]:
    return 1, _cone_lemma(e, n)


def _thm_31(e: PointSet, n: int) -> tuple[int, Fraction]:
    _checked_triangle_count(e)
    _, lhs, rhs = counting_bound_check(e, uniformity(e).epsilon_min)
    return 1, rhs - lhs


def _thm_41(e: PointSet, n: int) -> tuple[int, int]:
    gamma = find_pg_free_hyperplane(e, 3)
    if gamma is None:
        raise InternalInconsistencyError("no hyperplane has a triangle-free intersection")
    size = hyperplane_intersection(e, gamma).size
    if 4 * size <= (1 << (e.rank - 1)):
        raise InternalInconsistencyError(f"triangle-free intersection of size {size} is too small")
    return 1, size


def _thm_11(e: PointSet, n: int) -> tuple[int, int]:
    exh, _ = find_triangle_free_flat(e, n, "exhaustive")
    if not exh.found:
        raise InternalInconsistencyError(f"no triangle-free corank-{n - 2} flat exists")
    if not exh.density_claim_holds:
        raise InternalInconsistencyError(
            f"flat found but |E∩K| = {exh.intersection_size} is too sparse"
        )
    desc, _ = find_triangle_free_flat(e, n, "descent")
    if not desc.found:
        raise InternalInconsistencyError("descent missed a flat the exhaustive scan found")
    return 1, exh.intersection_size


def _cor_13(e: PointSet, n: int) -> tuple[int, int]:
    if not check_corollary_1_3(e, n):
        raise InternalInconsistencyError(
            f"critical number {critical_number(e)} is outside {{{n - 1}, {n}}}"
        )
    return 1, critical_number(e)


def _reconcile(e: PointSet, n: int) -> tuple[int, None]:
    for gamma in range(1, 1 << e.rank):
        try:
            reconcile_hyperplane(e, gamma, n)
        except InternalInconsistencyError as exc:
            raise InternalInconsistencyError(f"gamma={gamma}: {exc}") from None
    return (1 << e.rank) - 1, None


class _Check(NamedTuple):
    gate: Callable[[PointSet, int], bool]  # the statement's hypotheses hold
    conclude: Callable[[PointSet, int], tuple[int, Any]]
    record: Optional[str] = None  # the name of the extremal record, if any
    kind: str = "min"  # whether the record keeps the "min" or the "max" value


# One row per statement, in the order the sweeps report them.
_CHECKS = {
    "bose-burton": _Check(_free, _bose_burton, "max_free_size", "max"),
    "gs": _Check(_gs_dense_free, _gs, "max_evaluated_size", "max"),
    "lemma-2.4": _Check(_free, _lemma_24, "min_outside_slack", "min"),
    "lemma-2.5": _Check(lambda e, n: e.size > 0, _lemma_25, "min_cone_slack", "min"),
    "thm-3.1": _Check(lambda e, n: True, _thm_31, "min_bound_slack", "min"),
    "thm-4.1": _Check(lambda e, n: _dense_free(e, 3), _thm_41, "min_intersection", "min"),
    "thm-1.1": _Check(_dense_free, _thm_11, "min_intersection", "min"),
    "cor-1.3": _Check(_dense_free, _cor_13, "max_chi", "max"),
    "reconcile": _Check(lambda e, n: _reconcile_condition(e, n) is not None, _reconcile),
}
ALL_CHECKS = tuple(_CHECKS)


def _inapplicable(check: str, rank: int, level: int) -> Optional[str]:
    """Why the row ``check`` does not apply to sweeps at (rank, level), or None."""
    if check in ("lemma-2.4", "lemma-2.5") and level < 3:
        return f"{check} needs level >= 3"
    if check == "thm-4.1" and level != 3:
        return "thm-4.1 is a level-3 statement"
    if check == "gs" and rank < level + 2:
        return "gs needs rank >= level + 2"
    return None


def applicable_checks(rank: int, level: int) -> tuple[str, ...]:
    """The rows of ``ALL_CHECKS`` that apply to sweeps at (rank, level), in order."""
    return tuple(c for c in ALL_CHECKS if not _inapplicable(c, rank, level))


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
        check_rank(self.rank)
        if self.mode not in ("exhaustive", "random"):
            raise ConfigError(f"mode must be exhaustive or random, got {self.mode!r}")
        if self.mode == "exhaustive" and self.rank > 4:
            raise ConfigError("exhaustive mode is limited to rank <= 4")
        if not 0 <= self.rng_seed < 1 << 128:
            raise ConfigError(f"rng_seed must be an integer in 0..2^128-1, got {self.rng_seed}")
        if self.mode == "random" and self.sample_count < 1:
            raise ConfigError("random mode needs sample_count >= 1")
        df = self.density_filter
        if df is not None and self.mode == "exhaustive":
            raise ConfigError("exhaustive mode sweeps every subset and takes no density filter")
        if df is not None and df >= 1 - Fraction(1, 1 << self.rank):
            raise ConfigError(f"no set of rank {self.rank} is denser than the filter {df}")
        if not 2 <= self.level <= self.rank:
            raise ConfigError(f"level must be in 2..rank, got {self.level}")
        unknown = [c for c in self.checks if c not in ALL_CHECKS]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}")
        if not self.checks:
            raise ConfigError("at least one check is required")
        if len(set(self.checks)) != len(self.checks):
            raise ConfigError(f"each check may be named once, got {list(self.checks)}")
        for c in self.checks:
            reason = _inapplicable(c, self.rank, self.level)
            if reason:
                raise ConfigError(reason)

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
    check_rank(rank)
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
# sweep driver
# ---------------------------------------------------------------------------


class _CheckStats:
    __slots__ = ("record_name", "minimize", "evaluated", "hypothesis_skipped", "violations",
                 "witnesses", "extremal")

    def __init__(self, check: _Check):
        self.record_name = check.record
        self.minimize = check.kind == "min"
        self.evaluated = 0
        self.hypothesis_skipped = 0
        self.violations = 0
        self.witnesses: list[str] = []
        self.extremal: Optional[tuple] = None  # (value, witness) of the record

    def violation(self, e: PointSet, detail: str) -> None:
        self.violations += 1
        self.witnesses.append(f"{e.to_compact()} {detail}")

    def record(self, value, e) -> None:
        """Keep the extremal value, ties going to the least compact witness.

        ``e`` is the set, formatted only when its value beats or ties the
        record, or a compact form when partials are merged.
        """
        cur = self.extremal
        if cur is not None and value != cur[0] and (value < cur[0]) != self.minimize:
            return
        witness = e if isinstance(e, str) else e.to_compact()
        if cur is None or value != cur[0] or witness < cur[1]:
            self.extremal = (value, witness)

    def to_json_obj(self) -> dict:
        extremal = {}
        if self.extremal is not None:
            value, witness = self.extremal
            extremal[self.record_name] = {"value": _value_str(value), "witness": witness}
        return {
            "evaluated": self.evaluated,
            "hypothesis_skipped": self.hypothesis_skipped,
            "violations": self.violations,
            "witnesses": sorted(self.witnesses)[:5],
            "extremal": extremal,
        }


def _value_str(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


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


# The most sets in a block of a sweep: every set's memo lives until its
# block is checked.  On the all-check r = 4 sweep, blocks of 256 sets raised
# peak RSS by 0.1 MiB over blocks of one, and blocks of 2,048 by 5.7 MiB.
_SWEEP_BLOCK = 256


def _sweep_block(rank: int) -> int:
    """Sets per block of a sweep at this rank: as many as fill one
    cache-sized block of ``_BLOCK`` transform entries, at most
    ``_SWEEP_BLOCK`` (256 to r = 8, 16 at r = 12, one from r = 16)."""
    return min(_SWEEP_BLOCK, max(1, _BLOCK >> rank))


def _conclusion_kernels(check: str, n: int, rank: int) -> tuple:
    """The block kernels of the memoized values that the check's conclusion
    reads at level n on every set it concludes on, in the order they run
    (a spectrum before what is formed from it).  A value read on a few
    sets only, as Bose-Burton's spectrum on the extremal sets, is left to
    those sets' own calls.  From r = 7 only the spectra and uniformity
    reports are formed by block: there a stacked translation count spills
    out of cache, and every other value is formed per set."""
    one_word = (1 << rank) <= SMALL_SET_POINTS
    if check == "thm-3.1":
        return (_block_spectra, _block_uniformity) + ((_block_triangle_counts,) if one_word else ())
    if not one_word:
        return ()
    if check == "lemma-2.5":
        return (_block_spectra, lambda sets: _block_cone_lemma(sets, n))
    if check in ("lemma-2.4", "thm-4.1", "thm-1.1") and n == 3:
        return (_block_spectra, _block_hyperplane_counts)
    if check in ("lemma-2.4", "cor-1.3"):
        return (_block_spectra,)
    return ()


def _sweep_range(cfg: SweepConfig, start: int, stop: int) -> dict[str, _CheckStats]:
    """Gate, conclude and record every configured check on each set of the range.

    A check's first failed conclusion on a set counts as one evaluation and
    one violation, and the check moves on to the next set.  The sets are
    built ``_sweep_block(r)`` at a time, and each check runs its
    conclusion's block kernels on a block's gated sets before it concludes
    on them.
    """
    stats = {name: _CheckStats(_CHECKS[name]) for name in cfg.checks}
    n = cfg.level
    rows = [
        (_CHECKS[name].gate, _CHECKS[name].conclude, _conclusion_kernels(name, n, cfg.rank), stats[name])
        for name in cfg.checks
    ]
    size = _sweep_block(cfg.rank)
    for first in range(start, stop, size):
        block = [_universe_set(cfg, i) for i in range(first, min(first + size, stop))]
        for gate, conclude, kernels, st in rows:
            gated = [e for e in block if gate(e, n)]
            st.hypothesis_skipped += len(block) - len(gated)
            for kernel in kernels:
                kernel(gated)
            for e in gated:
                try:
                    count, value = conclude(e, n)
                except InternalInconsistencyError as exc:
                    st.evaluated += 1
                    st.violation(e, str(exc))
                    continue
                st.evaluated += count
                if value is not None:
                    st.record(value, e)
    return stats


def _merge_stats(parts: list[dict[str, _CheckStats]], checks) -> dict[str, _CheckStats]:
    merged = {name: _CheckStats(_CHECKS[name]) for name in checks}
    for part in parts:
        for name, st in part.items():
            m = merged[name]
            m.evaluated += st.evaluated
            m.hypothesis_skipped += st.hypothesis_skipped
            m.violations += st.violations
            m.witnesses = sorted(set(m.witnesses) | set(st.witnesses))[:5]
            if st.extremal is not None:
                m.record(*st.extremal)
    return merged


def worker_count() -> int:
    """PGFREE_WORKERS (default 1), capped at the CPUs this process may use."""
    text = os.environ.get("PGFREE_WORKERS", "1")
    try:
        wanted = int(text)
    except ValueError:
        raise ConfigError(f"PGFREE_WORKERS must be an integer, got {text!r}") from None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(wanted, cpus))


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
