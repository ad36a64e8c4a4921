"""Exhaustive and randomized theorem sweeps, plus the one-stop analyzer.

A sweep iterates a universe of point sets (every subset at desk scale, or
counter-seeded uniform samples), applies the selected checks with exact
hypothesis gating, and aggregates into an outcome whose canonical JSON is
byte-identical for a fixed configuration regardless of worker count.  Any
reported violation would be a counterexample to a proven statement, i.e.
an implementation bug, which is exactly what the sweeps exist to catch.

A sweep builds its sets in blocks, as many as fill one cache-sized
block of transform entries and at most ``_SWEEP_BLOCK`` (``_sweep_block``:
256 to r = 8, 16 at r = 12, one from r = 16).  In the one-word ambient,
r <= 6, when some row reads every set's freeness, a block's freeness at
the sweep's level is formed first, every set against the table of flats
at once (``matroid._block_pg_free``).  Then each check takes the block:
its gate runs on every set, and its conclusion on the block of the sets
that passed.  A conclusion first runs the block kernels of the values it
reads on every set: at every rank the spectra, as one stacked int32
transform (``spectral._block_spectra``), and in the one-word ambient
``_block_hyperplane_counts``, ``matroid._block_triangle_counts`` and
``search._block_cone_lemma``, whose kernel checks all of Lemma 2.5 on a
block at once.  A kernel forms a value only where the memo lacks it, so
checks share what an earlier one formed, and a value no kernel kept is
formed by the set's own call.  thm-3.1 and lemma-2.4 then decide the
whole block on int64 arrays: thm-3.1 on each set's |E|, naive count, cube
sum and peak |coeff|, lemma-2.4 on the stacked spectra and, at n = 3,
per-hyperplane counts.  Every other row concludes on each set alone and
finds those values in the set's memo.

A row that fails its kernel's checks is not kept, so the set's own call
recomputes it and raises; that, and any failed conclusion, counts as one
evaluation and one violation of the set, with the message the set's own
calls give.  A check keeps the five least violation messages, and its
record keeps a block's best value, found by one integer argmin or argmax
(thm-3.1's slacks are numerators over 4^r, so one Fraction is formed per
block), ties going to the least compact witness, formatted only for the
tied sets.
"""

from __future__ import annotations

import bisect
import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import FORMAT_VERSION, __version__
from .errors import ConfigError, InternalInconsistencyError, ResourceCapError
from .matroid import (
    AnalysisReport,
    _block_pg_free,
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
    _alone,
    _block_hyperplane_counts,
    _block_spectra,
    _counting_bound,
    _spectral_count,
    _spectrum_stack,
    counting_bound_check,
    triangle_count_spectral,
    triangle_counts_per_hyperplane,
    uniformity,
    walsh_hadamard,
)

# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------
#
# A row concludes on a block of same-rank sets that passed its gate, and
# returns a _Concluded.  Most rows conclude on each set alone (``_each``),
# by the library's single definition of the statement, which returns
# (instances evaluated, the set's extremal value or None) and raises
# InternalInconsistencyError when the statement fails.  thm-3.1 and
# lemma-2.4 decide a whole block on int64 arrays, by the integer helpers
# their library definitions use.


class _Concluded(NamedTuple):
    """A row's conclusions on a block of sets.  Per set: the instances
    evaluated, the extremal value as an integer (a Fraction's numerator
    over ``den`` when den is set) and whether the set has one; and, by
    index, the message of each set whose conclusion failed, which counts
    as one evaluation with no value, whatever its entries read."""

    counts: np.ndarray
    values: np.ndarray
    valued: np.ndarray
    faults: dict[int, str]
    den: Optional[int] = None


def _one_word(sets: list[PointSet]) -> bool:
    return (1 << sets[0].rank) <= SMALL_SET_POINTS


def _each(conclude, kernels=None):
    """The row conclusion that runs ``kernels(sets, n)``, the block kernels
    of the values ``conclude`` reads on every set, then concludes on each
    set alone."""

    def on_block(sets: list[PointSet], n: int) -> _Concluded:
        if kernels is not None:
            kernels(sets, n)
        counts, values, faults = [], [], {}
        for i, e in enumerate(sets):
            try:
                count, value = conclude(e, n)
            except InternalInconsistencyError as exc:
                faults[i] = str(exc)
                count, value = 1, None
            counts.append(count)
            values.append(value)
        valued = np.array([v is not None for v in values], dtype=bool)
        values = np.array([v or 0 for v in values], dtype=np.int64)
        return _Concluded(np.array(counts, dtype=np.int64), values, valued, faults)

    return on_block


def _formed(sets: list[PointSet], fns) -> dict[int, str]:
    """Form, by each set's own calls, the memoized values of ``fns`` that
    no block kernel kept for it; returns, by index, the message of each set
    whose call raised.  A row that failed its kernel's checks was not kept,
    so its set's own call recomputes it and raises."""
    faults = {}
    for i, e in enumerate(sets):
        try:
            for fn in fns:
                fn(e)
        except InternalInconsistencyError as exc:
            faults[i] = str(exc)
    return faults


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


# The least c_H of a set with no hyperplane to take it over: above every
# coefficient, |c| <= |E| < 2^24.
_NO_HYPERPLANE = 1 << 24


def _stack(rows: list[np.ndarray]) -> np.ndarray:
    """Equal rows as one (B, k) array; a single row is read in place."""
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def _lemma_24(sets: list[PointSet], n: int) -> _Concluded:
    """Lemma 2.4 on a block of PG(n-1,2)-free sets: its instances are the
    hyperplanes H whose intersection holds a PG(n-2,2), the inside sizes
    |E ∩ H| = (|E| + c_H)/2 are read off the stacked spectra, and the
    least of them decides both bounds (``_hyperplane_bounds``).  At n = 3
    the held hyperplanes are those with a triangle, read off the stacked
    per-hyperplane counts; from n = 4 each set's ``is_pg_free`` runs on one
    intersection at a time (``_hyperplanes_holding_pg``).  The value is the
    least slack under the outside bound."""
    keys = (walsh_hadamard, triangle_counts_per_hyperplane) if n == 3 else (walsh_hadamard,)
    _block_spectra(sets)
    if n == 3 and _one_word(sets):
        _block_hyperplane_counts(sets)
    faults = _formed(sets, keys)
    counts = np.zeros(len(sets), dtype=np.int64)
    slack = np.zeros(len(sets), dtype=np.int64)
    at = [i for i in range(len(sets)) if i not in faults]
    if at:
        kept = [sets[i] for i in at]
        if n == 3:
            held = _stack([e.memo["triangle_counts_per_hyperplane"] for e in kept])[:, 1:] > 0
        else:
            width = (1 << kept[0].rank) - 1
            held = _stack([np.fromiter(_hyperplanes_holding_pg(e, n), dtype=bool, count=width) for e in kept])
        sizes = np.fromiter((e.size for e in kept), dtype=np.int64, count=len(kept))
        # |E ∩ H| = (|E| + c_H)/2 is least where c_H is
        low = np.min(_spectrum_stack(kept)[:, 1:], axis=1, initial=_NO_HYPERPLANE, where=held)
        slack[at], bad = _hyperplane_bounds(kept, (sizes + low) >> 1, n)
        counts[at] = held.sum(axis=1)
        faults.update((at[i], message) for i, message in bad.items())
    return _Concluded(counts, slack, counts > 0, faults, den=1)


def _lemma_25(e: PointSet, n: int) -> tuple[int, int]:
    return 1, _cone_lemma(e, n)


def _cone_kernels(sets: list[PointSet], n: int) -> None:
    if _one_word(sets):
        _block_spectra(sets)
        _block_cone_lemma(sets, n)


def _thm_31(sets: list[PointSet], n: int) -> _Concluded:
    """Theorem 3.1 on a block: each set's |E|, naive T, cube sum and
    uniformity peak are stacked as int64 arrays, and decided elementwise:
    the cube sum is divisible by 2^r, the naive count equals the spectral
    one (``_spectral_count``), and the counting bound holds at epsilon_min
    = peak/2^r (``_counting_bound``).  The slack rhs - lhs of every set has
    the denominator 4^r.  A table transformed ``_alone`` (from r = 16) is
    decided on Python integers.  A set that fails is concluded alone, by
    ``_checked_triangle_count`` and ``counting_bound_check``, for its
    message."""
    r = sets[0].rank
    _block_spectra(sets)
    if _one_word(sets):
        _block_triangle_counts(sets)
    faults = _formed(sets, (walsh_hadamard, triangle_count_naive))
    specs = [None if i in faults else e.memo["walsh_hadamard"] for i, e in enumerate(sets)]
    rows = np.array([(e.size, e.memo["triangle_count_naive"], s.cube_sum, s.peak) if s else (0, 0, 0, 0)
                     for e, s in zip(sets, specs)], dtype=object if _alone(r) else np.int64)
    size, naive, cube_sum, peak = rows.T
    t, divides = _spectral_count(r, cube_sum)
    # the naive count, equal to the spectral one wherever a set passes, is
    # at most |E|^2 on every row, so no term of the bound wraps
    lhs, rhs = _counting_bound(r, size, naive, peak, 1 << r)
    for i in np.flatnonzero(~(divides & (t == naive) & (lhs <= rhs))).tolist():
        if i not in faults:
            faults[i] = _thm_31_fault(sets[i])
    ones = np.ones(len(sets), dtype=np.int64)
    return _Concluded(ones, rhs - lhs, ones > 0, faults, den=1 << (2 * r))


def _thm_31_fault(e: PointSet) -> str:
    """The message with which the set's own calls fail Theorem 3.1."""
    try:
        _checked_triangle_count(e)
        counting_bound_check(e, uniformity(e).epsilon_min)
    except InternalInconsistencyError as exc:
        return str(exc)
    return "the block's conclusion failed where the set's own calls pass"


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


def _count_kernels(sets: list[PointSet], n: int) -> None:
    """The spectra and per-hyperplane counts that the thm-4.1 and thm-1.1
    conclusions read on every set at level 3."""
    if _one_word(sets) and n == 3:
        _block_spectra(sets)
        _block_hyperplane_counts(sets)


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
    conclude: Callable[[list[PointSet], int], _Concluded]  # on a block of gated sets
    record: Optional[str] = None  # the name of the extremal record, if any
    kind: str = "min"  # whether the record keeps the "min" or the "max" value
    free: bool = False  # whether the row reads every set's freeness at level n


# One row per statement, in the order the sweeps report them.
_CHECKS = {
    "bose-burton": _Check(_free, _each(_bose_burton), "max_free_size", "max", free=True),
    "gs": _Check(_gs_dense_free, _each(_gs), "max_evaluated_size", "max"),
    "lemma-2.4": _Check(_free, _lemma_24, "min_outside_slack", "min", free=True),
    "lemma-2.5": _Check(lambda e, n: e.size > 0, _each(_lemma_25, _cone_kernels), "min_cone_slack", "min",
                        free=True),
    "thm-3.1": _Check(lambda e, n: True, _thm_31, "min_bound_slack", "min"),
    "thm-4.1": _Check(lambda e, n: _dense_free(e, 3), _each(_thm_41, _count_kernels), "min_intersection",
                      "min"),
    "thm-1.1": _Check(_dense_free, _each(_thm_11, _count_kernels), "min_intersection", "min"),
    # the critical numbers of cor-1.3 read the spectra
    "cor-1.3": _Check(_dense_free, _each(_cor_13, lambda sets, n: _block_spectra(sets)), "max_chi", "max"),
    "reconcile": _Check(lambda e, n: _reconcile_condition(e, n) is not None, _each(_reconcile)),
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


# The witnesses a check keeps: the canonical JSON lists the five least.
_WITNESSES = 5


class _CheckStats:
    __slots__ = ("record_name", "minimize", "evaluated", "hypothesis_skipped", "violations",
                 "witnesses", "extremal")

    def __init__(self, check: _Check):
        self.record_name = check.record
        self.minimize = check.kind == "min"
        self.evaluated = 0
        self.hypothesis_skipped = 0
        self.violations = 0
        self.witnesses: list[str] = []  # the least ``_WITNESSES``, ascending
        self.extremal: Optional[tuple] = None  # (value, witness) of the record

    def violation(self, e: PointSet, detail: str) -> None:
        self.violations += 1
        bisect.insort(self.witnesses, f"{e.to_compact()} {detail}")
        del self.witnesses[_WITNESSES:]

    def add(self, sets: list[PointSet], done: _Concluded) -> None:
        """Count a block's conclusions and keep its best value, ties going
        to the least compact witness, formatted only for the tied sets."""
        faulted = list(done.faults)
        done.counts[faulted] = 1
        done.valued[faulted] = False
        self.evaluated += int(done.counts.sum())
        for i, detail in done.faults.items():
            self.violation(sets[i], detail)
        at = np.flatnonzero(done.valued)
        if self.record_name is None or not at.size:
            return
        values = done.values[at]
        best = values.min() if self.minimize else values.max()
        witness = min(sets[i].to_compact() for i in at[values == best].tolist())
        self.record(int(best) if done.den is None else Fraction(int(best), done.den), witness)

    def record(self, value, witness: str) -> None:
        """Keep the extremal value, ties going to the least compact witness."""
        cur = self.extremal
        if cur is None or value != cur[0] and (value < cur[0]) == self.minimize or (
            value == cur[0] and witness < cur[1]
        ):
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
            "witnesses": list(self.witnesses),
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


def _sweep_range(cfg: SweepConfig, start: int, stop: int) -> dict[str, _CheckStats]:
    """Gate, conclude and record every configured check on each set of the range.

    The sets are built ``_sweep_block(r)`` at a time.  In the one-word
    ambient, when some row reads every set's freeness, a block's freeness
    is formed first, by one kernel call (``_block_pg_free``).  Then each
    check gates every set of the block and concludes on the block of the
    sets that passed.  A check's failed conclusion on a set counts as one
    evaluation and one violation.
    """
    stats = {name: _CheckStats(_CHECKS[name]) for name in cfg.checks}
    n = cfg.level
    rows = [(_CHECKS[name], stats[name]) for name in cfg.checks]
    free = (1 << cfg.rank) <= SMALL_SET_POINTS and any(check.free for check, _ in rows)
    size = _sweep_block(cfg.rank)
    for first in range(start, stop, size):
        block = [_universe_set(cfg, i) for i in range(first, min(first + size, stop))]
        if free:
            _block_pg_free(block, n)
        for check, st in rows:
            gated = [e for e in block if check.gate(e, n)]
            st.hypothesis_skipped += len(block) - len(gated)
            if gated:
                st.add(gated, check.conclude(gated, n))
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
