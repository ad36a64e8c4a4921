"""Structural searches: cones, hyperplane bounds, and triangle-free flats.

The cone of E at p, E ∩ (E + p), is one ``xor_translate`` of E's bitset:
the one-step case of the iterated cone that ``matroid``'s flat searches
walk.  The sizes of all of E's cones are one memoized vector,
``cone_sizes``.  In the one-word ambient the cones of a block of sets are
one table (``matroid._cone_tables``), on which the cone lemma's kernel
checks every set of the block at once.  A hyperplane intersection is one
AND with ``hyperplane_mask``.

The headline operation finds a triangle-free corank-(n-2) flat inside a
dense PG(n-1,2)-free set, either by the descent or by an exhaustive scan
that reads every flat of the target corank off one walk over the spaces
of normals, with one per-hyperplane triangle count per leaf.  The descent
follows the paper's recursion on n: one hyperplane step restricts E to a
PG(n-2,2)-free intersection, the descent recurses from level n-1 there,
and the flat it finds is lifted back through that hyperplane
(``lift_flat``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .errors import GeometryError, InternalInconsistencyError
from .geometry import Flat, closure, echelon_basis, hyperplane_of, kernel_basis
from .matroid import (
    _cone_tables,
    _dense,
    _dense_free,
    _first_flats,
    _walk,
    is_pg_free,
    lift_flat,
    matroid_rank,
    restrict_to_flat,
)
from .pointset import SMALL_SET_POINTS, PointSet, hyperplane_mask, memoized, xor_translate
from .spectral import (
    _block_hyperplane_counts,
    _block_spectra,
    _raise,
    triangle_count_spectral,
    triangle_counts_per_hyperplane,
    walsh_hadamard,
)


def cone(E: PointSet, p: int) -> PointSet:
    """Points of E - {p} lying on a line of E through p: x with x^p in E,
    that is E ∩ (E + p)."""
    if p not in E:
        raise GeometryError(f"{p} is not a point of the set")
    return PointSet(E.rank, E.bits & xor_translate(E.bits, p, E.rank))


def hyperplane_intersection(E: PointSet, gamma: int) -> PointSet:
    """E ∩ W_gamma in the parent coordinates, for a normal 1 <= gamma < 2^r."""
    return PointSet(E.rank, E.bits & hyperplane_mask(E.rank, gamma))


@memoized
def cone_sizes(E: PointSet) -> np.ndarray:
    """|E_p| = |E ∩ (E + p)| for each point p of E, ascending in p, as a
    read-only int64 array: one ``xor_translate`` per point.  In a sweep
    block of one-word sets ``_block_cone_lemma`` keeps each set's column
    of the block's ``_cone_tables`` instead; for a single set the points'
    translates cost about as much as a table of one, or less.
    """
    bits = E.bits
    sizes = np.fromiter(((bits & xor_translate(bits, p, E.rank)).bit_count() for p in E),
                        dtype=np.int64, count=E.size)
    sizes.flags.writeable = False
    return sizes


def _cone_lemma(E: PointSet, n: int) -> int:
    """Lemma 2.5 at level n on a nonempty set E: the least slack
    |E_p| - (2|E| - 2^r) over its apexes p, once every conclusion holds
    (``_cone_lemma_rows``); the first that fails raises an internal
    inconsistency.  The slack is remembered in E.memo, once per n.

    In the one-word ambient it is the block kernel ``_block_cone_lemma``
    on a block of one.  From r = 7 it reads ``cone_sizes`` and, when E is
    PG(n-1,2)-free, builds each point's ``cone`` to test its freeness.
    """
    key = ("cone_lemma", n)
    if key not in E.memo:
        if (1 << E.rank) <= SMALL_SET_POINTS:
            (fault,) = _block_cone_lemma([E], n)
        else:
            free = not is_pg_free(E, n).found
            held = np.fromiter((free and is_pg_free(cone(E, p), n - 1).found for p in E),
                               dtype=bool, count=E.size)[:, None]
            sizes = cone_sizes(E)[:, None]
            (fault,) = _cone_lemma_rows([E], n, E.points_array, sizes, np.ones_like(held), held)
        _raise(fault)
    return E.memo[key]


def _block_cone_lemma(sets: list[PointSet], n: int) -> list[Optional[str]]:
    """Lemma 2.5 at level n on each set of a block of same-rank nonempty
    one-word sets whose memo lacks it, from their ``_cone_tables``: the
    cones of the PG(n-1,2)-free sets are tested for a PG(n-2,2) by
    ``_first_flats``, then ``_cone_lemma_rows`` checks every set.  A set
    that passes keeps its slack and its cone sizes.  Returns the fault of
    each set it checked (None for a kept one)."""
    sets = [e for e in sets if ("cone_lemma", n) not in e.memo]
    if not sets:
        return []
    cones, sizes, apexes = _cone_tables(sets)
    free = np.fromiter((not is_pg_free(e, n).found for e in sets), dtype=bool, count=len(sets))
    held = np.zeros_like(apexes)
    held[apexes & free] = _first_flats(cones[apexes & free], sets[0].rank, n - 1) >= 0
    faults = _cone_lemma_rows(sets, n, np.arange(sizes.shape[0]), sizes, apexes, held)
    # every set's cone sizes, one set after another
    flat = sizes.T[apexes.T]
    flat.flags.writeable = False
    end = 0
    for e, fault in zip(sets, faults):
        end += e.size
        if fault is None:
            e.memo["cone_sizes"] = flat[end - e.size : end]
    return faults


def _cone_lemma_rows(sets: list[PointSet], n: int, xs: np.ndarray, sizes: np.ndarray,
                     apexes: np.ndarray, held: np.ndarray) -> list[Optional[str]]:
    """Lemma 2.5's conclusions at level n on each column b of (k, B) tables
    over k words xs: sizes[i, b] = |E_b ∩ (E_b + xs[i])|, apexes[i, b]
    whether xs[i] is a point of E_b, and held[i, b] whether that cone holds
    a PG(n-2,2), tested only at the apexes of a PG(n-1,2)-free E_b.

    At each apex p the cone has at least 2|E| - 2^r points, and it is
    PG(n-2,2)-free when E is PG(n-1,2)-free; the first apex where one
    fails gives the fault.  Then the cone sizes must sum to T
    (``_cone_identity_holds``).  A set that passes keeps its least slack
    in its memo.  Returns each set's fault (None for a kept one).
    """
    bound = np.fromiter((2 * e.size - (1 << e.rank) for e in sets), dtype=np.int64, count=len(sets))
    below = apexes & (sizes < bound)
    bad = below | held
    least = np.min(sizes, axis=0, initial=1 << 24, where=apexes)
    total = np.sum(sizes, axis=0, where=apexes)
    faults: list[Optional[str]] = []
    rows = zip(sets, bad.any(axis=0).tolist(), bad.argmax(axis=0).tolist(), least.tolist(),
               total.tolist(), bound.tolist())
    for b, (e, failed, i, lo, t, bd) in enumerate(rows):
        fault = None
        if failed and below[i, b]:
            fault = f"cone at {xs[i]} has {sizes[i, b]} points, below the bound {bd}"
        elif failed:
            fault = f"cone at {xs[i]} contains a PG({n - 2},2) despite the freeness hypothesis"
        else:
            try:
                if not _cone_identity_holds(e, t):
                    fault = f"sum of cone sizes {t} != T {triangle_count_spectral(e)}"
            except InternalInconsistencyError as exc:  # the spectral count itself failed
                fault = str(exc)
        if fault is None:
            e.memo[("cone_lemma", n)] = lo - bd
        faults.append(fault)
    return faults


def _hyperplane_bounds(sets: list[PointSet], least: np.ndarray,
                       n: int) -> tuple[np.ndarray, dict[int, str]]:
    """Lemma 2.4's conclusions on each set of a block of same-rank sets,
    given least[i] = min |E ∩ H| over the hyperplanes H whose intersection
    with set i holds a PG(n-2,2), an int64 array.

    For r >= n, a PG(n-1,2)-free E and an E ∩ H that holds a PG(n-2,2):
    |E \\ H| <= (1 - 1/2^(n-1)) 2^(r-1) and, when |E| > (1 - 3/2^n) 2^r,
    |E ∩ H| > (1 - 2/2^(n-1)) 2^(r-1).  Both bounds are integers since
    r >= n, and the least size decides both.  Returns each set's slack
    under the first bound, and the message of each set that fails a bound,
    by index.
    """
    r = sets[0].rank
    unit = 1 << (r - n)
    outside_bound = ((1 << (n - 1)) - 1) * unit
    inside_bound = ((1 << (n - 1)) - 2) * unit
    sizes = np.fromiter((e.size for e in sets), dtype=np.int64, count=len(sets))
    slack = outside_bound - (sizes - least)
    faults = {}
    for i in np.flatnonzero((slack < 0) | (least <= inside_bound) & _dense(sizes, r, n)).tolist():
        m, low = int(sizes[i]), int(least[i])
        if m - low > outside_bound:
            faults[i] = f"|E \\ H| = {m - low} exceeds the proven bound {outside_bound}"
        else:
            faults[i] = f"|E ∩ H| = {low} is not above the proven bound {inside_bound}"
    return slack, faults


def _hyperplanes_holding_pg(E: PointSet, n: int):
    """Whether E ∩ W_gamma holds a PG(n-2,2), for gamma = 1, ..., 2^r - 1.

    At n = 3 a bool array, read off the per-hyperplane triangle counts.
    At n >= 4 a generator that runs ``is_pg_free`` on one intersection at
    a time, so that a caller may stop at the first free one.
    """
    if n == 3:
        return triangle_counts_per_hyperplane(E)[1:] > 0
    return (
        is_pg_free(hyperplane_intersection(E, gamma), n - 1).found
        for gamma in range(1, 1 << E.rank)
    )


def find_pg_free_hyperplane(E: PointSet, n: int) -> Optional[int]:
    """The least normal gamma whose hyperplane meets E in a PG(n-2,2)-free set.

    Absence is a legitimate outcome below the density threshold, so None is
    returned rather than raising.
    """
    if n < 3:
        raise GeometryError("hyperplane descent needs n >= 3")
    if E.rank < n:
        raise GeometryError(f"ambient rank {E.rank} is below n = {n}")
    held = _hyperplanes_holding_pg(E, n)
    if n == 3:
        free = np.flatnonzero(~held) + 1
    else:
        free = (gamma for gamma, h in enumerate(held, 1) if not h)
    gamma = next(iter(free), None)
    return None if gamma is None else int(gamma)


@dataclass(frozen=True)
class StructureResult:
    """Outcome of a triangle-free corank-(n-2) flat search."""

    found: bool
    flat: Optional[Flat]
    intersection_size: int
    density_claim_holds: bool  # |E ∩ K| > 2^rank(K) / 4

    def to_json_obj(self) -> dict:
        return {
            "found": self.found,
            "flat_basis": list(self.flat.basis) if self.flat else None,
            "intersection_size": self.intersection_size,
            "density_claim_holds": self.density_claim_holds,
        }


@dataclass(frozen=True)
class DescentStep:
    """One level of the hyperplane descent."""

    level: int
    normal: int  # in the coordinates of the ambient at this level
    ambient_rank: int
    size_before: int
    size_after: int
    hypothesis_ok: bool  # density and freeness held at this level

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DescentTrace:
    """Record of the descent: one step per level, plus the lifted flat."""

    steps: tuple[DescentStep, ...]
    final_flat: Optional[Flat]
    final_restriction_size: int
    fallback_level: Optional[int] = None

    def to_json_obj(self) -> dict:
        return {
            "steps": [s.to_json_obj() for s in self.steps],
            "final_flat_basis": list(self.final_flat.basis) if self.final_flat else None,
            "final_restriction_size": self.final_restriction_size,
            "fallback_level": self.fallback_level,
        }


def _result_for(flat: Optional[Flat], intersection_size: int) -> StructureResult:
    if flat is None:
        return StructureResult(False, None, 0, False)
    return StructureResult(
        found=True,
        flat=flat,
        intersection_size=intersection_size,
        density_claim_holds=4 * intersection_size > (1 << flat.rank),
    )


def _exhaustive_flat_search(E: PointSet, n: int) -> StructureResult:
    """The triangle-free corank-(n-2) flat K of maximum |E ∩ K|, ties going
    to the least reduced-echelon basis of its normal space.

    Level 2 has one such flat, the whole ambient.  Above, each space of
    normals is read once, as a leaf D of the ``_walk`` of the whole ambient
    at rank n-3 and a word delta of its pool: the per-hyperplane triangle
    counts and the spectrum c of E ∩ K_D, K_D the flat orthogonal to D,
    give every flat K_D ∩ W_delta at once, of size (|E ∩ K_D| + c_delta)/2.
    In the one-word ambient, from n = 4, the leaves' spectra and counts
    are formed together, one call of each block kernel per search
    (``_block_spectra``, ``_block_hyperplane_counts``).
    """
    r = E.rank
    if n == 2:
        whole = None if is_pg_free(E, 2).found else closure(r, [1 << i for i in range(r)])
        return _result_for(whole, E.size)
    best_size, best_dual = -1, None
    full = (1 << (1 << r)) - 2
    leaves = ((D, pool, reduce(hyperplane_intersection, D, E)) for D, _, pool in _walk(full, full, r, n - 3))
    if (1 << r) <= SMALL_SET_POINTS and n > 3:
        # above, leaves stream, so no leaf's tables outlive it; at n = 3 the
        # one leaf is E itself, whose own calls are a block of one
        leaves = list(leaves)
        sets = [EK for _, _, EK in leaves]
        _block_spectra(sets)
        _block_hyperplane_counts(sets)
    for D, pool, EK in leaves:
        if EK.size < best_size:  # no flat inside K_D can reach the best
            continue
        free = np.flatnonzero(PointSet(r, pool).membership & (triangle_counts_per_hyperplane(EK) == 0))
        if not free.size:
            continue
        sizes = (EK.size + walsh_hadamard(EK).coeffs[free]) >> 1
        top = int(sizes.max())
        if top < best_size:
            continue
        ties = free[sizes == top].tolist()
        # a lone normal is its own reduced-echelon basis
        dual = min(echelon_basis((*D, delta)) for delta in ties) if D else (ties[0],)
        if top > best_size or dual < best_dual:
            best_size, best_dual = top, dual
    return _result_for(None if best_dual is None else Flat(r, kernel_basis(r, best_dual)), best_size)


def _descend(
    E: PointSet, n: int
) -> tuple[Optional[Flat], tuple[DescentStep, ...], int, Optional[int]]:
    """The descent from level n: (the flat or None, the steps taken,
    |E ∩ flat|, the level that fell back to the exhaustive scan or None).

    At level 2 the flat is E's whole ambient.  Above it, the first
    PG(n-2,2)-free hyperplane restricts E, and the flat found from level
    n-1 in the restriction is lifted back.  A level with no such hyperplane
    scans its own corank-(n-2) flats; at level 3 that scan is the
    hyperplane scan again, so it finds nothing.
    """
    if n == 2:
        return closure(E.rank, [1 << i for i in range(E.rank)]), (), E.size, None
    hypothesis_ok = _dense_free(E, n)
    gamma = find_pg_free_hyperplane(E, n)
    if gamma is None:
        fallback = _exhaustive_flat_search(E, n)
        return fallback.flat, (), fallback.intersection_size, n
    H = hyperplane_of(E.rank, gamma)
    sub = restrict_to_flat(E, H)
    flat, steps, size, fallback_level = _descend(sub, n - 1)
    here = DescentStep(n, gamma, E.rank, E.size, sub.size, hypothesis_ok)
    lifted = None if flat is None else lift_flat(H, flat)
    return lifted, (here, *steps), size, fallback_level


def find_triangle_free_flat(
    E: PointSet, n: int, strategy: str = "descent"
) -> tuple[StructureResult, Optional[DescentTrace]]:
    """Search for a triangle-free corank-(n-2) flat meeting E densely.

    descent: take the PG-free hyperplane step at levels n, n-1, ..., 3,
    re-validating the density/freeness hypotheses at each level and falling
    back to an exhaustive scan at the level where the step fails.
    exhaustive: scan all corank-(n-2) flats, maximizing |E ∩ K|.
    """
    if n < 2:
        raise GeometryError("level n must be >= 2")
    if E.rank < n:
        raise GeometryError(f"ambient rank {E.rank} is below n = {n}")
    if strategy == "exhaustive":
        return _exhaustive_flat_search(E, n), None
    if strategy != "descent":
        raise GeometryError(f"unknown strategy {strategy!r}")
    if n == 2 and is_pg_free(E, 2).found:
        return _result_for(None, 0), None
    flat, steps, size, fallback_level = _descend(E, n)
    return _result_for(flat, size), DescentTrace(steps, flat, size, fallback_level)


@dataclass(frozen=True)
class ReconcileReport:
    """Geometry/matroid agreement for one hyperplane."""

    condition: Optional[str]  # "size", "free-dense", or None (report only)
    matroid_rank_full: int
    matroid_rank_intersection: int
    asserted: bool


def reconcile_hyperplane(E: PointSet, gamma: int, n: int) -> ReconcileReport:
    """Check that E spans the ambient and E ∩ W_gamma drops rank by exactly
    one; a normal outside 1..2^r - 1 raises ``GeometryError``.

    Asserted when |E| >= (3/4) 2^r, or when E is PG(n-1,2)-free with
    |E| > (1 - 3/2^n) 2^r and n >= 3; outside both conditions the measured
    ranks are reported without asserting.
    """
    inside = hyperplane_intersection(E, gamma)
    condition = _reconcile_condition(E, n)
    rank_full = matroid_rank(E)
    rank_inter = matroid_rank(inside)
    if condition is not None and not (rank_full == E.rank and rank_inter == E.rank - 1):
        raise InternalInconsistencyError(
            f"rank reconciliation failed on {E.to_compact()}: "
            f"r(M)={rank_full}, r(E∩H)={rank_inter}"
        )
    return ReconcileReport(
        condition=condition,
        matroid_rank_full=rank_full,
        matroid_rank_intersection=rank_inter,
        asserted=condition is not None,
    )


def _reconcile_condition(E: PointSet, n: int) -> Optional[str]:
    """Which condition asserts the rank reconciliation: "size" when
    |E| >= (3/4) 2^r, else "free-dense" when n >= 3 and E meets Theorem
    1.1's hypotheses at level n, else None."""
    size_cond = 4 * E.size >= 3 * (1 << E.rank)
    free_dense_cond = n >= 3 and E.rank >= n and _dense_free(E, n)
    return "size" if size_cond else ("free-dense" if free_dense_cond else None)


def _cone_identity_holds(E: PointSet, cone_size_total: int) -> bool:
    """The cone identity: the cone sizes |E_p| over all p in E sum to T, the
    ordered triangle count, since each ordered triangle (p, x, p ^ x) puts x
    in the cone at p.  T is the spectral count: the cone sizes are formed
    by translation, as the naive count is, so it is the independent one."""
    return cone_size_total == triangle_count_spectral(E)
