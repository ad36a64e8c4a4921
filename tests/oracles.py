"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and self-contained: no imports from
the package under test, so each oracle stays independent of the code path
it checks.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def popcount_parity(x: int) -> int:
    return x.bit_count() & 1


def span_points(pts) -> frozenset[int]:
    """Nonzero words in the GF(2) span of the given words."""
    words = {0}
    for p in pts:
        if p not in words:
            words |= {w ^ p for w in words}
    return frozenset(words - {0})


def all_flats(r: int) -> list[frozenset[int]]:
    """Every flat of the rank-r geometry as a frozenset of points."""
    points = range(1, 1 << r)
    flats = {frozenset()}
    frontier = {frozenset()}
    while frontier:
        grown = set()
        for f in frontier:
            for p in points:
                if p not in f:
                    g = span_points(set(f) | {p})
                    if g not in flats:
                        grown.add(g)
        flats |= grown
        frontier = grown
    return sorted(flats, key=lambda f: (len(f), sorted(f)))


def flat_rank(f: frozenset[int]) -> int:
    return (len(f) + 1).bit_length() - 1


def brute_is_pg_free(point_words, r: int, n: int) -> bool:
    """True iff no rank-n flat has all its points inside the set."""
    pts = set(point_words)
    for f in all_flats(r):
        if flat_rank(f) == n and f <= pts:
            return False
    return True


def brute_chi(point_words, r: int) -> int:
    """Minimum corank of a flat disjoint from the set."""
    pts = set(point_words)
    best = 0
    for f in all_flats(r):
        if not (f & pts):
            best = max(best, flat_rank(f))
    return r - best


def brute_triangle_count(point_words) -> int:
    """Ordered triples (x, y, z) with x ^ y ^ z == 0, by full triple loop."""
    pts = list(point_words)
    count = 0
    for x in pts:
        for y in pts:
            for z in pts:
                if x ^ y ^ z == 0:
                    count += 1
    return count


def loop_triangle_count(point_words, r: int) -> int:
    """Ordered triples (x, y, z) with x ^ y ^ z == 0, by the per-point loop
    of numpy gathers: for each point x, the points y with x ^ y in the set."""
    arr = np.array(sorted(point_words), dtype=np.int64)
    mem = np.zeros(1 << r, dtype=bool)
    mem[arr] = True
    total = 0
    for x in arr:
        total += int(np.count_nonzero(mem[arr ^ x]))
    return total


def brute_cone(point_words, p: int, r: int) -> set[int]:
    """Cone at p by enumerating the lines of the geometry through p."""
    pts = set(point_words)
    cone = set()
    for x in range(1, 1 << r):
        if x == p:
            continue
        y = x ^ p
        if x in pts and y in pts:
            cone.add(x)
            cone.add(y)
    return cone


def direct_walsh(point_words, r: int) -> list[int]:
    """Fourier coefficients of the indicator by the defining double loop."""
    pts = list(point_words)
    out = []
    for gamma in range(1 << r):
        acc = 0
        for y in pts:
            acc += -1 if popcount_parity(y & gamma) else 1
        out.append(acc)
    return out


def brute_epsilon_min_num(point_words, r: int) -> int:
    """Numerator (over 2^r) of the least uniformity bound, via hyperplanes."""
    pts = list(point_words)
    size = len(pts)
    worst = 0
    for gamma in range(1, 1 << r):
        inside = sum(1 for x in pts if popcount_parity(x & gamma) == 0)
        worst = max(worst, abs(2 * inside - size))
    return worst


def qbinom_recurrence(n: int, k: int) -> int:
    """Gaussian binomial via the Pascal-type recurrence (independent of the
    product formula in the package)."""
    if k < 0 or k > n:
        return 0
    table = [[0] * (k + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = table[i - 1][j - 1] + (1 << j) * table[i - 1][j]
    return table[n][k]


def random_subset_words(rng, r: int, density=0.5) -> list[int]:
    return [w for w in range(1, 1 << r) if rng.random() < density]


def complete_graph_edges(k: int) -> list[tuple[int, int]]:
    return list(combinations(range(k), 2))


def dfs_least_generators(point_words, n: int):
    """Canonically least generating tuple of a rank-n flat inside the set,
    or None: the plain depth-first search over ascending words."""
    pts = sorted(point_words)
    bits = 0
    for w in pts:
        bits |= 1 << w
    gens: list[int] = []

    def dfs(span_pts: list[int], span_set: frozenset[int], start: int) -> bool:
        if len(gens) == n:
            return True
        for i in range(start, len(pts)):
            p = pts[i]
            if p in span_set:
                continue
            for s in span_pts:
                if not (bits >> (s ^ p)) & 1:
                    break
            else:
                gens.append(p)
                layer = [p] + [s ^ p for s in span_pts]
                if dfs(span_pts + layer, span_set | frozenset(layer), i + 1):
                    return True
                gens.pop()
        return False

    if dfs([], frozenset(), 0):
        return tuple(gens)
    return None
