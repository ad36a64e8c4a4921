"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and self-contained: no imports from
the package under test, so each oracle stays independent of the code path
it checks.
"""

from __future__ import annotations

from functools import lru_cache
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


@lru_cache(maxsize=None)
def all_flats(r: int) -> tuple[frozenset[int], ...]:
    """Every flat of the rank-r geometry as a frozenset of points, built
    once per rank."""
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
    return tuple(sorted(flats, key=lambda f: (len(f), sorted(f))))


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


def reduced_echelon(words) -> tuple[int, ...]:
    """The reduced-echelon basis of the span of the words: each row's pivot
    is its lowest set bit, no other row has that bit, rows sorted by pivot."""
    rows: list[int] = []
    for v in words:
        for row in rows:
            if (v >> (row & -row).bit_length() - 1) & 1:
                v ^= row
        if v:
            low = v & -v
            rows = [row ^ v if row & low else row for row in rows] + [v]
    return tuple(sorted(rows, key=lambda row: row & -row))


def best_triangle_free_flat(point_words, r: int, n: int):
    """(points, |E ∩ K|) of the corank-(n-2) flat K whose intersection with
    the set has no triangle and the most points, ties going to the least
    reduced-echelon basis of K's normals; None if every such flat meets a
    triangle of the set."""
    pts = set(point_words)
    best = None
    for f in all_flats(r):
        if flat_rank(f) != r - n + 2:
            continue
        inter = f & pts
        if any(x ^ y in inter for x in inter for y in inter):
            continue
        normals = [g for g in range(1, 1 << r) if all(popcount_parity(g & x) == 0 for x in f)]
        key = (-len(inter), reduced_echelon(normals))
        if best is None or key < best[0]:
            best = (key, f)
    return None if best is None else (best[1], -best[0][0])


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


def copying_fwht(a: np.ndarray) -> np.ndarray:
    """The size-doubling butterfly with a copied left half at every stage,
    in place on a; a.size must be a power of two."""
    n = a.size
    h = 1
    while h < n:
        b = a.reshape(-1, 2, h)
        x = b[:, 0, :].copy()
        y = b[:, 1, :]
        b[:, 0, :] = x + y
        b[:, 1, :] = x - y
        h *= 2
    return a


def word_transform(words) -> np.ndarray:
    """The first six butterfly stages on each 64-bit word, one row of 64
    per word: entry u is the sum of (-1)^(u . v) over the bits v of w,
    which is |w| - 2|w & M_u| with M_u the mask of the v < 64 with u . v
    odd."""
    masks = np.array(
        [sum(1 << v for v in range(64) if popcount_parity(u & v)) for u in range(64)],
        dtype=np.uint64,
    )
    w = np.asarray(words, dtype=np.uint64)
    return np.bitwise_count(w)[:, None].astype(np.int64) - 2 * np.bitwise_count(w[:, None] & masks)


def python_cube_sum(coeffs: np.ndarray) -> int:
    """Sum of cubed coefficients accumulated in Python integers."""
    return sum(v * v * v for v in coeffs.tolist())


def brute_epsilon_min_num(point_words, r: int) -> int:
    """Numerator (over 2^r) of the least uniformity bound, via hyperplanes."""
    pts = list(point_words)
    size = len(pts)
    worst = 0
    for gamma in range(1, 1 << r):
        inside = sum(1 for x in pts if popcount_parity(x & gamma) == 0)
        worst = max(worst, abs(2 * inside - size))
    return worst


def definition_tables(bitsets, r: int, chunk: int = 256):
    """For sets of rank r <= 6 given as bitsets, straight from the
    definitions: each set's Walsh coefficients (its indicator times the
    table of (-1)^(y . gamma)), its ordered triangle count (the triples
    (x, y, x ^ y) inside it, enumerated), and the ordered triangle count
    of each hyperplane intersection E ∩ W_gamma (those triples with x and y
    in W_gamma).  Returns three arrays with one row per set, computed
    ``chunk`` sets at a time to bound memory."""
    n = 1 << r
    signs = np.array(
        [[-1 if popcount_parity(y & g) else 1 for g in range(n)] for y in range(n)],
        dtype=np.int64,
    )
    in_w = np.array(
        [[popcount_parity(x & g) == 0 for x in range(n)] for g in range(n)], dtype=np.int64
    )
    xor = np.array([[x ^ y for y in range(n)] for x in range(n)])
    coeffs, counts, per_hyperplane = [], [], []
    for i in range(0, len(bitsets), chunk):
        member = np.array(
            [[(b >> y) & 1 for y in range(n)] for b in bitsets[i : i + chunk]], dtype=np.int64
        ).reshape(-1, n)
        triples = member[:, :, None] * member[:, None, :] * member[:, xor]
        coeffs.append(member @ signs)
        counts.append(triples.sum(axis=(1, 2)))
        per_hyperplane.append(((triples @ in_w.T) * in_w.T[None]).sum(axis=1))
    return np.concatenate(coeffs), np.concatenate(counts), np.concatenate(per_hyperplane)


def cone_lemma_tables(bitsets, r: int, n: int, chunk: int = 16):
    """For sets of rank r <= 6 given as bitsets, straight from the
    definitions: each set's cone sizes |{x in E : x ^ p in E}| at every
    word p (a (B, 2^r) array), whether it holds a rank-n flat of
    ``all_flats`` (a (B,) array), and whether its cone at each word p holds
    a rank-(n-1) flat (a (B, 2^r) array).  Computed ``chunk`` sets at a
    time to bound memory."""
    size = 1 << r
    xor = np.array([[x ^ p for x in range(size)] for p in range(size)])

    def incidence(k):
        flats = [f for f in all_flats(r) if flat_rank(f) == k]
        return np.array([[x in f for x in range(size)] for f in flats], dtype=np.int64).T, (1 << k) - 1

    flats_n, points_n = incidence(n)
    flats_k, points_k = incidence(n - 1)
    sizes, holds, cone_holds = [], [], []
    for i in range(0, len(bitsets), chunk):
        member = np.array(
            [[(b >> y) & 1 for y in range(size)] for b in bitsets[i : i + chunk]], dtype=np.int64
        ).reshape(-1, size)
        cones = member[:, None, :] * member[:, xor]  # [set, p, x]: x and x ^ p in E
        sizes.append(cones.sum(axis=2))
        holds.append((member @ flats_n == points_n).any(axis=1))
        cone_holds.append((cones @ flats_k == points_k).any(axis=2))
    return np.concatenate(sizes), np.concatenate(holds), np.concatenate(cone_holds)


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
