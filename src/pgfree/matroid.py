"""Point-set representations and the matroid they induce.

A set E inside the rank-r geometry represents the simple binary matroid
obtained by restricting the geometry to E.  This module measures that
matroid: its rank, whether it contains a projective subgeometry of a given
rank (with a witness), its triangle count by summing |E ∩ (E + x)| over the
points x (independently of the Fourier transform), and its critical number
(the least corank of a flat of the ambient geometry disjoint from E).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import GeometryError, HypothesisError
from .geometry import Flat, closure, echelon_basis, kernel_basis, rank_of
from .pointset import PointSet, memoized, pointset_from_words


@memoized
def matroid_rank(E: PointSet) -> int:
    """Rank of the represented matroid: GF(2) rank of the points of E."""
    return rank_of(E)


@dataclass(frozen=True)
class FreenessWitness:
    """Outcome of a subgeometry search: found=True means E contains a copy."""

    found: bool
    subspace: Optional[Flat]

    def to_json_obj(self) -> dict:
        return {
            "found": self.found,
            "witness_basis": list(self.subspace.basis) if self.subspace else None,
        }


# Below this many remaining candidates the last two generators are found by
# the Python loop; above it by the blocked pair search.
_PAIR_SEARCH_CUTOFF = 64
# Elements of one a ^ K block in the pair search, and words of one gather block
# in the triangle count: bounds their memory at any rank.
_PAIR_BLOCK_ELEMENTS = 1 << 14


def is_pg_free(E: PointSet, n: int) -> FreenessWitness:
    """Search E for a rank-n subspace all of whose points lie in E.

    found=False iff no such subspace exists, i.e. E is PG(n-1,2)-free.
    The witness is the canonically least generating tuple g_1 < ... < g_n
    of points of E, each g_i outside the span S of the earlier ones with
    g_i ^ s in E for every s in S.  A DFS in ascending word order fixes
    the first n-2 generators; the last two are the least pair a < b found
    by ``_least_pair`` (see there).  The answer is remembered in E.memo,
    once per n.
    """
    if n < 1:
        raise GeometryError("subgeometry rank must be >= 1")
    memo = E.memo
    if n not in memo:
        memo[n] = _search_subgeometry(E, n)
    return memo[n]


def _search_subgeometry(E: PointSet, n: int) -> FreenessWitness:
    if n > E.rank or E.size < (1 << n) - 1:
        return FreenessWitness(False, None)
    bits = E.bits
    pts = E.points
    gens: list[int] = []

    def dfs(span_pts: list[int], span_set: frozenset[int], start: int) -> bool:
        if len(gens) == n:
            return True
        if len(gens) == n - 2 and len(pts) - start > _PAIR_SEARCH_CUTOFF:
            pair = _least_pair(E, span_pts, start)
            if pair is None:
                return False
            gens.extend(pair)
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
        return FreenessWitness(True, closure(E.rank, gens))
    return FreenessWitness(False, None)


def _least_pair(E: PointSet, span_pts: list[int], start: int) -> Optional[tuple[int, int]]:
    """Lexicographically least pair a < b completing the span S = span_pts.

    Both lie in the iterated cone K = {y in E[start:] : y ^ s in E for all
    s in S}, and a ^ b and every a ^ b ^ s lie in E.  Those are exactly the
    DFS conditions for the last two generators, so the least such pair is
    the pair the DFS finds first: that a and b lie outside the spans of S
    and S + a needs no test, since a in S, b in S or b = a ^ s would put 0
    in E.  For n = 3 this is the cone lemma: apex x has a witness iff the
    cone of E at x, above x, holds a pair whose sum lies in the cone.

    The table a ^ K is evaluated in row blocks, earliest rows first, that
    double from one row up to _PAIR_BLOCK_ELEMENTS entries (one row wider
    than that is split into column chunks), stopping at the first hit.
    """
    mem = E.membership
    cands = E.points_array[start:]
    for s in span_pts:
        cands = cands[mem[cands ^ np.int64(s)]]
    k = int(cands.size)
    i0, rows = 0, 1
    while i0 < k - 1:
        i1 = min(i0 + rows, k - 1)
        a = cands[i0:i1, None]
        for j0 in range(i0 + 1, k, _PAIR_BLOCK_ELEMENTS):
            j1 = min(j0 + _PAIR_BLOCK_ELEMENTS, k)
            x = a ^ cands[None, j0:j1]
            hit = mem[x]
            for s in span_pts:
                hit &= mem[x ^ np.int64(s)]
            hit &= np.arange(j0, j1) > np.arange(i0, i1)[:, None]
            first = int(hit.argmax())
            if hit.flat[first]:
                row, col = divmod(first, j1 - j0)
                return int(cands[i0 + row]), int(cands[j0 + col])
        i0 = i1
        rows = max(1, min(2 * rows, _PAIR_BLOCK_ELEMENTS // max(1, k - 1 - i0)))
    return None


def _dense(E: PointSet, n: int) -> bool:
    """The density hypothesis of Theorem 1.1 at level n: |E| > (1 - 3/2^n) 2^r."""
    return E.denser_than((1 << n) - 3, 1 << n)


def _dense_free(E: PointSet, n: int) -> bool:
    """Theorem 1.1's hypotheses at level n: E is dense and PG(n-1,2)-free."""
    return _dense(E, n) and not is_pg_free(E, n).found


# Below this many points the triangle count's Python pair loop is cheaper
# than the translation kernel's fixed cost; near 28 points the two are equal.
_NAIVE_PYTHON_CUTOFF = 28
# Butterfly stage s of ``_xor_permutations`` swaps adjacent 2^s-bit blocks.
_SWAP_MASKS = tuple(
    np.uint64(m)
    for m in (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x00FF00FF00FF00FF,
        0x0000FFFF0000FFFF,
        0x00000000FFFFFFFF,
    )
)


@memoized
def triangle_count_naive(E: PointSet) -> int:
    """Ordered triples (x, y, z) in E^3 with x ^ y ^ z = 0, by translation.

    For every ordered pair of points the third point is forced, so the
    count is T = sum over x in E of |E ∩ (E + x)|; the x = y diagonal
    contributes nothing since 0 is never a point.  No Fourier transform is
    involved, so this count cross-checks ``triangle_count_spectral``.

    Small sets count the pairs in a Python loop.  Larger sets work on the
    bitset as little-endian 64-bit words W: bit b of word j of E + x is bit
    b ^ (x & 63) of word j ^ (x >> 6) of W, so each translate is a gather
    from the 64 in-word XOR permutations of W, ANDed with W and summed by
    popcount.  The permutation table takes 8 * 2^r bytes, as much as one
    int64 transform table; the gather runs in blocks of at most
    _PAIR_BLOCK_ELEMENTS words, so its memory is bounded at any rank.
    """
    m = E.size
    if m < 3:
        return 0
    if m < _NAIVE_PYTHON_CUTOFF:
        pts = E.points
        bits = E.bits
        t = 0
        for i in range(m):
            x = pts[i]
            for j in range(i + 1, m):
                if (bits >> (x ^ pts[j])) & 1:
                    t += 1
        return 2 * t
    nw = max(1, (1 << E.rank) >> 6)
    words = np.frombuffer(E.bits.to_bytes(8 * nw, "little"), dtype="<u8")
    perms = _xor_permutations(words).ravel()
    arr = E.points_array
    # word j of E + x is perms[key(x) ^ j], since nw is a power of two
    key = (arr & 63) * nw | (arr >> 6)
    rows = max(1, _PAIR_BLOCK_ELEMENTS // nw)
    cols = min(nw, _PAIR_BLOCK_ELEMENTS)
    total = 0
    for j0 in range(0, nw, cols):
        j = np.arange(j0, min(j0 + cols, nw))
        w = words[j0:j0 + cols]
        for i0 in range(0, m, rows):
            block = perms[key[i0:i0 + rows, None] ^ j]
            block &= w
            total += int(np.bitwise_count(block).sum())
    return total


def _xor_permutations(words: np.ndarray) -> np.ndarray:
    """Row l holds the words with bit b of each moved to bit b ^ l (l < 64).

    Built in 6 butterfly stages: stage s fills rows 2^s .. 2^(s+1) - 1 by
    swapping the adjacent 2^s-bit blocks of rows 0 .. 2^s - 1.
    """
    perms = np.empty((64, words.size), dtype=np.uint64)
    perms[0] = words
    for s, mask in enumerate(_SWAP_MASKS):
        h = 1 << s
        shift = np.uint64(h)
        lo, hi = perms[:h], perms[h:2 * h]
        np.right_shift(lo, shift, out=hi)
        hi &= mask
        moved = lo & mask
        moved <<= shift
        hi |= moved
    return perms


def _parity(words: np.ndarray, gamma: int) -> np.ndarray:
    """Dot product of each word with gamma, as a uint8 array of 0s and 1s."""
    return np.bitwise_count(words & np.int64(gamma)) & 1


def _quotient_by_support(E: PointSet, support_basis: tuple[int, ...]) -> PointSet:
    """Re-coordinatize E along independent dual functionals.

    When the Fourier support of the indicator spans only d < r dimensions,
    E is a union of cosets of the orthogonal (r-d)-dimensional stabilizer
    subspace; the image of E under the functionals is a rank-d set with
    the same critical number.
    """
    return _image(E.points_array, support_basis)


def _image(words: np.ndarray, functionals) -> PointSet:
    """The rank-d set of the words' coordinates under d independent functionals."""
    new = np.zeros(words.shape, dtype=np.int64)
    for i, g in enumerate(functionals):
        new |= _parity(words, g).astype(np.int64) << i
    return pointset_from_words(len(functionals), new)


def max_flat_rank_inside(C: PointSet) -> int:
    """Largest rank of a flat all of whose points lie in C.

    Depth-first search over canonical basis towers: each flat is reached
    exactly once by always extending with the minimum point of the new
    coset layer.  A branch is cut when the remaining candidate pool cannot
    supply enough coset minima to beat the incumbent.
    """
    if C.size == 0:
        return 0
    mem = C.membership
    best = 0

    def dfs(span_pts: list[int], cands: np.ndarray, depth: int) -> None:
        nonlocal best
        if depth > best:
            best = depth
        while cands.size:
            if depth + (int(cands.size) + 1).bit_length() - 1 <= best:
                return
            q = int(cands[0])
            cands = cands[1:]
            layer = [q] + [q ^ s for s in span_pts]
            child = cands
            for t in layer:
                if child.size == 0:
                    break
                x = child ^ np.int64(t)
                child = child[mem[x] & (x > child)]
            dfs(span_pts + layer, child, depth + 1)

    dfs([], C.points_array, 0)
    return best


@memoized
def critical_number(E: PointSet) -> int:
    """Least corank of a flat of the ambient geometry disjoint from E.

    Computed as r minus the maximum rank of a flat inside the complement,
    after first quotienting out the stabilizer subspace of E (read off the
    Fourier support) so that structured sets collapse to a small ambient.
    """
    if E.size == 0:
        return 0
    from .spectral import walsh_hadamard

    spec = walsh_hadamard(E)
    support = (np.nonzero(spec.coeffs[1:])[0] + 1).tolist()
    support_basis = echelon_basis(int(g) for g in support)
    if len(support_basis) < E.rank:
        E = _quotient_by_support(E, support_basis)
    return E.rank - max_flat_rank_inside(E.complement())


def check_corollary_1_3(E: PointSet, n: int) -> bool:
    """For PG(n-1,2)-free E denser than (1 - 3/2^n) 2^r: is chi in {n-1, n}?

    Raises HypothesisError naming the failing hypothesis otherwise.
    """
    if n < 2 or E.rank < n:
        raise HypothesisError(f"requires r >= n >= 2, got r={E.rank}, n={n}")
    witness = is_pg_free(E, n)
    if witness.found:
        raise HypothesisError(f"E is not PG({n - 1},2)-free", witness=witness.subspace)
    if not _dense(E, n):
        threshold = ((1 << n) - 3) << (E.rank - n)
        raise HypothesisError(f"|E| = {E.size} is not above the density threshold {threshold}")
    return critical_number(E) in (n - 1, n)


@dataclass(frozen=True)
class CoordinateMap:
    """Invertible re-coordinatization of a flat onto a fresh small ambient.

    Coordinates in the subspace are the coefficients over the flat's
    canonical basis; since that basis is reduced-echelon, coefficient i of
    a member word is simply its bit at the i-th pivot.
    """

    flat: Flat

    def project(self, word: int) -> int:
        """Parent word (must lie in the flat) -> subspace word."""
        sub = 0
        for i, p in enumerate(self.flat.pivots):
            if (word >> p) & 1:
                sub |= 1 << i
        return sub

    def lift(self, sub_word: int) -> int:
        """Subspace word -> parent word."""
        w = 0
        for i, b in enumerate(self.flat.basis):
            if (sub_word >> i) & 1:
                w ^= b
        return w

    def lift_flat(self, sub_flat: Flat) -> Flat:
        if sub_flat.ambient_rank != self.flat.rank:
            raise GeometryError("flat does not live in the restricted ambient")
        return closure(self.flat.ambient_rank, [self.lift(v) for v in sub_flat.basis])

    def lift_points(self, sub: PointSet) -> PointSet:
        if sub.rank != self.flat.rank:
            raise GeometryError("point set does not live in the restricted ambient")
        return PointSet.from_points(self.flat.ambient_rank, [self.lift(w) for w in sub])


def restrict_to_flat(E: PointSet, f: Flat) -> tuple[PointSet, CoordinateMap]:
    """Re-coordinatize E ∩ f into an ambient of rank f.rank.

    Returns the restricted set together with the map that lifts witnesses
    back to the original ambient.
    """
    if f.rank < 1:
        raise GeometryError("restriction requires a flat of rank >= 1")
    if f.ambient_rank != E.rank:
        raise GeometryError("flat and point set live in different ambients")
    arr = E.points_array
    keep = np.ones(arr.shape, dtype=bool)
    for g in kernel_basis(f.ambient_rank, f.basis):
        keep &= _parity(arr, g) == 0
    # coordinate i of a member is its bit at the i-th pivot (see CoordinateMap)
    return _image(arr[keep], [1 << p for p in f.pivots]), CoordinateMap(f)


@dataclass(frozen=True)
class AnalysisReport:
    """One-stop exact summary of a point set."""

    size: int
    matroid_rank: int
    density: Fraction
    pg_freeness: dict[int, FreenessWitness]
    critical_number: int
    triangle_count_ordered: int
    epsilon_min: Fraction
    flat_search: Optional[object]  # (level, StructureResult) when computed
    degenerate: bool

    def to_json_obj(self) -> dict:
        from . import FORMAT_VERSION, __version__

        flat_search = None
        if self.flat_search is not None:
            level, result = self.flat_search
            flat_search = {"level": level, **result.to_json_obj()}
        return {
            "format_version": FORMAT_VERSION,
            "library_version": __version__,
            "size": self.size,
            "matroid_rank": self.matroid_rank,
            "density": {"num": self.density.numerator, "den": self.density.denominator},
            "pg_freeness": {str(n): w.to_json_obj() for n, w in sorted(self.pg_freeness.items())},
            "critical_number": self.critical_number,
            "triangle_count_ordered": self.triangle_count_ordered,
            "epsilon_min": {
                "num": self.epsilon_min.numerator,
                "den": self.epsilon_min.denominator,
            },
            "flat_search": flat_search,
            "degenerate": self.degenerate,
        }
