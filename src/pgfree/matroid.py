"""Point-set representations and the matroid they induce.

A set E inside the rank-r geometry represents the simple binary matroid
obtained by restricting the geometry to E.  This module measures that
matroid: its rank, whether it contains a projective subgeometry of a given
rank (with a witness), its triangle count by intersecting E with its
translates E + x, each triangle counted once from its least point
(independently of the Fourier transform; in the one-word ambient, r <= 6,
for a block of sets at once), and its critical number (the
least corank of a flat of the ambient geometry disjoint from E).

Every search for a flat inside a set is one walk of the iterated cone,
``_walk``: once generators g_1 < ... < g_d with span S are fixed, a point
extends them to a flat inside E iff it lies in E_S, the intersection of
E + s over s in S and s = 0.  E_S is a bitset, and g_{d+1} = q takes it
to E_S ∩ (E_S + q), one ``xor_translate``.  The walk tries only the least
point of each coset of S above g_d, read off a pool bitset in ascending
order, and cuts a branch with too few of them left to finish a flat.  It
yields every flat of the asked rank inside the set once, as its least
generating tuple: ``is_pg_free`` takes the first flat inside E, the
critical number asks for flats inside the complement, and over the whole
ambient the walk lists every flat, for the table below and the exhaustive
flat search of ``search``.

In an ambient of rank r <= 6 the whole geometry is one 64-bit word, and the
subgeometry search is one lookup in a table of all rank-n flats, built once
per (r, n) in the walk's order of least generating tuples.  Above, at
n = 2 and 3, the least point's subtree is searched first, and when it
holds no flat the memoized triangle counts may prove that none exists: a
set with no triangle is free at n = 2, and a set that meets some
hyperplane in a triangle-free set is fano-free, since a fano meets every
hyperplane in at least a line.  By Theorem 4.1 every fano-free set of more
than (5/8) 2^r points has such a hyperplane, so a dense free set is
settled with no walk past its least point.  Otherwise the walk fixes every
generator itself.  Only the choice of g_{n-2} out of a large pool is
helped: by the cone lemma, an apex x completes the span S iff the cone of
E_S at x holds a pair, which a batched kernel tests for a block of pool
points at once on the 64-bit words of E_S, translated by gathers from
their 64 in-word XOR permutations as in the triangle count.  The walk
skips to the least pool point with a hit and completes it.  The witness
keeps the generators and spans its flat only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import GeometryError, HypothesisError
from .geometry import Flat, closure, echelon_basis, kernel_basis, rank_of
from .pointset import SMALL_SET_POINTS, PointSet, coordinate_masks, memoized, xor_translate
from .pointset import pointset_from_mask, pointset_from_words
from .spectral import triangle_counts_per_hyperplane, walsh_hadamard


@memoized
def matroid_rank(E: PointSet) -> int:
    """Rank of the represented matroid: GF(2) rank of the points of E.

    A set holding a word of each bit length spans the ambient (see
    ``_spans_by_bit_lengths``); any other set is eliminated by ``rank_of``,
    which stops once r of its words are independent.
    """
    return E.rank if _spans_by_bit_lengths(E) else rank_of(E, E.rank)


def _spans_by_bit_lengths(E: PointSet) -> bool:
    """Whether E holds a word of each bit length 1..r.

    Words whose highest set bits differ are independent, so r such words
    span GF(2)^r.  A spanning set without them gets False: this only
    certifies full rank.  The words of bit length k + 1 are bits 2^k to
    2^(k+1) - 1 of the bitset, tested from the top down as it is halved,
    so no array of the words is built.
    """
    bits = E.bits
    for k in range(E.rank - 1, -1, -1):
        if not bits >> (1 << k):
            return False
        bits &= (1 << (1 << k)) - 1
    return True


@dataclass(frozen=True)
class FreenessWitness:
    """Outcome of a subgeometry search: found=True means E contains a copy.

    ``subspace`` is the witness flat, or None.  A search keeps only the
    witness's generators and spans them with ``closure`` when ``subspace``
    is first read, since most callers only read ``found``.
    """

    found: bool
    subspace: Optional[Flat]

    @classmethod
    def _spanned_by(cls, rank: int, generators: list[int]) -> "FreenessWitness":
        witness = object.__new__(cls)
        object.__setattr__(witness, "found", True)
        object.__setattr__(witness, "_span", (rank, generators))
        return witness

    def __getattr__(self, name: str):
        # reached only for attributes missing from __dict__, as the
        # subspace of a witness from _spanned_by is until it is read
        if name != "subspace":
            raise AttributeError(name)
        flat = closure(*self._span)
        object.__setattr__(self, "subspace", flat)
        return flat

    def to_json_obj(self) -> dict:
        return {
            "found": self.found,
            "witness_basis": list(self.subspace.basis) if self.subspace else None,
        }


# Elements of one apex or pair block in the apex kernel, of one gather
# block in the triangle count, whose levels of more words than this (from
# r = 22) are split into column chunks, and of one chunk of ``_holds_flat``:
# bounds their memory at any rank.
_PAIR_BLOCK_ELEMENTS = 1 << 14


def is_pg_free(E: PointSet, n: int) -> FreenessWitness:
    """Search E for a rank-n subspace all of whose points lie in E.

    found=False iff no such subspace exists, i.e. E is PG(n-1,2)-free.
    The witness is the canonically least generating tuple g_1 < ... < g_n
    of points of E, each g_i outside the span S of the earlier ones with
    g_i ^ s in E for every s in S: at r <= 6 the first row of
    ``_flat_table(r, n)`` whose flat lies inside E, above it the first
    leaf of ``_walk``.  Above r = 6, at n = 2 and 3, freeness may instead
    be proved by E's triangle counts: at n = 3 by a hyperplane that meets
    E in no triangle, since a fano meets every hyperplane in at least a
    line.  By Theorem 4.1 every fano-free set of more than (5/8) 2^r
    points has such a hyperplane.  The answer is remembered in
    E.memo, once per n.  Its flat is spanned from the generators when
    ``subspace`` is first read, not by the search.
    """
    if n < 1:
        raise GeometryError("subgeometry rank must be >= 1")
    memo = E.memo
    if n not in memo:
        memo[n] = _search_subgeometry(E, n)
    return memo[n]


def _search_subgeometry(E: PointSet, n: int) -> FreenessWitness:
    """The least generating tuple of a rank-n flat inside E, as a witness:
    off the table of flats of an ambient of one bitset word (at most
    SMALL_SET_POINTS words), else the first leaf of ``_walk``.  At n = 2
    and 3 the least point's subtree comes first, one cone step: a leaf
    there is the first leaf.  Past it, a set that its memoized triangle
    counts prove free (``_free_by_triangle_counts``: at n = 2 no triangle,
    at n = 3 a hyperplane with none) is free with no walk, and any other
    set is walked without its least point."""
    if n > E.rank or E.size < (1 << n) - 1:
        return FreenessWitness(False, None)
    if (1 << E.rank) <= SMALL_SET_POINTS:
        masks, generators = _flat_table(E.rank, n)
        missing = masks & np.uint64(E.bits ^ 0xFFFFFFFFFFFFFFFF)
        i = int(missing.argmin())
        gens = None if missing[i] else generators[i]
    elif n in (2, 3):
        q = (E.bits & -E.bits).bit_length() - 1
        cone, pool = _cone_step(E.bits, E.bits, q, E.rank)
        if n == 2:
            gens = (q, (pool & -pool).bit_length() - 1) if pool else None
        else:
            leaf = next(_walk(cone, pool, E.rank, 2), None)
            gens = (q, *leaf[0]) if leaf else None
        if gens is None and not _free_by_triangle_counts(E, n):
            gens = next(_walk(E.bits, E.bits ^ 1 << q, E.rank, n), (None,))[0]
    else:
        gens = next(_walk(E.bits, E.bits, E.rank, n), (None,))[0]
    if gens is None:
        return FreenessWitness(False, None)
    return FreenessWitness._spanned_by(E.rank, list(gens))


def _free_by_triangle_counts(E: PointSet, n: int) -> bool:
    """Whether E's memoized triangle counts prove it free at n = 2 or 3:
    at n = 2 E has no triangle, at n = 3 some E ∩ W_gamma, gamma >= 1, has
    none (a fano meets every hyperplane in at least a line)."""
    if n == 2:
        return triangle_count_naive(E) == 0
    return not triangle_counts_per_hyperplane(E)[1:].all()


@lru_cache(maxsize=None)
def _flat_table(r: int, n: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Every rank-n flat of the rank-r ambient, for 2^r <= SMALL_SET_POINTS.

    Row i holds the flat's points as one uint64 mask and its least
    generating tuple, the tuples ascending as the walk lists them, so the
    first row whose flat lies inside E holds the tuple the walk of E finds:
    the least generating tuple over all flats inside E.
    """
    full = (1 << (1 << r)) - 2
    rows = [(gens, full ^ cone) for gens, cone, _ in _walk(full, full, r, n)]
    return np.array([m for _, m in rows], dtype=np.uint64), tuple(g for g, _ in rows)


def _holds_flat(words: np.ndarray, r: int, k: int) -> np.ndarray:
    """Whether each bitset of a uint64 array, a set of the rank-r ambient
    (2^r <= SMALL_SET_POINTS), holds a rank-k flat: whether some row of
    ``_flat_table(r, k)`` has no point outside it.  The sets go in chunks
    of at most ``_PAIR_BLOCK_ELEMENTS`` (set, flat) pairs."""
    masks, _ = _flat_table(r, k)
    held = np.empty(words.size, dtype=bool)
    step = max(1, _PAIR_BLOCK_ELEMENTS // masks.size)
    for i in range(0, words.size, step):
        outside = masks & ~words[i : i + step, None]
        held[i : i + step] = outside.min(axis=1) == 0
    return held


def _walk(cone: int, pool: int, rank: int, d: int):
    """Every rank-d flat inside the set whose bitset is ``cone``, once, as
    its least generating tuple with the cone and the pool of its leaf, the
    tuples ascending.

    A node holds the cone K = E_S of the generators g_1 .. g_k and its
    pool (see ``_cone_step``), and reads the pool's points off its bitset
    in ascending order.  Each later generator of a least generating tuple
    is in a pool, and the pool of a node holds one point of each of the
    2^(d-k) - 1 cosets of S in such a flat from g_{k+1} on: the loop stops
    when fewer are left.  At the node of g_{d-2}, a pool of more than
    SMALL_SET_POINTS points whose least point yields no leaf skips ahead
    to the least apex ``_least_apex`` finds in the rest: the points it
    passes over have no leaf.  Over the whole ambient a leaf's cone is the
    complement of the span, and its pool holds the points q above g_d for
    which (g_1, ..., g_d, q) is again a least generating tuple.
    """
    gens: list[int] = []
    leaves = 0

    def walk(cone: int, pool: int):
        nonlocal leaves
        k = len(gens)
        need = (1 << (d - k)) - 1
        rest, left = pool, pool.bit_count()
        skip, seen = k == d - 3 and left > SMALL_SET_POINTS, leaves
        while left >= need:
            q = (rest & -rest).bit_length() - 1
            gens.append(q)
            if k + 1 < d:
                yield from walk(*_cone_step(cone, pool, q, rank))
            else:
                leaves += 1
                yield tuple(gens), *_cone_step(cone, pool, q, rank)
            gens.pop()
            rest ^= 1 << q
            left -= 1
            if skip and leaves == seen:
                x = _least_apex(cone, rest, rank)
                if x is None:
                    return
                rest = rest >> x << x
                left = rest.bit_count()
            skip = False

    return walk(cone, pool) if d else iter([((), cone, pool)])


def _cone_step(cone: int, pool: int, q: int, rank: int) -> tuple[int, int]:
    """The cone K ∩ (K + q) and its pool once q, a point of K's pool, joins S.

    The pool of K holds its points above the last generator that are the
    least of their coset of S.  Generators from pools have distinct
    highest bits, so a point is the least of its coset of S + q iff it is
    the least of its coset of S and has bit hb(q) clear: the pool's step
    is an AND with K + q and L_hb(q), then the cut at q.
    """
    moved = xor_translate(cone, q, rank)
    low = coordinate_masks(rank)[q.bit_length() - 1]
    return cone & moved, (pool & moved & low) >> (q + 1) << (q + 1)


def _least_apex(cone: int, pool: int, rank: int) -> Optional[int]:
    """Least point x of the pool whose cone C_x = K ∩ (K + x) holds a pair.

    K = E_S is the cone of the walk's node of g_{n-2}.  By the cone lemma
    (Lemma 2.5), x has a completion iff C_x, above x, holds a pair a < b
    with a ^ b in C_x: a nonzero word of C_x ∩ (K + a) ∩ (K + a ^ x) above
    x for some a in it.  So the least such x is the walk's g_{n-2}, and
    the walk's own loop finds g_{n-1} and g_n from it.

    The pool is tested in ascending blocks that double from two apexes, on
    K's bitset words, translated by gathers from their 64 in-word XOR
    permutations.  Apex blocks and the pair rows of their gathers hold at
    most _PAIR_BLOCK_ELEMENTS words (a single row may hold more above rank
    20).
    """
    apexes = PointSet(rank, pool).points_array
    words = PointSet(rank, cone).words()
    perms = _xor_permutations(words).ravel()
    cap = max(1, _PAIR_BLOCK_ELEMENTS // words.size)
    i0, size = 0, min(2, cap)
    while i0 < apexes.size:
        block = apexes[i0:i0 + size]
        hit = _first_apex_with_pair(words, perms, block)
        if hit is not None:
            return int(block[hit])
        i0 += size
        size = min(2 * size, cap)
    return None


def _first_apex_with_pair(words: np.ndarray, perms: np.ndarray, xs: np.ndarray) -> Optional[int]:
    """Index of the least apex of the ascending block xs with a completion.

    words are the bitset of E_S and perms their ravelled XOR permutations.
    Only words from that of xs[0] on can hold a point above an apex.
    """
    nw = words.size
    j = np.arange(int(xs[0]) >> 6, nw)
    xw = (xs >> 6)[:, None]
    above = np.uint64(0xFFFFFFFFFFFFFFFF) << (xs & 63).astype(np.uint64) << np.uint64(1)
    # C_x: E_S ∩ (E_S + x), then only its points b > x
    cones = perms[_translation_keys(xs, nw)[:, None] ^ j]
    cones &= words[j]
    cones[j < xw] = 0
    cones[j == xw] &= above
    bits = cones.astype("<u8", copy=False).view(np.uint8)
    rows, a = np.nonzero(np.unpackbits(bits, axis=1, bitorder="little"))
    a = a.astype(np.int64) + 64 * int(j[0])
    ax = a ^ xs[rows]
    # a and a ^ x complete x with the same points b, so test the lesser
    keep = a < ax
    rows, a, ax = rows[keep], a[keep], ax[keep]
    step = max(1, _PAIR_BLOCK_ELEMENTS // j.size)
    for p0 in range(0, rows.size, step):
        p = slice(p0, p0 + step)
        pair = perms[_translation_keys(a[p], nw)[:, None] ^ j]
        pair &= perms[_translation_keys(ax[p], nw)[:, None] ^ j]
        pair &= cones[rows[p]]
        hit = pair.any(axis=1)
        if hit.any():
            return int(rows[p][hit.argmax()])
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
# Bitset words of the triangle count's base term: its points below 2^9 are
# counted in one gather, and only higher levels are counted per level.
_BASE_WORDS = 8
# Row b shifts a uint64 word right by b bits.
_SHIFTS = np.arange(64, dtype=np.uint64)[:, None]
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
    b ^ (x & 63) of word j ^ (x >> 6) of W, so each translate is read off
    the 64 in-word XOR permutations of W, ANDed with W and summed by
    popcount.  From r = 7 the sum over a range of words closed under
    j -> j ^ (x >> 6) runs over j ^ (x >> 6) instead, so the terms of x are
    whole rows of two tables, gathered with no index per word
    (``_row_gather_popcount``).  The permutation table takes 8 * 2^r bytes,
    as much as one int64 transform table.

    Each triangle {a < b < c} is counted once, from its least point: if t
    is the top bit of c, then b also has bit t and a < 2^t.  So with
    H_k = E ∩ [2^k, 2^(k+1)), T(E) = T(E ∩ [0, 2^k0)) + 3 * sum over
    k >= k0 and points x < 2^k of |H_k ∩ (H_k + x)|.  The base term, for
    k0 = min(r, 9), runs the full gather on the low _BASE_WORDS words (all
    of them at r <= 9), and level k gathers only H_k's words
    [2^(k-6), 2^(k-5)) for the points below 2^k: on a set of even density,
    about a third of the words of the full count.

    A larger set in the one-word ambient (2^r <= ``SMALL_SET_POINTS``) is
    the block kernel ``_translation_counts`` on a block of one.
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
    if (1 << E.rank) <= SMALL_SET_POINTS:
        return _translation_counts([E])[0]
    words = E.words()
    nw = words.size
    perms = _xor_permutations(words)
    xs = E.points_array
    low, high = xs & 63, xs >> 6
    # [:end]: the points below 64 w, the base's points and then the least
    # points of the triangles whose other two lie in words w .. 2w - 1
    w = min(nw, _BASE_WORDS)
    end = xs.searchsorted(64 * w)
    total = _row_gather_popcount(perms, words, low[:end], high[:end], 0, w)
    while w < nw:
        total += 3 * _row_gather_popcount(perms, words, low[:end], high[:end], w, 2 * w)
        w *= 2
        end = xs.searchsorted(64 * w)
    return total


def _cone_tables(sets: list[PointSet]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cones of a block of same-rank sets in the one-word ambient at
    every word x < 2^r: each set is one word W, and row x of the words'
    ``_xor_permutations`` holds its translate W + x.  Column b of the three
    (2^r, B) tables holds, in row x, the bitset of the cone
    W_b ∩ (W_b + x), its size (int64) and whether x is a point of set b,
    an apex."""
    words = np.fromiter((e.bits for e in sets), dtype=np.uint64, count=len(sets))
    n = 1 << sets[0].rank
    cones = _xor_permutations(words, n)
    cones &= words
    apexes = (words >> _SHIFTS[:n] & np.uint64(1)).astype(bool)
    return cones, np.bitwise_count(cones).astype(np.int64), apexes


def _translation_counts(sets: list[PointSet]) -> list[int]:
    """T of each of a block of same-rank sets in the one-word ambient, by
    translation: the sum of its cone sizes over its points, from
    ``_cone_tables``.  No Fourier transform is involved."""
    _, sizes, apexes = _cone_tables(sets)
    return np.sum(sizes, axis=0, where=apexes).tolist()


def _block_triangle_counts(sets: list[PointSet]) -> None:
    """Keep ``_translation_counts`` of each set of a block of same-rank
    one-word sets whose memo lacks it, where ``triangle_count_naive``
    reads it."""
    todo = [e for e in sets if "triangle_count_naive" not in e.memo]
    if todo:
        for e, t in zip(todo, _translation_counts(todo)):
            e.memo["triangle_count_naive"] = t


def _row_gather_popcount(perms: np.ndarray, words: np.ndarray, low: np.ndarray, high: np.ndarray,
                         j0: int, j1: int) -> int:
    """Sum over the points y = 64 high + low, ascending, of |W ∩ (W + y)| on
    words j0 .. j1 - 1.

    Each j ^ (y >> 6) must stay in that range, so the sum may run over
    j ^ (y >> 6) in place of j: word j of the term of y is then
    perms[y & 63, j] & wx[y >> 6, j], with wx[h, j] = W[j ^ h], and both
    are whole rows, gathered by ``take`` with no index per word.  The words
    go in column chunks of cols <= _PAIR_BLOCK_ELEMENTS words; in each, wx
    is built for rows = _PAIR_BLOCK_ELEMENTS // cols values of h at a time,
    and the points with those h are gathered rows at a time, so every
    temporary holds at most _PAIR_BLOCK_ELEMENTS words at any rank.  A
    block's popcounts sum to at most 64 _PAIR_BLOCK_ELEMENTS = 2^20, so a
    uint32 accumulator cannot wrap, and the blocks' sums add as Python
    integers.
    """
    if not high.size:
        return 0
    cols = min(j1 - j0, _PAIR_BLOCK_ELEMENTS)
    rows = max(1, _PAIR_BLOCK_ELEMENTS // cols)
    top = int(high[-1]) + 1
    starts = range(0, top, rows)
    # the points of each chunk of h run from bounds[i] to bounds[i + 1]
    bounds = [0, high.size] if top <= rows else high.searchsorted(np.arange(0, top + rows, rows)).tolist()
    total = 0
    for c0 in range(j0, j1, cols):
        j = np.arange(c0, min(c0 + cols, j1))
        p = perms[:, c0 : c0 + j.size]
        for h0, i0, i1 in zip(starts, bounds, bounds[1:]):
            if i0 == i1:
                continue
            wx = words[np.arange(h0, min(h0 + rows, int(high[i1 - 1]) + 1))[:, None] ^ j]
            for s0 in range(i0, i1, rows):
                s = slice(s0, min(s0 + rows, i1))
                block = p.take(low[s], axis=0)
                block &= wx.take(high[s] - h0 if h0 else high[s], axis=0)
                total += int(np.bitwise_count(block).sum(dtype=np.uint32))
    return total


def _translation_keys(ys: np.ndarray, nw: int) -> np.ndarray:
    """Word j of the translate W + y of a bitset W of nw words is perms[key(y) ^ j],
    where perms are W's ravelled ``_xor_permutations``: nw is a power of two."""
    return (ys & 63) * nw | (ys >> 6)


def _xor_permutations(words: np.ndarray, rows: int = 64) -> np.ndarray:
    """Row l holds the words with bit b of each moved to bit b ^ l (l < rows,
    a power of two up to 64).

    Built in butterfly stages: stage s fills rows 2^s .. 2^(s+1) - 1 by
    swapping the adjacent 2^s-bit blocks of rows 0 .. 2^s - 1.
    """
    perms = np.empty((rows, words.size), dtype=np.uint64)
    perms[0] = words
    for s, mask in enumerate(_SWAP_MASKS[: rows.bit_length() - 1]):
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


def _image(words: np.ndarray, functionals) -> PointSet:
    """The rank-d set of the words' coordinates under d independent functionals."""
    new = np.zeros(words.shape, dtype=np.int64)
    for i, g in enumerate(functionals):
        new |= _parity(words, g).astype(np.int64) << i
    return pointset_from_words(len(functionals), new)


@memoized
def critical_number(E: PointSet) -> int:
    """Least corank of a flat of the ambient geometry disjoint from E.

    A flat is disjoint from E iff it lies inside the complement C, and the
    flats inside C are closed under taking subflats, so the largest rank
    of one is the last d, counted up from 1, for which
    ``is_pg_free(C, d)`` finds a flat.  First the stabilizer subspace of E
    (read off the Fourier support) is quotiented out, so that structured
    sets collapse to a small ambient.  A support with a word of each bit
    length spans, so nothing is quotiented out and no basis of it is built.
    """
    if E.size == 0:
        return 0
    spec = walsh_hadamard(E)
    nonzero = spec.coeffs != 0
    nonzero[0] = False
    support = pointset_from_mask(E.rank, nonzero)
    if not _spans_by_bit_lengths(support):
        support_basis = echelon_basis(support.points)
        if len(support_basis) < E.rank:
            # E is a union of cosets of the (r-d)-dimensional subspace orthogonal
            # to its d-dimensional support: its rank-d image has the same chi
            E = _image(E.points_array, support_basis)
    C = E.complement()
    d = 0
    while is_pg_free(C, d + 1).found:
        d += 1
    return E.rank - d


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


def restrict_to_flat(E: PointSet, f: Flat) -> PointSet:
    """E ∩ f, re-coordinatized into an ambient of rank f.rank.

    Coordinate i of a member is its coefficient over the i-th word of f's
    reduced-echelon basis, which is simply its bit at the i-th pivot.
    ``lift_flat`` takes a flat of the new ambient back to the old one.
    """
    if f.rank < 1:
        raise GeometryError("restriction requires a flat of rank >= 1")
    if f.ambient_rank != E.rank:
        raise GeometryError("flat and point set live in different ambients")
    arr = E.points_array
    keep = np.ones(arr.shape, dtype=bool)
    for g in kernel_basis(f.ambient_rank, f.basis):
        keep &= _parity(arr, g) == 0
    return _image(arr[keep], [1 << p for p in f.pivots])


def lift_flat(f: Flat, sub_flat: Flat) -> Flat:
    """The flat of f's ambient that ``sub_flat``, a flat in the coordinates
    of ``restrict_to_flat(·, f)``, stands for."""
    if sub_flat.ambient_rank != f.rank:
        raise GeometryError("flat does not live in the restricted ambient")
    words = []
    for v in sub_flat.basis:
        w = 0
        for i, b in enumerate(f.basis):
            if (v >> i) & 1:
                w ^= b
        words.append(w)
    return closure(f.ambient_rank, words)


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
