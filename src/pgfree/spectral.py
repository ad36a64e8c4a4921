"""Exact integer Fourier analysis over GF(2)^r.

The transform of the indicator of a point set E is
coeff(gamma) = sum over words y in E of (-1)^(y . gamma), computed for all
2^r characters at once.  All arithmetic is integer-exact.  A table of at
most ``SMALL_SET_POINTS`` (64) entries, the one-word ambient r <= 6, is
one int64 product with a leading block of the Sylvester matrix H_64:
there numpy's fixed cost per call, not arithmetic, sets the time, and one
product of at most 64 x 64 costs less than the butterfly's handful of
calls per stage.  Larger tables run the size-doubling butterfly, whose
stages cost O(1) per entry against the product's O(k).  Its six narrowest
stages (widths 1 to 32) are read off the bitset's 64-bit words by
popcounts, so no indicator array is built.  The wider stages run in
place, two per pass (radix 4): first every stage narrower than a
cache-sized block of ``_BLOCK`` entries, one block at a time, then the
rest over the whole table, with one plain stage when a group's count is
odd.  numpy runs a strided view whose rows are shorter than about 4096
entries through its buffered iterator, several times slower per entry,
so the narrow stages cost mostly per pass; a pass's temporaries are
pieces of at most a quarter block, so they stay small at every width.
The butterfly runs in int32, because every value it forms is bounded by
2|E| < 2^25, and the spectrum is kept as int64.  A cube sum, up to 2^72,
is two int64 dots per chunk that never wrap (see ``_exact_cube_sum``).
The triangle counts of all 2^r hyperplane intersections come from two
more transforms over E's cone sizes, all below 2^51 (see
``triangle_counts_per_hyperplane``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import HypothesisError, InternalInconsistencyError
from .pointset import SMALL_SET_POINTS, PointSet, memoized

# Entries per cache-sized block: 256 KiB of int32, 512 KiB of int64.
_BLOCK = 1 << 16
# Entries per chunk of the cube sum: 2^14 products of at most 2^48 sum to at most 2^62.
_CUBE_CHUNK = 1 << 14

# _ODD[u, v] is 1 iff u . v is odd (u, v < 64): where character u is
# negative on the 64 words that one bitset word holds.  Bit v of
# _WORD_MASKS[u] is _ODD[u, v], and _SYLVESTER[u, v] = (-1)^(u . v) is the
# Sylvester matrix H_64, whose leading k x k block is H_k for every power
# of two k.
_ODD = np.bitwise_count(np.bitwise_and.outer(np.arange(64), np.arange(64))) & 1
_WORD_MASKS = np.packbits(_ODD, axis=1, bitorder="little").view("<u8")[:, 0]
_SYLVESTER = 1 - 2 * _ODD.astype(np.int64)


def _butterfly(a: np.ndarray, h: int) -> None:
    """The stage of width h, in place: (x, y) -> (x + y, x - y)."""
    b = a.reshape(-1, 2, h)
    x = b[:, 0, :]
    y = b[:, 1, :]
    x += y
    y *= -2
    y += x


def _radix4(a: np.ndarray, h: int) -> None:
    """The stages of widths h and 2h in one pass, in place.

    Each run of 4h entries holds the quarters p, q, s, t; with
    s0, d0 = p + q, p - q and s1, d1 = s + t, s - t (the stage of width h),
    the stage of width 2h writes s0 + s1, d0 + d1, s0 - s1, d0 - d1.  The
    runs go in pieces of at most a quarter of ``_BLOCK`` entries per
    quarter: whole runs while they are that short, column chunks of one
    run beyond, so the four temporaries stay that small at every width.
    """
    b = a.reshape(-1, 4, h)
    piece = max(_BLOCK >> 2, 1)
    cols = min(h, piece)
    rows = max(piece // h, 1)
    for i in range(0, b.shape[0], rows):
        for j in range(0, h, cols):
            c = b[i : i + rows, :, j : j + cols]
            p, q, s, t = c[:, 0], c[:, 1], c[:, 2], c[:, 3]
            s0, d0, s1, d1 = p + q, p - q, s + t, s - t
            np.add(s0, s1, out=p)
            np.add(d0, d1, out=q)
            np.subtract(s0, s1, out=s)
            np.subtract(d0, d1, out=t)
            # freed before the next piece's four are made
            del s0, d0, s1, d1


def _stages(a: np.ndarray, h: int) -> None:
    """The stages of width h, 2h, ..., a.size/2: radix-4 passes, and one
    plain stage last when their number is odd."""
    n = a.size
    while 4 * h <= n:
        _radix4(a, h)
        h *= 4
    if h < n:
        _butterfly(a, h)


def fwht_inplace(a: np.ndarray, width: int = 1) -> np.ndarray:
    """Walsh–Hadamard transform, in place; a.size must be a power of two.

    Runs the butterfly stages of width ``width``, 2*width, ..., a.size/2,
    so a caller that has already run the narrower stages passes the first
    width left.  From width 1, applying it twice multiplies the input by
    a.size.

    A table of at most ``SMALL_SET_POINTS`` entries runs all those stages
    as one product: with k = a.size / width, they are H_k ⊗ I_width, the
    leading k x k block of ``_SYLVESTER`` applied to a.reshape(k, width).
    Below that size one product costs less than the stages' numpy calls;
    above it the product's k multiply-adds per entry cost more than the
    butterfly.  A larger table runs the stages two at a time, as radix-4
    passes (``_radix4``): those narrower than ``_BLOCK`` entries one block
    at a time, so that each block stays in cache across them, then the
    wider ones over the whole array; when a group has an odd number of
    stages, one plain stage runs its last.  A stage narrower than about
    4096 entries is a strided view of short rows, which numpy sends
    through its buffered iterator at several times the cost per entry of
    a long row, so halving the number of passes over the table saves
    most where those stages are.  A pass's temporaries hold at most a
    quarter of ``_BLOCK`` entries each, at every width.

    After the stage of width h, each entry is a signed sum of 2h input
    entries, so on a 0/1 indicator of a set E every value formed is
    bounded by 2|E| in magnitude: a radix-4 pass forms only stage values,
    bounded by |E|, and a plain stage doubles y before it forms x - y.
    int32 is exact for |E| < 2^30.  The product forms its sums in int64
    and stores them in a's dtype.  Other input wraps like its dtype, so
    the result is exact whenever it fits.
    """
    n = a.size
    if n <= SMALL_SET_POINTS:
        k = n // width
        b = a.reshape(k, width)
        b[...] = _SYLVESTER[:k, :k] @ b
        return a
    block = min(n, _BLOCK)
    if width < block:
        for b in a.reshape(-1, block):
            _stages(b, width)
    _stages(a, max(width, block))
    return a


@dataclass(frozen=True)
class Spectrum:
    """All 2^r Fourier coefficients of an indicator, plus the set size."""

    ambient_rank: int
    coeffs: np.ndarray
    set_size: int

    def __post_init__(self):
        c = self.coeffs
        n = 1 << self.ambient_rank
        if c.shape != (n,):
            raise InternalInconsistencyError("coefficient table has the wrong length")
        if int(c[0]) != self.set_size:
            raise InternalInconsistencyError("coeff at 0 must equal the set size")
        if c.min() < -self.set_size or c.max() > self.set_size:
            raise InternalInconsistencyError("coefficient exceeds the set size in magnitude")
        # Parseval, exactly: sum of squares == 2^r * |E|.  Squares fit int64
        # since the true total is at most 2^48 at the rank cap.
        if int(np.dot(c, c)) != self.set_size << self.ambient_rank:
            raise InternalInconsistencyError("Parseval identity failed")
        c.flags.writeable = False

    def __getitem__(self, gamma: int) -> int:
        return int(self.coeffs[gamma])


@memoized
def walsh_hadamard(E: PointSet) -> Spectrum:
    """Exact transform of the indicator of E over all 2^r characters.

    In the one-word ambient (2^r <= ``SMALL_SET_POINTS``) the set's
    ``membership`` table, widened to int64, goes to ``fwht_inplace``,
    which transforms it by one Sylvester product.  From r = 7 the first
    six stages come from the bitset's little-endian 64-bit words w_j:
    after them, entry 64j + u is the sum of (-1)^(u . v) over the members
    64j + v that w_j holds, which is |w_j| - 2|w_j & M_u| with
    M_u = ``_WORD_MASKS[u]``.
    ``fwht_inplace`` runs the stages from width 64.  The butterfly runs in
    int32, exact since every value it forms is at most 2|E| < 2^25, in
    the upper half of the int64 table that it is then widened into, one
    block at a time, so the two tables never take more than the int64
    one's memory.
    In int64, squares are exact and cubes wrap (see ``_exact_cube_sum``).
    """
    n = 1 << E.rank
    if n <= SMALL_SET_POINTS:
        return Spectrum(E.rank, fwht_inplace(E.membership.astype(np.int64)), E.size)
    words = E.words()
    out = np.empty(n, dtype=np.int64)
    # The int32 table is the upper half of the int64 one.  Widened front to
    # back, int64 entry i covers int32 entries 2i - n and 2i - n + 1, which
    # are at most i and so read by then; taken a block at a time, any
    # temporary numpy makes stays block-sized.
    a = out.view(np.int32)[n:].reshape(-1, 64)
    step = max(_BLOCK >> 6, 1)
    for j in range(0, words.size, step):
        w = words[j : j + step]
        rows = a[j : j + step]
        np.multiply(np.bitwise_count(w[:, None] & _WORD_MASKS), -2, out=rows, dtype=np.int32)
        rows += np.bitwise_count(w)[:, None]
    a = a.reshape(-1)
    fwht_inplace(a, 64)
    for i in range(0, n, _BLOCK):
        out[i : i + _BLOCK] = a[i : i + _BLOCK]
    return Spectrum(E.rank, out, E.size)


def _exact_cube_sum(c: np.ndarray) -> int:
    """sum(c^3) over an int64 array with |c| <= 2^24, exactly, as a Python integer.

    Split c^2 = h 2^24 + l with 0 <= h, l <= 2^24; then
    sum(c^3) = 2^24 sum(c h) + sum(c l).  Over a chunk of ``_CUBE_CHUNK``
    entries each of the two int64 dots is at most 2^14 2^48 = 2^62 in
    magnitude, so neither wraps, and the chunks' dots are added as Python integers.  A
    spectrum of E has |c| <= |E| < 2^24.
    """
    total = 0
    for i in range(0, c.size, _CUBE_CHUNK):
        d = c[i : i + _CUBE_CHUNK]
        sq = d * d
        low = sq & 0xFFFFFF
        sq >>= 24
        total += (int(np.dot(d, sq)) << 24) + int(np.dot(d, low))
    return total


@memoized
def triangle_count_spectral(E: PointSet) -> int:
    """Number of ordered triples in E^3 summing to zero, via the spectrum.

    The triple-convolution identity gives 2^r * T = sum of cubed
    coefficients, summed exactly by ``_exact_cube_sum`` at every rank.
    """
    total = _exact_cube_sum(walsh_hadamard(E).coeffs)
    if total % (1 << E.rank):
        raise InternalInconsistencyError("cube sum is not divisible by 2^r")
    return total >> E.rank


@memoized
def triangle_counts_per_hyperplane(E: PointSet) -> np.ndarray:
    """T(E ∩ W_gamma) for every gamma at once, exactly, at every rank.

    An ordered triangle (x, y, z) of E lies in W_gamma exactly when x and
    y do, since z = x ^ y.  Summing (1 + (-1)^(x.gamma))(1 + (-1)^(y.gamma))/4
    over the triangles, where each of x, y and z = x ^ y meets every word
    of E as often as its cone size d(x) = |E ∩ (E + x)|, gives
    T(E ∩ W_gamma) = (T + 3 A_gamma)/4, with A the transform of d on E
    (zero off E).  A_0 = T, so entry 0 is T of E itself.  d is the
    self-convolution of the indicator, WHT(c^2) / 2^r, read on E through
    its ``membership`` table.

    int64 is exact at every rank: the transform of c^2 forms partial sums
    bounded by 2 sum(c^2) = 2^(r+1) |E|, and that of d ones bounded by
    2 sum(d) = 2T <= 2|E|^2, so with |E| < 2^24 every value formed,
    T + 3A included, stays below 2^51.  The table is remembered per set,
    so it is read-only.
    """
    r = E.rank
    d = fwht_inplace(walsh_hadamard(E).coeffs ** 2)
    # a bitwise OR over the table has a low bit set iff some entry does
    if int(np.bitwise_or.reduce(d)) & ((1 << r) - 1):
        raise InternalInconsistencyError("self-convolution is not divisible by 2^r")
    d >>= r
    d *= E.membership
    a = fwht_inplace(d)
    t = int(a[0])
    a *= 3
    a += t
    if int(np.bitwise_or.reduce(a)) & 3:
        raise InternalInconsistencyError("hyperplane triangle counts are not divisible by 4")
    a >>= 2
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class UniformityReport:
    """Least uniformity bound of a set: how evenly hyperplanes split it."""

    alpha: Fraction
    epsilon_min: Fraction
    worst_gamma: int


@memoized
def uniformity(E: PointSet) -> UniformityReport:
    """epsilon_min = (max nontrivial |coeff|) / 2^r, with its witness.

    Equivalently the least epsilon such that every hyperplane H satisfies
    (|E| - eps*2^r)/2 <= |E ∩ H| <= (|E| + eps*2^r)/2.  The witness is the
    least gamma of greatest |coeff|.
    """
    c = walsh_hadamard(E).coeffs[1:]
    # np.argmax and np.argmin copy a read-only table, so the extremes come
    # from reductions and each witness from a boolean array; argmax of a
    # boolean array is its first True
    top, bottom = int(c.max()), -int(c.min())
    m = max(top, bottom)
    hi = int(np.argmax(c == m)) if top == m else c.size
    lo = int(np.argmax(c == -m)) if bottom == m else c.size
    return UniformityReport(
        alpha=E.density,
        epsilon_min=Fraction(m, 1 << E.rank),
        worst_gamma=min(hi, lo) + 1,
    )


def counting_bound_check(E: PointSet, epsilon: Fraction):
    """Exact check of |T - a^3 4^r| <= eps (a - a^2) 4^r for eps-uniform E.

    Returns (holds, lhs, rhs) as exact rationals.  The inequality is a
    theorem for every eps-uniform set, so a failure is raised as an
    internal inconsistency rather than returned.
    """
    epsilon = Fraction(epsilon)
    rep = uniformity(E)
    if epsilon < rep.epsilon_min:
        raise HypothesisError(
            f"E is not {epsilon}-uniform (needs at least {rep.epsilon_min})",
            witness=rep.worst_gamma,
        )
    t = triangle_count_spectral(E)
    # with m = |E| and R = 2^r: a^3 4^r = m^3/R and (a - a^2) 4^r = m(R - m)
    m, R = E.size, 1 << E.rank
    lhs = Fraction(abs(t * R - m**3), R)
    rhs = epsilon * (m * (R - m))
    if lhs > rhs:
        raise InternalInconsistencyError(
            f"counting bound failed on {E.to_compact()}: {lhs} > {rhs}"
        )
    return True, lhs, rhs


@dataclass(frozen=True)
class ClaimQuantities:
    """The cone-size bookkeeping behind the fano-free hyperplane argument."""

    triangle_count: int
    cone_sizes: dict[int, int]
    lower_threshold: Fraction  # 55/256 * 4^r, compared against T
    upper_threshold: Fraction  # 5/16 * 2^r, compared against each |E_p|
    lower_holds: bool  # T > lower_threshold
    upper_holds: bool  # every cone size <= upper_threshold


def claim_quantities(E: PointSet) -> ClaimQuantities:
    """T, all per-point cone sizes, and the two density thresholds.

    Verifies the cone identity (see ``search._cone_identity_holds``).
    """
    from .search import _cone_identity_holds, cone

    t = triangle_count_spectral(E)
    sizes = {p: cone(E, p).size for p in E}
    if not _cone_identity_holds(E, sum(sizes.values())):
        raise InternalInconsistencyError("cone sizes do not sum to the triangle count")
    lower = Fraction(55, 256) * (1 << (2 * E.rank))
    upper = Fraction(5, 16) * (1 << E.rank)
    return ClaimQuantities(
        triangle_count=t,
        cone_sizes=sizes,
        lower_threshold=lower,
        upper_threshold=upper,
        lower_holds=Fraction(t) > lower,
        upper_holds=all(v <= upper for v in sizes.values()),
    )
