"""Exact integer Fourier analysis over GF(2)^r.

The transform of the indicator of a point set E is
coeff(gamma) = sum over words y in E of (-1)^(y . gamma), computed for all
2^r characters at once.  All arithmetic is integer-exact.

On tables narrower than a cache-sized block of ``_BLOCK`` (2^16)
entries, r <= 15, numpy's fixed cost per call, not arithmetic, sets much
of the time, so the values of a block of same-rank sets are formed
together on their (B x 2^r) stacks, each by its own kernel, which forms
it only for the sets whose memo lacks it.  ``_block_spectra`` is the
stacked int32 butterfly ``_int32_transform`` at every rank, followed by
row-wise extremes, squares and cubes; ``_block_hyperplane_counts``
(one-word only: r <= 6, 2^r <= ``SMALL_SET_POINTS``) is two int64
products with the leading 2^r x 2^r block of the Sylvester matrix H_64,
stacked, on them.  A later
kernel reads the stack ``_block_spectra`` formed in place when its rows
are consecutive rows of it, and else gathers them in one take
(``_spectrum_stack``).  Every row passes the same checks as a single
table, and a row that fails is not kept, so its set's own call
recomputes it and raises.  A single such set's spectrum is the kernel's
row on a block of one.  A table of ``_BLOCK`` entries or more (from
r = 16) is transformed and checked alone.

The transform is the size-doubling butterfly, whose stages cost O(1)
per entry against a product's O(2^r).  Its six narrowest stages (widths
1 to 32) are read off the bitset's bytes: each 64-bit word's 64 entries
after them are the sum of eight int8 rows of ``_BYTE_ROWS``, one per
byte, so no indicator array is built; a table of fewer than 64 entries
is the head of its zero-padded word's.  The wider
stages run in place, two per pass (radix 4): those narrower than both the
table and a block right after the block's rows are written, while it is
in cache (all of them on a block of ``_BLOCK >> r`` whole tables, while
2^r < ``_BLOCK``), then the rest over the whole table, with one plain
stage when a group's count is odd.  numpy runs a strided view
whose rows are shorter than about 4096 entries through its buffered
iterator, several times slower per entry, so the narrow stages cost
mostly per pass; a pass's temporaries are pieces of at most a quarter
block, so they stay small at every width.  After the stage of width h an
entry is a signed sum of 2h indicator bits, so the stages narrower than
``_INT16_TOP`` (2^14) form values of at most 2^14 and run in an int16
copy of the block, half the bytes per pass; the rest run in int32, which
holds every value the butterfly forms, at most 2|E| < 2^25.  The spectrum
is that int32 table: every |c| <= |E| < 2^24.  Its checks, c[0] = |E|,
|c| <= |E| and Parseval, run in the pass that keeps the nontrivial
extremes and the exact cube sum, which ``uniformity`` and
``triangle_count_spectral`` read: on the rows of a stack in int64, where a
row's cubes sum to at most 2^60 (``_row_moments``), and on a table of a
block or more in ``Spectrum``'s walk, a block at a time, up to 2^72 (see
``_moments``).  The triangle counts
of all 2^r hyperplane intersections come from two more transforms over
E's cone sizes, in int64, all below 2^51 (see
``triangle_counts_per_hyperplane``).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import HypothesisError, InternalInconsistencyError
from .pointset import SMALL_SET_POINTS, PointSet, memoized

# Entries per cache-sized block: 256 KiB of int32, 512 KiB of int64.  The
# moments pass sums cubes of at most 2^45 over a block, at most 2^61.
_BLOCK = 1 << 16
# The in-block stages narrower than this run in int16: they form values of
# at most 2^14 (see ``fwht_inplace``).
_INT16_TOP = 1 << 14
# Entries per chunk of a cube sum past 2^15: 2^14 products of at most 2^48 sum to at most 2^62.
_CUBE_CHUNK = 1 << 14

# _ODD[u, v] is 1 iff u . v is odd (u, v < 64), and _SYLVESTER[u, v] =
# (-1)^(u . v) is the Sylvester matrix H_64, whose leading k x k block is
# H_k for every power of two k.
_ODD = np.bitwise_count(np.bitwise_and.outer(np.arange(64), np.arange(64))) & 1
_SYLVESTER = 1 - 2 * _ODD.astype(np.int64)
# _BYTE_ROWS[k, b] is the transform over one 64-bit word, by the first six
# stages, of the word whose only nonzero byte is byte k, equal to b.  Since
# (8i + j) . (8k + l) = i . k + j . l, its entry 8i + j is H_8[k, i] times
# the 8-entry transform of b at j.  Each entry is at most 8 in magnitude,
# so a word's eight rows sum to at most 64 and int8 holds the sum.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
_BYTE_ROWS = (
    _SYLVESTER[:8, None, :8, None] * (_BYTE_BITS @ _SYLVESTER[:8, :8])[None, :, None, :]
).reshape(8, 256, 64).astype(np.int8)
# Byte k of a word, plus _BYTE_OFFSETS[k], indexes its row of _BYTE_ROWS
# read as 2048 rows.
_BYTE_OFFSETS = np.arange(0, 8 * 256, 256, dtype=np.intp)[:, None]


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


def _stages(a: np.ndarray, h: int, top: int | None = None) -> int:
    """The stages of width h, 2h, ... narrower than top (a.size by
    default): radix-4 passes, and one plain stage last when their number is
    odd.  Returns the width of the first stage not run."""
    top = a.size if top is None else top
    while 4 * h <= top:
        _radix4(a, h)
        h *= 4
    if h < top:
        _butterfly(a, h)
        h *= 2
    return h


def fwht_inplace(a: np.ndarray, width: int = 1) -> np.ndarray:
    """Walsh–Hadamard transform, in place; a.size must be a power of two.

    Runs the butterfly stages of width ``width``, 2*width, ..., a.size/2,
    so a caller that has already run the narrower stages passes the first
    width left.  From width 1, applying it twice multiplies the input by
    a.size.

    The stages run two at a time, as radix-4 passes (``_radix4``): those
    narrower than ``_BLOCK`` entries one block
    at a time, so that each block stays in cache across them, then the
    wider ones over the whole array; when a group has an odd number of
    stages, one plain stage runs its last.  A stage narrower than about
    4096 entries is a strided view of short rows, which numpy sends
    through its buffered iterator at several times the cost per entry of
    a long row, so halving the number of passes over the table saves
    most where those stages are.  A pass's temporaries hold at most a
    quarter of ``_BLOCK`` entries each, at every width.

    After the stage of width h, each entry is a signed sum of 2h input
    entries, so on a 0/1 indicator of a set E it is at most min(|E|, 2h)
    in magnitude.  A radix-4 pass from width h forms only stage values,
    at most min(|E|, 4h), and a plain stage at width h doubles y before it
    forms x - y, so it forms values of at most min(2|E|, 2h).  int32 is
    exact for |E| < 2^30, and int16 for the stages narrower than 2^14,
    which form values of at most 2^14.  Other input wraps like its dtype,
    so the result is exact whenever it fits.
    """
    n = a.size
    block = min(n, _BLOCK)
    if width < block:
        for b in a.reshape(-1, block):
            _stages(b, width)
    _stages(a, max(width, block))
    return a


def _split_cube_sum(d: np.ndarray, sq: np.ndarray) -> tuple[int, int]:
    """(sum(d^2), sum(d^3)) of an integer array with |d| <= 2^24, given its
    int64 squares sq.

    Split sq = h 2^24 + l with 0 <= h, l <= 2^24; then
    sum(d^3) = 2^24 sum(d h) + sum(d l).  Over a chunk of ``_CUBE_CHUNK``
    entries each of the two int64 dots, and the sum of sq, is at most
    2^14 2^48 = 2^62 in magnitude, so none wraps, and the chunks' sums
    are added as Python integers.
    """
    squares = cubes = 0
    for i in range(0, d.size, _CUBE_CHUNK):
        x = d[i : i + _CUBE_CHUNK]
        s = sq[i : i + _CUBE_CHUNK]
        squares += int(s.sum())
        cubes += (int(np.dot(x, s >> 24)) << 24) + int(np.dot(x, s & 0xFFFFFF))
    return squares, cubes


def _moments(c: np.ndarray) -> tuple[int, int, int, int]:
    """(min, max, sum(c^2), sum(c^3)) of a nonempty int32 or int64 array
    with |c| <= 2^24, exactly, in one pass of ``_BLOCK``-sized pieces.

    Each piece's squares are formed in int64, widening it as they are
    read.  A piece whose greatest |c| is at most 2^15 has cubes of at most
    2^45, so its squares, multiplied by the piece in place, sum its at
    most 2^16 cubes to at most 2^61; any other piece goes through
    ``_split_cube_sum``.  One piece of squares is live at a time, plus
    numpy's casting buffers and the split's chunk-sized temporaries.
    """
    lo = hi = int(c[0])
    squares = cubes = 0
    for i in range(0, c.size, _BLOCK):
        d = c[i : i + _BLOCK]
        d_lo, d_hi = int(d.min()), int(d.max())
        lo, hi = min(lo, d_lo), max(hi, d_hi)
        sq = np.square(d, dtype=np.int64)
        if max(d_hi, -d_lo) <= 1 << 15:
            squares += int(sq.sum())
            sq *= d
            cubes += int(sq.sum())
        else:
            s2, s3 = _split_cube_sum(d, sq)
            squares += s2
            cubes += s3
        # freed before the next piece's squares are made
        del sq
    return lo, hi, squares, cubes


def _row_moments(c: np.ndarray) -> tuple[list[int], ...]:
    """(min, max, sum(c^2), sum(c^3)) of each row of a nonempty (B, k)
    stack, as lists of Python integers: the counterpart of ``_moments`` for
    rows narrower than ``_BLOCK``.  Exact in int64 when k |c|^3 < 2^63: a
    row of the butterfly, at most 2^15 signed sums of at most 2^15
    indicator bits, has k |c|^3 <= 2^60."""
    sq = np.square(c, dtype=np.int64)
    squares = sq.sum(axis=1)
    sq *= c
    return tuple(v.tolist() for v in (c.min(axis=1), c.max(axis=1), squares, sq.sum(axis=1)))


def _spectrum_fault(rank: int, m: int, c0: int, lo: int, hi: int, squares: int) -> Optional[str]:
    """The first check of a spectrum that fails, or None: c[0] = |E|, every
    nontrivial |c| <= |E| (given their extremes lo and hi), and Parseval's
    sum(c^2) = 2^r |E| (given the nontrivial squares).  Every table, and
    every row of a block, must pass them all."""
    if c0 != m:
        return "coeff at 0 must equal the set size"
    if lo < -m or hi > m:
        return "coefficient exceeds the set size in magnitude"
    if squares + m * m != m << rank:
        return "Parseval identity failed"
    return None


def _count_fault(rank: int, convolved: int, counted: int) -> Optional[str]:
    """The first check of the per-hyperplane counts that fails, or None,
    given a bitwise OR over the self-convolution and one over T + 3A: an
    OR has a low bit set iff some entry does, so the first must have none
    of its r low bits set (division by 2^r) and the second neither of its
    two (division by 4)."""
    if convolved & ((1 << rank) - 1):
        return "self-convolution is not divisible by 2^r"
    if counted & 3:
        return "hyperplane triangle counts are not divisible by 4"
    return None


def _raise(fault: Optional[str]) -> None:
    if fault is not None:
        raise InternalInconsistencyError(fault)


@dataclass(frozen=True)
class Spectrum:
    """All 2^r Fourier coefficients of an indicator, plus the set size.

    Construction walks the table once and refuses it unless c[0] = |E|,
    every |c| <= |E| and Parseval's sum(c^2) = 2^r |E| hold
    (``_spectrum_fault``).  The same pass keeps the least and greatest
    nontrivial coefficient (gamma != 0), the greater of their magnitudes
    (the peak) and the exact sum of cubes, which ``uniformity``,
    ``triangle_count_spectral`` and the thm-3.1 sweep row read instead of
    walking the table again (``_moments``, or ``_row_moments`` on the rows
    of a stack, ``_spectrum_rows``).  The table is int32, exact since every
    |c| <= |E| < 2^24, so squares and cubes of it are formed in int64 or as
    Python integers.  It is
    read-only; below r = 16 it is a row of a stack of a block's sets.
    """

    ambient_rank: int
    coeffs: np.ndarray
    set_size: int
    nontrivial_min: int = field(init=False)
    nontrivial_max: int = field(init=False)
    cube_sum: int = field(init=False)
    peak: int = field(init=False)  # the greatest nontrivial |coeff|

    def __post_init__(self):
        c = self.coeffs
        m = self.set_size
        if c.shape != (1 << self.ambient_rank,):
            raise InternalInconsistencyError("coefficient table has the wrong length")
        lo, hi, squares, cubes = _moments(c[1:])
        _raise(_spectrum_fault(self.ambient_rank, m, int(c[0]), lo, hi, squares))
        self.__dict__.update(nontrivial_min=lo, nontrivial_max=hi, cube_sum=cubes + m**3, peak=max(hi, -lo))
        c.flags.writeable = False

    @classmethod
    def _of_checked_row(cls, rank: int, coeffs: np.ndarray, size: int, lo: int, hi: int,
                        cube_sum: int, row: int) -> "Spectrum":
        """A read-only row of a block's stack, whose checks and moments
        ``_spectrum_rows`` has formed, with no second pass.  It keeps its
        row number, so ``_spectrum_stack`` can read it off the stack."""
        spec = object.__new__(cls)
        spec.__dict__.update(ambient_rank=rank, coeffs=coeffs, set_size=size, nontrivial_min=lo,
                             nontrivial_max=hi, cube_sum=cube_sum, peak=max(hi, -lo), _row=row)
        return spec

    def __getitem__(self, gamma: int) -> int:
        return int(self.coeffs[gamma])


def _sylvester_rows(a: np.ndarray) -> np.ndarray:
    """The transform of a 2^r-entry table, or of each row of a (B, 2^r)
    stack, 2^r <= ``SMALL_SET_POINTS``, as ``_hyperplane_counts`` runs it
    on int64 cone sizes: one int64 product with the leading 2^r x 2^r
    block of ``_SYLVESTER``, which is symmetric."""
    n = a.shape[-1]
    return a @ _SYLVESTER[:n, :n]


def _membership_rows(sets: list[PointSet]) -> np.ndarray:
    """The 0/1 indicators of same-rank one-word sets, as a (B, 2^r) int64
    stack read off their bitsets."""
    words = np.fromiter((e.bits for e in sets), dtype="<u8", count=len(sets))
    bits = np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    return bits[:, : 1 << sets[0].rank].astype(np.int64)


def _alone(rank: int) -> bool:
    """Whether a table of this rank is transformed and checked alone, not
    as a row of a stack: a table of ``_BLOCK`` entries or more (from
    r = 16)."""
    return (1 << rank) >= _BLOCK


def _spectrum_rows(sets: list[PointSet]) -> list[Optional[str]]:
    """The spectra of same-rank sets whose tables are not ``_alone``, as
    the rows of one stacked transform (``_int32_transform``), then each
    row's moments and checks; a row that passes goes into its set's memo.
    Returns each row's fault (None for a kept row)."""
    r = sets[0].rank
    c = _int32_transform(sets)
    c.flags.writeable = False
    faults = []
    rows = zip(sets, c[:, 0].tolist(), *_row_moments(c[:, 1:]))
    for i, (e, c0, lo, hi, squares, cubes) in enumerate(rows):
        m = e.size
        fault = _spectrum_fault(r, m, c0, lo, hi, squares)
        if fault is None:
            e.memo["walsh_hadamard"] = Spectrum._of_checked_row(r, c[i], m, lo, hi, cubes + m**3, i)
        faults.append(fault)
    return faults


def _block_spectra(sets: list[PointSet]) -> None:
    """Keep the spectrum of each set of a block of same-rank sets whose
    memo lacks it: the rows of one stack (``_spectrum_rows``), or each
    set's own table when it is ``_alone``.  A table that fails its checks
    is not kept."""
    todo = [e for e in sets if "walsh_hadamard" not in e.memo]
    if not todo:
        return
    if not _alone(todo[0].rank):
        _spectrum_rows(todo)
        return
    for e in todo:
        with suppress(InternalInconsistencyError):
            walsh_hadamard(e)


def _memoized_spectra(sets: list[PointSet], key: str) -> list[PointSet]:
    """The sets of a block whose memo holds a spectrum but not ``key``."""
    return [e for e in sets if key not in e.memo and "walsh_hadamard" in e.memo]


def _spectrum_stack(sets: list[PointSet]) -> np.ndarray:
    """The memoized spectra of sets as one read-only (B, 2^r) stack: read in
    place when they are one table or consecutive rows of one stack that
    ``_spectrum_rows`` formed, else one gather over the distinct stacks
    they are rows of, a table formed alone being a stack of one."""
    specs = [e.memo["walsh_hadamard"] for e in sets]
    if len(specs) == 1:
        return specs[0].coeffs[None]
    first = specs[0].__dict__.get("_row")
    base = specs[0].coeffs.base
    if first is not None and all(
        s.coeffs.base is base and s.__dict__.get("_row") == first + i for i, s in enumerate(specs)
    ):
        c = base.reshape(-1, specs[0].coeffs.size)[first : first + len(specs)]
        c.flags.writeable = False
        return c
    width = specs[0].coeffs.size
    starts: dict[int, int] = {}  # id of a stack -> the number of its first row in the concatenation
    bases, index, total = [], [], 0
    for s in specs:
        row = s.__dict__.get("_row")
        base = s.coeffs if row is None else s.coeffs.base
        start = starts.get(id(base))
        if start is None:
            start = starts[id(base)] = total
            total += base.size // width
            bases.append(base)
        index.append(start + (row or 0))
    whole = bases[0] if len(bases) == 1 else np.concatenate(bases, axis=None)
    c = whole.reshape(-1, width)[index]
    c.flags.writeable = False
    return c


def _block_hyperplane_counts(sets: list[PointSet]) -> None:
    """Keep the per-hyperplane triangle counts of each set of a block of
    same-rank one-word sets whose memo holds its spectrum but not the
    counts, formed from the stacked spectra (``_hyperplane_counts``).  A
    row that fails ``_count_fault`` is not kept."""
    todo = _memoized_spectra(sets, "triangle_counts_per_hyperplane")
    if not todo:
        return
    r = todo[0].rank
    counts, convolved, counted = _hyperplane_counts(_spectrum_stack(todo), _membership_rows(todo), r)
    counts.flags.writeable = False
    for e, row, ors in zip(todo, counts, zip(convolved.tolist(), counted.tolist())):
        if _count_fault(r, *ors) is None:
            e.memo["triangle_counts_per_hyperplane"] = row


@memoized
def walsh_hadamard(E: PointSet) -> Spectrum:
    """Exact transform of the indicator of E over all 2^r characters.

    A table not transformed ``_alone`` is the block kernel
    ``_spectrum_rows`` on a block of one, a row of ``_int32_transform``.
    A larger table is that transform's one int32 table, checked by
    ``Spectrum``'s pass a block at a time.
    """
    if _alone(E.rank):
        return Spectrum(E.rank, _int32_transform([E])[0], E.size)
    _raise(_spectrum_rows([E])[0])
    return E.memo["walsh_hadamard"]


def _int32_transform(sets: list[PointSet]) -> np.ndarray:
    """The transforms of the indicators of same-rank sets, as a contiguous
    (B, 2^r) int32 stack built one cache-sized block at a time.

    A set of the one-word ambient (2^r < 64) is read as one zero-padded
    64-bit word, whose transform's first 2^r entries are the set's: its
    row is cut to them once the stack is built.  A block of ``_BLOCK``
    entries holds ``_BLOCK >> r`` whole tables while 2^r < ``_BLOCK`` (the
    last block of a stack may hold fewer), and is one piece of a single
    table from r = 16.  The first six stages of a 64-bit word w of the
    sets' bitsets come from its bytes: they are linear, so entry 64j + u
    after them is the sum over the eight bytes b_k of w_j of
    ``_BYTE_ROWS[k, b_k]`` at u, one gather of the block's eight rows per
    word and one int8 sum over them (each partial sum is at most 64),
    copied into one reused int16 block.  The block's in-block stages, from
    width 64 to the narrower of the table and the block, run at once,
    while it is still in cache: each stage narrower than a table runs
    within every table of the block at once, those narrower than
    ``_INT16_TOP`` in the int16 block, whose values they keep at most 2^14
    (see ``fwht_inplace``), the rest after it is copied into its int32
    slot.  A table of ``_BLOCK`` entries or more then runs the stages from
    the block's width over the whole table by ``fwht_inplace``, exact in
    int32 since every value it forms is at most 2|E| < 2^25.  A row
    narrower than a block is at most 2^15 signed sums of at most 2^15
    indicator bits, so its squares and cubes, formed in int64, sum to at
    most 2^60 per row (``_row_moments``).  The block buffers are freed on
    return, before the checks make their own.
    """
    n = 1 << sets[0].rank
    width = max(n, 64)
    a = np.empty((len(sets), width), dtype=np.int32)
    flat = a.reshape(-1)
    block = min(flat.size, max(_BLOCK, 64))
    top = min(width, block)
    size = width >> 3
    raw = sets[0].bits.to_bytes(size, "little") if len(sets) == 1 else b"".join(
        e.bits.to_bytes(size, "little") for e in sets)
    by = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 8)
    byte_rows = _BYTE_ROWS.reshape(-1, 64)
    for i in range(0, flat.size, block):
        b = flat[i : i + block]
        words = b.size >> 6
        if i == 0 or b.size < block:
            # the buffers of a block, made again for a shorter last block
            index = np.empty((8, words), dtype=np.intp)
            rows = np.empty((8, words, 64), dtype=np.int8)
            acc = np.empty((words, 64), dtype=np.int8)
            narrow = np.empty(b.size, dtype=np.int16)
        np.add(by[i >> 6 : (i >> 6) + words].T, _BYTE_OFFSETS, out=index)
        # every index is a byte plus its row's offset, below 2048, so "clip"
        # clips none; it writes into ``rows`` with no buffered copy
        np.take(byte_rows, index, axis=0, out=rows, mode="clip")
        np.add.reduce(rows, axis=0, out=acc)
        narrow.reshape(words, 64)[...] = acc
        h = _stages(narrow, 64, min(top, _INT16_TOP))
        b[...] = narrow
        _stages(b, h, top)
    if n >= _BLOCK:
        for row in a:
            fwht_inplace(row, block)
    return a if n == width else a[:, :n].copy()


@memoized
def triangle_count_spectral(E: PointSet) -> int:
    """Number of ordered triples in E^3 summing to zero, via the spectrum.

    The triple-convolution identity gives 2^r * T = sum of cubed
    coefficients, which ``Spectrum`` sums exactly at every rank as it
    checks the table.
    """
    t, divides = _spectral_count(E.rank, walsh_hadamard(E).cube_sum)
    if not divides:
        raise InternalInconsistencyError("cube sum is not divisible by 2^r")
    return t


def _spectral_count(rank: int, cube_sum):
    """(T, whether 2^r divides the cube sum 2^r T) of one set's cube sum,
    or of each entry of an int64 array of them."""
    return cube_sum >> rank, (cube_sum & ((1 << rank) - 1)) == 0


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

    The spectrum is int32 at every rank, and its squares are formed in
    int64, since c^2 reaches 2^48 and int32 would wrap; int64 is exact at
    every rank: the transform of c^2 forms partial sums bounded by
    2 sum(c^2) = 2^(r+1) |E|, and that of d ones bounded by
    2 sum(d) = 2T <= 2|E|^2, so with |E| < 2^24 every value formed, T + 3A
    included, stays below 2^51.  In the one-word ambient both transforms
    are products (``_sylvester_rows``), the only products left, as
    ``_block_hyperplane_counts`` runs them on a block's stacked rows.  The
    table is remembered per set, so it is read-only.
    """
    a, convolved, counted = _hyperplane_counts(walsh_hadamard(E).coeffs, E.membership, E.rank)
    _raise(_count_fault(E.rank, int(convolved), int(counted)))
    a.flags.writeable = False
    return a


def _hyperplane_counts(c: np.ndarray, member: np.ndarray, rank: int):
    """The per-hyperplane triangle counts of ``triangle_counts_per_hyperplane``
    from a spectrum c and the membership table, or row-wise from stacks of
    one-word tables.  Both transforms of the int64 cone sizes are products
    (``_sylvester_rows``) on tables of at most ``SMALL_SET_POINTS``
    entries, where a product costs less than butterfly stages, and
    ``fwht_inplace`` on one wider table.  Returns the counts and, per
    table, the bitwise ORs over the self-convolution and over T + 3A that
    ``_count_fault`` reads."""
    transform = _sylvester_rows if c.shape[-1] <= SMALL_SET_POINTS else fwht_inplace
    d = transform(np.square(c, dtype=np.int64))
    convolved = np.bitwise_or.reduce(d, axis=-1)
    d >>= rank
    d *= member
    a = transform(d)
    t = a[..., :1].copy()
    a *= 3
    a += t
    counted = np.bitwise_or.reduce(a, axis=-1)
    a >>= 2
    return a, convolved, counted


@dataclass(frozen=True)
class UniformityReport:
    """Least uniformity bound of a set: how evenly hyperplanes split it.

    A report of ``uniformity`` keeps |E|, r and the peak |coeff| as
    integers, and forms ``alpha`` = |E|/2^r and ``epsilon_min`` = peak/2^r
    as Fractions when each is first read, since most callers read at most
    ``epsilon_min``.
    """

    alpha: Fraction
    epsilon_min: Fraction
    worst_gamma: int

    @classmethod
    def _of_peak(cls, size: int, rank: int, peak: int, worst_gamma: int) -> "UniformityReport":
        rep = object.__new__(cls)
        rep.__dict__.update(worst_gamma=worst_gamma, _numerators=(size, peak, rank))
        return rep

    def __getattr__(self, name: str):
        # reached only for the fields a report of _of_peak has not formed yet
        if name not in ("alpha", "epsilon_min"):
            raise AttributeError(name)
        size, peak, rank = self._numerators
        value = Fraction(size if name == "alpha" else peak, 1 << rank)
        self.__dict__[name] = value
        return value


@memoized
def uniformity(E: PointSet) -> UniformityReport:
    """epsilon_min = (max nontrivial |coeff|) / 2^r, with its witness.

    Equivalently the least epsilon such that every hyperplane H satisfies
    (|E| - eps*2^r)/2 <= |E ∩ H| <= (|E| + eps*2^r)/2.  The witness is the
    least gamma of greatest |coeff|.
    """
    spec = walsh_hadamard(E)
    m = spec.peak
    # The least nontrivial gamma with |coeff| = m, a block at a time from
    # gamma = 1: argmax of a boolean array is its first True.
    c = spec.coeffs[1:]
    for i in range(0, c.size, _BLOCK):
        hit = np.abs(c[i : i + _BLOCK]) == m
        j = int(np.argmax(hit))
        if hit[j]:
            break
    return UniformityReport._of_peak(E.size, E.rank, m, i + j + 1)


def counting_bound_check(E: PointSet, epsilon: Fraction):
    """Exact check of |T - a^3 4^r| <= eps (a - a^2) 4^r for eps-uniform E.

    Returns (holds, lhs, rhs) as exact rationals.  The inequality is a
    theorem for every eps-uniform set, so a failure is raised as an
    internal inconsistency rather than returned.  Both it and the
    hypothesis eps >= epsilon_min are decided on integers, by
    cross-multiplying with eps = p/q (``_counting_bound``), and lhs and
    rhs are formed once.
    """
    epsilon = Fraction(epsilon)
    p, q = epsilon.numerator, epsilon.denominator
    rep = uniformity(E)
    least = rep.epsilon_min
    if p * least.denominator < least.numerator * q:
        raise HypothesisError(
            f"E is not {epsilon}-uniform (needs at least {rep.epsilon_min})",
            witness=rep.worst_gamma,
        )
    lhs, rhs = _counting_bound(E.rank, E.size, triangle_count_spectral(E), p, q)
    lhs, rhs = Fraction(lhs, q << E.rank), Fraction(rhs, q << E.rank)
    if lhs > rhs:
        raise InternalInconsistencyError(
            f"counting bound failed on {E.to_compact()}: {lhs} > {rhs}"
        )
    return True, lhs, rhs


def _counting_bound(rank: int, size, t, p, q):
    """The counting bound's two sides for eps = p/q, as integers over the
    common denominator q 2^r: with m = |E| and R = 2^r, a^3 4^r = m^3/R and
    (a - a^2) 4^r = m(R - m), so the bound |tR - m^3|/R <= (p/q) m(R - m)
    reads |tR - m^3| q <= p m(R - m) R.  On Python integers, or on each
    entry of int64 arrays: from r = 16 a table is decided alone, on Python
    integers, and below with |E| < 2^15, t <= |E|^2 and p <= |E| at
    q = 2^r, every term is below 2^61."""
    big = 1 << rank
    return abs(t * big - size**3) * q, p * size * (big - size) * big


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
    from .search import _cone_identity_holds, cone_sizes

    t = triangle_count_spectral(E)
    sizes = dict(zip(E.points, cone_sizes(E).tolist()))
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
