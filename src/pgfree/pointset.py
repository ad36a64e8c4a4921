"""Point sets over the nonzero words of GF(2)^r.

A point set is the ground set E of a binary representation (E, G): a subset
of the 2^r - 1 nonzero r-bit words.  The whole set is stored as one Python
integer used as a bitset of length 2^r, where bit w is set iff word w is in
the set.  Bit 0 is never set: 0 is not a point of the geometry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Iterable, Iterator

import numpy as np

from .errors import GeometryError, PointSetParseError, RankCapError

RANK_CAP = 24


def check_rank(rank: int) -> None:
    if not isinstance(rank, int) or rank < 1:
        raise GeometryError(f"ambient rank must be an integer >= 1, got {rank!r}")
    if rank > RANK_CAP:
        raise RankCapError(f"ambient rank must be an integer in 1..{RANK_CAP}, got {rank!r}")


# Sets of at most this many points are listed by a Python loop, larger ones
# by numpy; an ambient of at most this many words is one bitset word.  The
# freeness walk reads pools of any size off their bitsets, and hands only
# a larger pool of g_{n-2} to the apex kernel.
SMALL_SET_POINTS = 64


class cached:
    """``functools.cached_property`` without its lock: the first read stores
    the value in the instance ``__dict__``, which later reads find before
    this non-data descriptor.  Threads racing on a first read may each
    compute the value; the later store wins."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class PointSet:
    """An immutable subset of the points of a rank-r ambient geometry."""

    rank: int
    bits: int

    def __post_init__(self):
        check_rank(self.rank)
        if self.bits & 1:
            raise GeometryError("0 is not a point of the geometry")
        if self.bits < 0 or self.bits >> (1 << self.rank):
            raise GeometryError("bitset has points outside the ambient geometry")

    @classmethod
    def from_points(cls, rank: int, points: Iterable[int]) -> "PointSet":
        check_rank(rank)
        bits = 0
        top = 1 << rank
        for w in points:
            if not 0 < w < top:
                raise GeometryError(f"{w} is not a point of a rank-{rank} geometry")
            bits |= 1 << w
        return cls(rank, bits)

    @classmethod
    def empty(cls, rank: int) -> "PointSet":
        return cls(rank, 0)

    @classmethod
    def full(cls, rank: int) -> "PointSet":
        check_rank(rank)
        return cls(rank, ((1 << (1 << rank)) - 1) & ~1)

    @cached
    def size(self) -> int:
        return self.bits.bit_count()

    @cached
    def density(self) -> Fraction:
        return Fraction(self.size, 1 << self.rank)

    def denser_than(self, num: int, den: int) -> bool:
        """|E| > (num/den) 2^r, decided on integers by cross-multiplying (den > 0)."""
        return self.size * den > num << self.rank

    def __len__(self) -> int:
        return self.size

    def __contains__(self, word: int) -> bool:
        return 0 <= word < (1 << self.rank) and (self.bits >> word) & 1 == 1

    @cached
    def points_array(self) -> np.ndarray:
        """All member words, ascending, as an int64 array."""
        return np.nonzero(self.indicator())[0].astype(np.int64)

    @cached
    def points(self) -> tuple[int, ...]:
        """All member words, ascending."""
        if self.size > SMALL_SET_POINTS:
            return tuple(self.points_array.tolist())
        bits, out = self.bits, []
        while bits:
            out.append((bits & -bits).bit_length() - 1)
            bits &= bits - 1
        return tuple(out)

    def __iter__(self) -> Iterator[int]:
        return iter(self.points)

    def words(self) -> np.ndarray:
        """The bitset as at least one little-endian uint64 word, read-only
        and not kept on the set: bit b of word j is member 64j + b."""
        return np.frombuffer(self.bits.to_bytes(max(8, (1 << self.rank) >> 3), "little"), dtype="<u8")

    def indicator(self) -> np.ndarray:
        """0/1 indicator over all 2^r words, as a uint8 array."""
        n = 1 << self.rank
        raw = self.bits.to_bytes((n + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little", count=n)

    @cached
    def membership(self) -> np.ndarray:
        """The indicator as a bool array, built once per set: the one-word
        spectrum and the per-hyperplane triangle counts both read it."""
        return self.indicator().astype(bool)

    @cached
    def memo(self) -> dict:
        """What this instance has computed about itself, each once: subgeometry
        rank n -> is_pg_free(self, n), ("cone_lemma", n) -> Lemma 2.5's
        least slack at level n, and the name of each function decorated
        with ``memoized`` (the spectrum, the uniformity report, the naive,
        the spectral and the per-hyperplane triangle counts, the cone
        sizes, the matroid rank and the critical number) -> its value."""
        return {}

    # -- set algebra (all return new sets in the same ambient) --------------

    def _same_rank(self, other: "PointSet") -> None:
        if other.rank != self.rank:
            raise GeometryError("point sets live in different ambient ranks")

    def union(self, other: "PointSet") -> "PointSet":
        self._same_rank(other)
        return PointSet(self.rank, self.bits | other.bits)

    def intersection(self, other: "PointSet") -> "PointSet":
        self._same_rank(other)
        return PointSet(self.rank, self.bits & other.bits)

    def difference(self, other: "PointSet") -> "PointSet":
        self._same_rank(other)
        return PointSet(self.rank, self.bits & ~other.bits)

    def complement(self) -> "PointSet":
        return PointSet(self.rank, PointSet.full(self.rank).bits & ~self.bits)

    def with_point(self, word: int) -> "PointSet":
        return PointSet(self.rank, self.bits | self._point_bit(word))

    def without_point(self, word: int) -> "PointSet":
        return PointSet(self.rank, self.bits & ~self._point_bit(word))

    def _point_bit(self, word: int) -> int:
        if not 0 < word < (1 << self.rank):
            raise GeometryError(f"{word} is not a point of a rank-{self.rank} geometry")
        return 1 << word

    def issubset(self, other: "PointSet") -> bool:
        self._same_rank(other)
        return self.bits & ~other.bits == 0

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"rank": self.rank, "points": [int(w) for w in self.points]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    def to_compact(self) -> str:
        return f"{self.rank}:{self.bits:X}"

    @classmethod
    def from_json_obj(cls, obj, where: str = "input") -> "PointSet":
        if not isinstance(obj, dict):
            raise PointSetParseError("expected a JSON object", where)
        if "rank" not in obj:
            raise PointSetParseError('missing "rank" field', where)
        if "points" not in obj:
            raise PointSetParseError('missing "points" field', where)
        rank = obj["rank"]
        if isinstance(rank, bool) or not isinstance(rank, int) or not 1 <= rank <= RANK_CAP:
            raise PointSetParseError(f'"rank" must be an integer in 1..{RANK_CAP}', f"{where}.rank")
        pts = obj["points"]
        if not isinstance(pts, list):
            raise PointSetParseError('"points" must be a list of integers', f"{where}.points")
        bits = 0
        top = 1 << rank
        for i, w in enumerate(pts):
            if isinstance(w, bool) or not isinstance(w, int) or not 0 < w < top:
                # the location is formatted only for the point that fails
                pos = f"{where}.points[{i}]"
                if isinstance(w, bool) or not isinstance(w, int):
                    raise PointSetParseError(f"point {w!r} is not an integer", pos)
                if w == 0:
                    raise PointSetParseError("0 is not a point of the geometry", pos)
                raise PointSetParseError(f"point {w} is outside the rank-{rank} geometry", pos)
            bits |= 1 << w
        return cls(rank, bits)

    @classmethod
    def from_compact(cls, text: str, where: str = "input") -> "PointSet":
        head, sep, hexpart = text.strip().partition(":")
        if not sep:
            raise PointSetParseError("compact form must be RANK:HEXBITSET", where)
        try:
            rank = int(head)
        except ValueError:
            raise PointSetParseError(f"rank field {head!r} is not an integer", f"{where}:rank") from None
        if not 1 <= rank <= RANK_CAP:
            raise PointSetParseError(f"rank must be in 1..{RANK_CAP}, got {rank}", f"{where}:rank")
        if not hexpart:
            raise PointSetParseError("empty bitset field", f"{where}:bitset")
        try:
            bits = int(hexpart, 16)
        except ValueError:
            bad = next(i for i, ch in enumerate(hexpart) if ch not in "0123456789abcdefABCDEF")
            raise PointSetParseError(
                f"invalid hex digit {hexpart[bad]!r}", f"{where}:bitset char {bad}"
            ) from None
        if bits & 1:
            raise PointSetParseError("bit 0 is set but 0 is not a point", f"{where}:bitset")
        if bits >> (1 << rank):
            raise PointSetParseError("bitset has points outside the geometry", f"{where}:bitset")
        return cls(rank, bits)

    @classmethod
    def parse(cls, text: str, where: str = "input") -> "PointSet":
        """Accept either the JSON form or the compact RANK:HEX form."""
        stripped = text.strip()
        if not stripped:
            raise PointSetParseError("empty input", where)
        if stripped.startswith("{"):
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise PointSetParseError(f"invalid JSON: {exc.msg}", f"{where}:{exc.lineno}:{exc.colno}") from None
            except (ValueError, RecursionError) as exc:
                # an integer past Python's digit limit, or arrays nested too deep
                raise PointSetParseError(f"invalid JSON: {exc}", where) from None
            return cls.from_json_obj(obj, where)
        return cls.from_compact(stripped, where)


def pointset_from_mask(rank: int, mask: np.ndarray) -> PointSet:
    """Build a set from a length-2^r boolean/0-1 numpy mask."""
    packed = np.packbits(mask.astype(np.uint8), bitorder="little").tobytes()
    return PointSet(rank, int.from_bytes(packed, "little"))


def pointset_from_words(rank: int, words: np.ndarray) -> PointSet:
    """Build a set from an integer array of its member words; repeats are allowed."""
    mask = np.zeros(1 << rank, dtype=np.uint8)
    mask[words] = 1
    return pointset_from_mask(rank, mask)


def check_normal(rank: int, gamma: int) -> None:
    """A hyperplane's normal gamma is a nonzero word: 1 <= gamma < 2^r."""
    if not 0 < gamma < (1 << rank):
        raise GeometryError(f"normal {gamma} is not a nonzero word of the rank-{rank} ambient")


def hyperplane_mask(rank: int, gamma: int) -> int:
    """The bitset of the words w with w·gamma = 0, word 0 included.  Words
    2^i + w (w < 2^i) have the parity of w, flipped when bit i of gamma is
    set, so the bitset doubles once per coordinate."""
    check_normal(rank, gamma)
    mask = 1
    for i in range(rank):
        width = 1 << i
        mask |= (mask ^ ((1 << width) - 1) if (gamma >> i) & 1 else mask) << width
    return mask


@lru_cache(maxsize=1)
def coordinate_masks(rank: int) -> tuple[int, ...]:
    """L_i = the bitset of the words with bit i clear, for i < rank.

    Only the last rank's masks are kept: at r = 24 they take 48 MiB, and
    callers work at one rank at a time.
    """
    return tuple(hyperplane_mask(rank, 1 << i) for i in range(rank))


def xor_translate(bits: int, x: int, rank: int) -> int:
    """The bitset of E + x = {y ^ x : y in E}, given the bitset of E.

    Adding 2^i swaps each run of 2^i words in L_i with the run above it:
    one mask-and-shift per set bit of x.  E + x holds word 0 iff x is in E.
    """
    masks = coordinate_masks(rank)
    while x:
        step = x & -x
        low = masks[step.bit_length() - 1]
        bits = (bits & low) << step | (bits >> step) & low
        x ^= step
    return bits


def memoized(fn):
    """Remember fn(E) in E.memo, so that each PointSet instance computes it once.

    Remembered values are shared between callers, so they must be immutable.
    """
    key = fn.__name__

    @wraps(fn)
    def remembered(E: PointSet):
        memo = E.memo
        if key not in memo:
            memo[key] = fn(E)
        return memo[key]

    return remembered
