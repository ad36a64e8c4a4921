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
from functools import cached_property, wraps
from typing import Iterable, Iterator

import numpy as np

from .errors import GeometryError, PointSetParseError, RankCapError

RANK_CAP = 24


def check_rank(rank: int) -> None:
    if not isinstance(rank, int) or not 1 <= rank <= RANK_CAP:
        raise RankCapError(f"ambient rank must be an integer in 1..{RANK_CAP}, got {rank!r}")


@dataclass(frozen=True)
class AmbientGeometry:
    """The rank-r binary projective geometry: all nonzero words below 2^r."""

    rank: int

    def __post_init__(self):
        check_rank(self.rank)

    @property
    def point_count(self) -> int:
        return (1 << self.rank) - 1

    def contains(self, word: int) -> bool:
        return 0 < word < (1 << self.rank)

    def points(self) -> Iterator[int]:
        return iter(range(1, 1 << self.rank))


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

    @property
    def ambient(self) -> AmbientGeometry:
        return AmbientGeometry(self.rank)

    @cached_property
    def size(self) -> int:
        return self.bits.bit_count()

    @cached_property
    def density(self) -> Fraction:
        return Fraction(self.size, 1 << self.rank)

    def denser_than(self, num: int, den: int) -> bool:
        """|E| > (num/den) 2^r, decided on integers by cross-multiplying (den > 0)."""
        return self.size * den > num << self.rank

    def __len__(self) -> int:
        return self.size

    def __contains__(self, word: int) -> bool:
        return 0 <= word < (1 << self.rank) and (self.bits >> word) & 1 == 1

    @cached_property
    def points_array(self) -> np.ndarray:
        """All member words, ascending, as an int64 array."""
        return np.nonzero(self.indicator())[0].astype(np.int64)

    @cached_property
    def points(self) -> tuple[int, ...]:
        return tuple(self.points_array.tolist())

    def __iter__(self) -> Iterator[int]:
        return iter(self.points)

    def indicator(self) -> np.ndarray:
        """0/1 indicator over all 2^r words, as a uint8 array."""
        n = 1 << self.rank
        raw = self.bits.to_bytes((n + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little", count=n)

    @cached_property
    def membership(self) -> np.ndarray:
        return self.indicator().astype(bool)

    @cached_property
    def memo(self) -> dict:
        """What this instance has computed about itself, each once: subgeometry
        rank n -> is_pg_free(self, n), and the name of each function decorated
        with ``memoized`` (the spectrum, the naive triangle count, the matroid
        rank and the critical number) -> its value."""
        return {}

    @property
    def freeness_memo(self) -> dict:
        """The same dict as ``memo``; its integer keys are the freeness answers."""
        return self.memo

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
        if not 0 < word < (1 << self.rank):
            raise GeometryError(f"{word} is not a point of a rank-{self.rank} geometry")
        return PointSet(self.rank, self.bits | (1 << word))

    def without_point(self, word: int) -> "PointSet":
        return PointSet(self.rank, self.bits & ~(1 << word))

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
            pos = f"{where}.points[{i}]"
            if isinstance(w, bool) or not isinstance(w, int):
                raise PointSetParseError(f"point {w!r} is not an integer", pos)
            if w == 0:
                raise PointSetParseError("0 is not a point of the geometry", pos)
            if not 0 < w < top:
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
