import json
import random

import numpy as np
import pytest

from pgfree.errors import GeometryError, PointSetParseError, RankCapError
from pgfree.pointset import PointSet, coordinate_masks, pointset_from_mask, xor_translate


def test_pointset_basics():
    e = PointSet.from_points(3, [1, 3, 5])
    assert e.size == 3
    assert 3 in e and 2 not in e and 0 not in e
    assert e.points == (1, 3, 5)
    assert e.density.numerator == 3 and e.density.denominator == 8
    assert PointSet.full(3).size == 7
    assert PointSet.empty(3).size == 0
    assert e.complement().size == 4
    with pytest.raises(GeometryError):
        PointSet(0, 0)
    with pytest.raises(RankCapError):
        PointSet.full(25)


def test_points_on_both_sides_of_the_small_set_rule():
    rng = random.Random(31)
    for r, k in ((6, 63), (7, 64), (7, 65), (12, 64), (12, 200)):
        words = sorted(rng.sample(range(1, 1 << r), k))
        e = PointSet.from_points(r, words)
        assert e.points == tuple(words) == tuple(e.points_array.tolist())
        assert e.points is e.points and e.__dict__["points"] is e.points
    assert PointSet.empty(5).points == ()


def test_zero_point_rejected():
    with pytest.raises(GeometryError):
        PointSet(3, 0b1)
    with pytest.raises(GeometryError):
        PointSet.from_points(3, [0, 1])
    with pytest.raises(GeometryError):
        PointSet.from_points(3, [8])


def test_set_algebra():
    a = PointSet.from_points(3, [1, 2, 3])
    b = PointSet.from_points(3, [3, 4])
    assert a.union(b).points == (1, 2, 3, 4)
    assert a.intersection(b).points == (3,)
    assert a.difference(b).points == (1, 2)
    assert a.with_point(7).size == 4
    assert a.without_point(2).points == (1, 3)
    assert a.intersection(b).issubset(a)
    with pytest.raises(GeometryError):
        a.union(PointSet.from_points(4, [1]))


def test_adding_or_removing_a_word_outside_the_geometry_raises():
    full = PointSet.full(4)
    for word in (-1, 0, 16, 99):
        for step in (full.with_point, full.without_point):
            with pytest.raises(GeometryError):
                step(word)
    # a point of the geometry that is not in the set is removed as a no-op
    a = PointSet.from_points(4, [1, 2])
    assert a.without_point(5) == a and a.with_point(2) == a


def test_indicator_roundtrip():
    e = PointSet.from_points(4, [1, 7, 14])
    ind = e.indicator()
    assert ind.shape == (16,)
    assert [i for i, v in enumerate(ind) if v] == [1, 7, 14]
    assert pointset_from_mask(4, ind) == e


def test_words_view_is_little_endian_and_at_least_one_word():
    for r, pts in ((1, [1]), (3, [1, 7]), (6, [1, 63]), (7, [1, 64, 127]), (12, [5, 64, 4095])):
        e = PointSet.from_points(r, pts)
        words = e.words()
        assert words.dtype == np.dtype("<u8") and words.size == max(1, (1 << r) >> 6)
        assert not words.flags.writeable
        members = [64 * j + b for j, w in enumerate(words.tolist()) for b in range(64) if w >> b & 1]
        assert members == pts
        assert "words" not in e.__dict__


def loop_translate(e, x):
    """The bitset of E + x, one member word at a time."""
    out = 0
    for y in e:
        out |= 1 << (y ^ x)
    return out


def test_xor_translate_matches_a_loop_over_the_words():
    rng = random.Random(61)
    for r in range(1, 7):
        sets = [PointSet.empty(r), PointSet.full(r), PointSet(r, rng.getrandbits(1 << r) & ~1)]
        for x in range(1 << r):
            for e in sets:
                assert xor_translate(e.bits, x, r) == loop_translate(e, x), (e.to_compact(), x)
    for r in (12, 22, 24):
        if r == 12:
            e = PointSet(r, rng.getrandbits(1 << r) & ~1)
        else:
            e = PointSet.from_points(r, rng.sample(range(1, 1 << r), 200))
        # translates by members of E hold word 0
        xs = [1, 1 << (r - 1), (1 << r) - 1, *e.points[:2]] + [rng.randrange(1, 1 << r) for _ in range(4)]
        for x in xs:
            assert xor_translate(e.bits, x, r) == loop_translate(e, x), (r, x)


def test_xor_translate_across_ranks_keeps_one_rank_of_masks():
    # Only the last rank's masks are kept, so alternating ranks rebuilds
    # them; every translate still matches the loop.
    rng = random.Random(62)
    sets = {r: PointSet(r, rng.getrandbits(1 << r) & ~1) for r in (3, 7, 10)}
    for r in (3, 7, 10, 7, 3, 10, 10):
        e = sets[r]
        for x in (1, (1 << r) - 1, rng.randrange(1, 1 << r)):
            assert xor_translate(e.bits, x, r) == loop_translate(e, x), (r, x)
        assert coordinate_masks.cache_info().currsize == 1
        assert coordinate_masks(r) == tuple(
            sum(1 << w for w in range(1 << r) if not w >> i & 1) for i in range(r)
        )


def test_json_roundtrip():
    e = PointSet.from_points(4, [2, 9, 15])
    back = PointSet.parse(e.to_json())
    assert back == e
    obj = json.loads(e.to_json())
    assert obj == {"rank": 4, "points": [2, 9, 15]}


def test_compact_roundtrip():
    e = PointSet.from_points(4, [1, 2, 3, 11])
    s = e.to_compact()
    assert s == "4:80E"
    assert PointSet.parse(s) == e
    assert PointSet.from_compact("3:  AA".strip()) == PointSet.from_points(3, [1, 3, 5, 7])


def test_parse_errors_carry_position():
    with pytest.raises(PointSetParseError) as exc:
        PointSet.parse('{"rank": 4, "points": [1, 0, 2]}')
    assert "points[1]" in str(exc.value)

    with pytest.raises(PointSetParseError) as exc:
        PointSet.parse('{"rank": 4, "points": [99]}')
    assert "points[0]" in str(exc.value)

    with pytest.raises(PointSetParseError) as exc:
        PointSet.parse("4:80G")
    assert "char 2" in str(exc.value)

    with pytest.raises(PointSetParseError):
        PointSet.parse("4:81")  # bit 0 set

    with pytest.raises(PointSetParseError):
        PointSet.parse("not-a-set")

    with pytest.raises(PointSetParseError) as exc:
        PointSet.parse('{"rank": 4')
    assert "invalid JSON" in str(exc.value)


@pytest.mark.parametrize(
    "pts, message",
    [
        ([1, "x"], "e.json.points[1]: point 'x' is not an integer"),
        ([1, True], "e.json.points[1]: point True is not an integer"),
        ([1, 2, 1.5], "e.json.points[2]: point 1.5 is not an integer"),
        ([None], "e.json.points[0]: point None is not an integer"),
        ([2, 0], "e.json.points[1]: 0 is not a point of the geometry"),
        ([3, 16], "e.json.points[1]: point 16 is outside the rank-4 geometry"),
        ([-1], "e.json.points[0]: point -1 is outside the rank-4 geometry"),
    ],
)
def test_point_errors_name_the_failing_point(pts, message):
    with pytest.raises(PointSetParseError) as exc:
        PointSet.from_json_obj({"rank": 4, "points": pts}, "e.json")
    assert str(exc.value) == message


def test_parse_sniffs_format():
    assert PointSet.parse('{"rank": 2, "points": [1]}') == PointSet.parse("2:2")
