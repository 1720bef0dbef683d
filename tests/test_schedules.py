import numpy as np
import pytest

from blocktrid.schedules import (
    CYCLIC,
    GENERAL,
    BlockSchedule,
    block_of,
    block_slices,
    canonical_covering,
    canonical_schedule,
    covers,
    parse_spec,
    schedule_for_dim,
    staircase_coverage_check,
    validate,
)
from blocktrid.verify import block_band


def staircase_support(i, j):
    return j <= 3 * i and i <= 3 * j


def joint_cyclic_support(i, j):
    return i <= 2 * j and j <= 2 * i + 1


def test_canonical_schedule_general():
    sched = canonical_schedule(5, 1, GENERAL)
    assert sched.sizes == (1, 2, 6, 18, 54)
    assert sched.partial_sums == (1, 3, 9, 27, 81)
    assert validate(sched.sizes, GENERAL) is None
    assert canonical_schedule(4, 4, GENERAL).sizes == (4, 8, 24, 72)


def test_canonical_schedule_cyclic():
    sched = canonical_schedule(4, 1, CYCLIC)
    assert sched.sizes == (1, 2, 4, 8)
    assert sched.partial_sums == (1, 3, 7, 15)
    assert validate(sched.sizes, CYCLIC) is None


def test_validate_examples():
    assert validate([1, 3, 8, 24], GENERAL) is None
    assert validate([1, 2, 5], GENERAL) == 2
    assert validate([1, 1, 2, 4], CYCLIC) is None
    # cyclic equality chain keeps holding with equality at every step
    assert validate([1, 1, 2, 4, 8, 16], CYCLIC) is None
    assert validate([2, 3], GENERAL) == 1
    with pytest.raises(ValueError):
        validate([1, 0, 2], GENERAL)
    with pytest.raises(ValueError):
        validate([], GENERAL)


def test_constructor_checks_positivity_not_growth():
    sched = BlockSchedule((1, 2, 5), GENERAL)
    assert not sched.is_valid
    with pytest.raises(ValueError):
        BlockSchedule((1, -2), GENERAL)
    with pytest.raises(ValueError):
        BlockSchedule((1, 2), "diagonal")


def test_block_of():
    sched = canonical_schedule(4, 1, GENERAL)
    assert block_of(1, sched) == 1
    assert block_of(4, sched) == 3
    assert block_of(9, sched) == 3
    assert block_of(27, sched) == 4
    with pytest.raises(ValueError):
        block_of(28, sched)
    with pytest.raises(ValueError):
        block_of(0, sched)


def test_block_of_monotone_surjective():
    sched = canonical_schedule(4, 1, GENERAL)
    seen = [block_of(i, sched) for i in range(1, sched.span + 1)]
    assert seen == sorted(seen)
    assert set(seen) == {1, 2, 3, 4}


def test_covers_counterexample_entry():
    assert covers(4, 27, BlockSchedule((1, 2, 6, 18), GENERAL))
    assert not covers(4, 27, BlockSchedule((4, 8, 24, 72), GENERAL))
    assert not covers(4, 27, BlockSchedule((1, 3, 8, 24), GENERAL))
    # beyond the span of the schedule nothing is covered
    assert not covers(1, 99, BlockSchedule((1, 2, 6), GENERAL))


def test_covers_false_beyond_span():
    sched = BlockSchedule((1, 2, 3), GENERAL)
    assert covers(6, 6, sched) and covers(3, 6, sched)
    for i, j in ((7, 7), (6, 7), (7, 6), (7, 1), (1, 7), (40, 40)):
        assert covers(i, j, sched) is False
    with pytest.raises(ValueError):
        covers(0, 1, sched)


def test_covers_honours_schedule_dim():
    clipped = BlockSchedule((1, 2, 6), GENERAL, 4)
    assert covers(4, 4, clipped) and covers(3, 4, clipped)
    assert covers(5, 5, clipped) is False
    assert covers(9, 8, clipped) is False
    # the unclipped schedule still covers both
    assert covers(5, 5, BlockSchedule((1, 2, 6), GENERAL))
    assert covers(9, 8, BlockSchedule((1, 2, 6), GENERAL))


def test_covers_matches_block_band_on_clipped_schedules():
    for sizes, dim in (((1, 2, 6), 4), ((1, 2, 6, 18), 11), ((1, 3, 8), 4),
                       ((2, 4, 12), 2), ((1, 2, 6, 18), 27)):
        sched = BlockSchedule(sizes, GENERAL, dim)
        allowed = block_band(sched, dim).allowed
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                assert covers(i, j, sched) == bool(allowed(i, j)), (sizes, dim, i, j)
        # nothing past the clipped dimension is covered
        assert not any(covers(i, dim + 1, sched) for i in range(1, dim + 2))


def test_block_of_limit_is_min_of_span_and_dim():
    clipped = BlockSchedule((1, 2, 6), GENERAL, 4)
    assert [block_of(i, clipped) for i in range(1, 5)] == [1, 2, 2, 3]
    with pytest.raises(ValueError, match=r"outside 1\.\.4"):
        block_of(5, clipped)
    short = BlockSchedule((1, 2), GENERAL, 10)
    assert block_of(3, short) == 2
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        block_of(4, short)
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        block_of(0, short)


def test_coverage_check_canonical_is_complete():
    sched = canonical_covering(81, GENERAL)
    assert staircase_coverage_check(sched, staircase_support, 81) == []


def test_coverage_check_flags_invalid_schedule():
    missing = staircase_coverage_check(BlockSchedule((1, 2, 5), GENERAL), staircase_support, 27)
    assert missing != []
    # the first miss is the support entry right past the short third block
    assert (3, 9) in missing


def test_coverage_check_cyclic_canonical():
    sched = canonical_covering(32, CYCLIC)
    assert staircase_coverage_check(sched, joint_cyclic_support, 32) == []


def test_coverage_property_random_valid_schedules():
    rng = np.random.default_rng(41)
    for trial in range(100):
        factor = 2
        sizes = [int(rng.integers(1, 4))]
        while sum(sizes) < 81:
            sizes.append(factor * sum(sizes) + int(rng.integers(0, 5)))
        sched = BlockSchedule(tuple(sizes), GENERAL)
        assert sched.is_valid
        dim = min(81, sched.span)
        assert staircase_coverage_check(sched, staircase_support, dim) == []


def test_schedule_for_dim_general():
    assert schedule_for_dim(1, GENERAL).sizes == (1,)
    assert schedule_for_dim(2, GENERAL).sizes == (2,)
    assert schedule_for_dim(3, GENERAL).sizes == (1, 2)
    assert schedule_for_dim(4, GENERAL).sizes == (1, 3)
    assert schedule_for_dim(9, GENERAL).sizes == (1, 2, 6)
    assert schedule_for_dim(10, GENERAL).sizes == (1, 2, 7)
    assert schedule_for_dim(27, GENERAL).sizes == (1, 2, 6, 18)


def test_schedule_for_dim_always_valid_and_exact():
    for kind in (GENERAL, CYCLIC):
        for d in range(1, 130):
            sched = schedule_for_dim(d, kind)
            assert sched.span == d
            assert sched.is_valid
            assert all(b >= a for a, b in zip(sched.sizes, sched.sizes[1:]))


def test_schedule_for_dim_covers_support():
    for d in (5, 12, 33, 81):
        sched = schedule_for_dim(d, GENERAL)
        assert staircase_coverage_check(sched, staircase_support, d) == []
        cyc = schedule_for_dim(d, CYCLIC)
        assert staircase_coverage_check(cyc, joint_cyclic_support, d) == []


def test_truncated_sizes_and_slices():
    sched = canonical_covering(4, GENERAL)
    assert sched.sizes == (1, 2, 6)
    assert sched.truncated_sizes == (1, 2, 1)
    assert block_slices(sched) == [(0, 1), (1, 3), (3, 4)]
    full = canonical_schedule(3, 1, GENERAL)
    assert full.truncated_sizes == (1, 2, 6)
    assert block_slices(full, 2) == [(0, 1), (1, 2)]


def test_truncated_sizes_match_block_slices():
    rng = np.random.default_rng(17)
    for trial in range(200):
        sizes = tuple(int(n) for n in rng.integers(1, 9, size=rng.integers(1, 6)))
        dim = int(rng.integers(1, 2 * sum(sizes))) if trial % 2 else None
        sched = BlockSchedule(sizes, GENERAL, dim)
        slices = block_slices(sched)
        assert sched.truncated_sizes == tuple(b - a for a, b in slices)
        assert sched.partial_sums == tuple(np.cumsum(sizes))
        # blocks are contiguous from 0 and end at min(span, dim)
        assert [a for a, _ in slices] == [0] + [b for _, b in slices[:-1]]
        assert slices[-1][1] == min(sched.span, dim or sched.span)


def test_parse_spec():
    assert parse_spec("canonical", 9, GENERAL).sizes == (1, 2, 6)
    assert parse_spec("cyclic", 15, GENERAL).kind == CYCLIC
    custom = parse_spec("custom:1,2,6,18", 27, GENERAL)
    assert custom.sizes == (1, 2, 6, 18)
    assert custom.dim == 27
    bad = parse_spec("custom:1,2,5", 9, GENERAL)
    assert not bad.is_valid
    with pytest.raises(ValueError):
        parse_spec("custom:1,two", 9, GENERAL)
    with pytest.raises(ValueError):
        parse_spec("fibonacci", 9, GENERAL)


def test_describe_round_trip():
    sched = canonical_schedule(4, 1, GENERAL)
    again = parse_spec("custom:" + sched.describe(), sched.span, GENERAL)
    assert again.sizes == sched.sizes
