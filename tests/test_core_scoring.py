"""Tests for reverse lookup and the x(u) scoring rule (Eqs. 1-2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coreset import CoreSet
from repro.core.scoring import (
    CandidateScore,
    ScoreTable,
    ScoringRule,
    _argmax_year,
    _fold,
    reverse_lookup_index,
    score_candidates,
)


def make_core():
    """Core with |C_2012|=2, |C_2013|=1."""
    core = CoreSet(school_id=1, current_year=2012)
    core.add_core(10, 2012, [100, 101, 102])
    core.add_core(11, 2012, [100, 103])
    core.add_core(12, 2013, [100, 104])
    return core


class TestReverseLookupIndex:
    def test_maps_candidates_to_owners(self):
        index = reverse_lookup_index({1: [7, 8], 2: [8]})
        assert index == {7: {1}, 8: {1, 2}}

    def test_empty(self):
        assert reverse_lookup_index({}) == {}


class TestMaxFractionScoring:
    def test_equation_two(self):
        table = score_candidates(make_core(), denominator_floor=1)
        # candidate 100: 2/2 in 2012, 1/1 in 2013 -> max = 1.0
        assert table.scores[100].score == pytest.approx(1.0)
        # candidate 101: 1/2 in 2012 -> 0.5
        assert table.scores[101].score == pytest.approx(0.5)
        # candidate 104: 1/1 in 2013 -> 1.0
        assert table.scores[104].score == pytest.approx(1.0)

    def test_counts_recorded_per_year(self):
        table = score_candidates(make_core(), denominator_floor=1)
        assert table.scores[100].counts == {2012: 2, 2013: 1, 2014: 0, 2015: 0}

    def test_year_assignment_argmax(self):
        table = score_candidates(make_core())
        assert table.scores[101].year == 2012
        assert table.scores[104].year == 2013

    def test_year_tie_breaks_on_raw_count(self):
        # candidate 100 ties at 1.0 for 2012 (2/2) and 2013 (1/1);
        # 2012 has more raw core friends, so it wins.
        table = score_candidates(make_core())
        assert table.scores[100].year == 2012

    def test_core_members_not_scored(self):
        core = make_core()
        core.add_core(13, 2013, [10])  # core user 10 appears in a list
        table = score_candidates(core)
        assert 10 not in table

    def test_scores_bounded(self):
        table = score_candidates(make_core())
        for entry in table.scores.values():
            assert 0.0 <= entry.score <= 1.0


class TestAlternateRules:
    def test_sum_fraction(self):
        table = score_candidates(
            make_core(), ScoringRule.SUM_FRACTION, denominator_floor=1
        )
        assert table.scores[100].score == pytest.approx(2.0)  # 1.0 + 1.0

    def test_raw_count(self):
        table = score_candidates(make_core(), ScoringRule.RAW_COUNT)
        assert table.scores[100].score == pytest.approx(3.0)


class TestRanking:
    def test_descending_by_score(self):
        table = score_candidates(make_core())
        ranked = table.ranked()
        scores = [table.scores[uid].score for uid in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_exclusion(self):
        table = score_candidates(make_core())
        ranked = table.ranked(exclude={100, 104})
        assert 100 not in ranked and 104 not in ranked

    def test_tie_break_deterministic(self):
        table = score_candidates(make_core())
        assert table.ranked() == table.ranked()

    def test_equal_score_prefers_more_core_friends(self):
        # 100 (3 core friends) and 104 (1 core friend) both score 1.0.
        table = score_candidates(make_core())
        ranked = table.ranked()
        assert ranked.index(100) < ranked.index(104)


class TestDenominatorFloor:
    def test_floor_caps_thin_year_scores(self):
        # |C_2013| = 1: with the default floor of 3, one hit scores 1/3.
        table = score_candidates(make_core())
        assert table.scores[104].score == pytest.approx(1.0 / 3.0)

    def test_floor_irrelevant_for_healthy_cores(self):
        core = CoreSet(school_id=1, current_year=2012)
        for i in range(5):
            core.add_core(10 + i, 2012, [100, 101 + i])
        literal = score_candidates(core, denominator_floor=1)
        floored = score_candidates(core, denominator_floor=3)
        for uid in literal.scores:
            assert literal.scores[uid].score == pytest.approx(
                floored.scores[uid].score
            )

    def test_bad_floor_rejected(self):
        with pytest.raises(ValueError):
            score_candidates(make_core(), denominator_floor=0)

    def test_empty_year_still_scores_zero(self):
        table = score_candidates(make_core())
        assert all(
            entry.fractions[2014] == 0.0 and entry.fractions[2015] == 0.0
            for entry in table.scores.values()
        )


friend_lists_strategy = st.dictionaries(
    keys=st.integers(0, 9),
    values=st.lists(st.integers(100, 160), max_size=15),
    max_size=8,
)


class TestScoringProperties:
    @given(friend_lists_strategy, st.sampled_from(list(ScoringRule)))
    @settings(max_examples=60)
    def test_scores_non_negative_and_bounded(self, friend_lists, rule):
        core = CoreSet(school_id=1, current_year=2012)
        for i, (uid, friends) in enumerate(friend_lists.items()):
            core.add_core(uid, 2012 + (i % 4), friends)
        table = score_candidates(core, rule)
        for entry in table.scores.values():
            assert entry.score >= 0.0
            if rule is ScoringRule.MAX_FRACTION:
                assert entry.score <= 1.0
            total = sum(entry.counts.values())
            assert total >= 1
            if entry.year is not None:
                assert entry.year in core.years

    @given(friend_lists_strategy)
    @settings(max_examples=60)
    def test_every_candidate_scored(self, friend_lists):
        core = CoreSet(school_id=1, current_year=2012)
        for i, (uid, friends) in enumerate(friend_lists.items()):
            core.add_core(uid, 2012 + (i % 4), friends)
        table = score_candidates(core)
        assert set(table.scores) == core.candidate_set()


def reference_score_candidates(core, rule, denominator_floor):
    """Scoring as Eqs. 1-2 read literally: one owner set per candidate."""
    by_year = core.core_by_year()
    sizes = {
        year: max(len(uids), denominator_floor) if uids else 0
        for year, uids in by_year.items()
    }
    table = ScoreTable(rule=rule)
    for uid, owners in reverse_lookup_index(core.friend_lists).items():
        if uid in core.core:
            continue
        counts = {year: 0 for year in core.years}
        for owner in owners:
            year = core.core.get(owner)
            if year in counts:
                counts[year] += 1
        fractions = {
            year: (counts[year] / sizes[year]) if sizes.get(year) else 0.0
            for year in core.years
        }
        table.scores[uid] = CandidateScore(
            uid=uid,
            counts=counts,
            fractions=fractions,
            score=_fold(rule, fractions, counts),
            year=_argmax_year(fractions, counts),
        )
    return table


# Owners 0-11 may list each other (core members are never candidates),
# list the same friend twice, claim years around the four core years,
# or own a crawled list without being in the core at all.
owners_strategy = st.dictionaries(
    keys=st.integers(0, 11),
    values=st.tuples(
        st.integers(2010, 2017),
        st.lists(st.one_of(st.integers(0, 11), st.integers(100, 115)), max_size=12),
        st.booleans(),
    ),
    max_size=8,
)


class TestMatchesSetReference:
    @given(
        owners_strategy,
        st.sampled_from(list(ScoringRule)),
        st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_table_and_ranking(self, owners, rule, floor):
        core = CoreSet(school_id=1, current_year=2012)
        for uid, (year, friends, in_core) in owners.items():
            if in_core:
                core.add_core(uid, year, friends)
            else:
                core.friend_lists[uid] = list(friends)
        table = score_candidates(core, rule, floor)
        expected = reference_score_candidates(core, rule, floor)
        assert table.rule is expected.rule
        assert list(table.scores.items()) == list(expected.scores.items())
        assert table.ranked() == expected.ranked()
