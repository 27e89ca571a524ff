"""Reverse lookup and candidate scoring (paper, Section 4.1 steps 4–5).

For every candidate u ∈ K the attacker computes, per class year i,

    G_i(u) = { v ∈ C_i : u ∈ F(v) }          (Eq. 1)

— *without fetching anything about u*: G_i is read off the already
crawled core friend lists ("reverse lookup").  The score is

    x(u) = max_i |G_i(u)| / |C_i|            (Eq. 2)

and the argmax year is the candidate's inferred class year.  Alternate
scoring rules (sum of fractions, raw counts) are provided for the
ablation benchmarks.

One robustness addition over the paper: a *denominator floor*.  When a
class-year core C_i is very thin (one or two users), Eq. 2 degenerates —
any single friend of that core user scores 1.0 and floods the top of
the ranking with noise.  ``denominator_floor`` (default 3) computes the
fraction as |G_i(u)| / max(|C_i|, floor); with healthy cores (the
paper's |C_i| of 4-5) it changes almost nothing, with degenerate ones
it keeps the ranking sane.  Set it to 1 for the literal Eq. 2.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .coreset import CoreSet


class ScoringRule(str, enum.Enum):
    """How per-year reverse-lookup evidence folds into one score."""

    MAX_FRACTION = "max_fraction"  # the paper's x(u)
    SUM_FRACTION = "sum_fraction"  # ablation: sum_i |G_i|/|C_i|
    RAW_COUNT = "raw_count"        # ablation: total core friends


@dataclass
class CandidateScore:
    """Reverse-lookup evidence for one candidate."""

    uid: int
    counts: Dict[int, int]          # year -> |G_i(u)|
    fractions: Dict[int, float]     # year -> |G_i(u)| / |C_i|
    score: float                    # x(u) under the chosen rule
    year: Optional[int]             # argmax year (None if no evidence)


@dataclass
class ScoreTable:
    """Scores for every candidate, rank-orderable."""

    scores: Dict[int, CandidateScore] = field(default_factory=dict)
    rule: ScoringRule = ScoringRule.MAX_FRACTION

    def ranked(self, exclude: Optional[Set[int]] = None) -> List[int]:
        """Candidate uids from highest to lowest score.

        Ties break on higher total core-friend count, then on uid, so
        the ordering is deterministic across runs.
        """
        exclude = exclude or set()
        return sorted(
            (uid for uid in self.scores if uid not in exclude),
            key=lambda uid: (
                -self.scores[uid].score,
                -sum(self.scores[uid].counts.values()),
                uid,
            ),
        )

    def year_of(self, uid: int) -> Optional[int]:
        entry = self.scores.get(uid)
        return entry.year if entry else None

    def __len__(self) -> int:
        return len(self.scores)

    def __contains__(self, uid: int) -> bool:
        return uid in self.scores


def reverse_lookup_index(
    friend_lists: Mapping[int, Sequence[int]]
) -> Dict[int, Set[int]]:
    """candidate uid -> set of core owners whose lists contain it."""
    index: Dict[int, Set[int]] = {}
    for owner, friends in friend_lists.items():
        for friend in friends:
            index.setdefault(friend, set()).add(owner)
    return index


def _fold(rule: ScoringRule, fractions: Dict[int, float], counts: Dict[int, int]) -> float:
    if rule is ScoringRule.MAX_FRACTION:
        return max(fractions.values(), default=0.0)
    if rule is ScoringRule.SUM_FRACTION:
        return sum(fractions.values())
    if rule is ScoringRule.RAW_COUNT:
        return float(sum(counts.values()))
    raise ValueError(f"unknown scoring rule: {rule}")


def score_candidates(
    core: CoreSet,
    rule: ScoringRule = ScoringRule.MAX_FRACTION,
    denominator_floor: int = 3,
) -> ScoreTable:
    """Score every candidate in K against the core class sets.

    The year assignment follows the paper: the class year i with the
    highest |G_i(u)|/|C_i|, ties broken toward the year with more raw
    core friends, then the earlier year.  ``denominator_floor`` guards
    against degenerate one-member year-cores (see module docstring).
    """
    if denominator_floor < 1:
        raise ValueError("denominator_floor must be at least 1")
    years = core.years
    by_year = core.core_by_year()
    sizes = {
        year: max(len(uids), denominator_floor) if uids else 0
        for year, uids in by_year.items()
    }
    # One pass over the crawled lists: each owner adds its distinct
    # friends to its class year's tally, so |G_i(u)| = tallies[i][u]
    # without building the Eq. 1 owner set of every candidate.
    tallies: Dict[int, Counter] = {year: Counter() for year in years}
    for owner, friends in core.friend_lists.items():
        tally = tallies.get(core.core.get(owner))
        if tally is not None:
            tally.update(set(friends))
    table = ScoreTable(rule=rule)

    # Candidates in first-appearance order across the lists.
    for uid in dict.fromkeys(chain.from_iterable(core.friend_lists.values())):
        if uid in core.core:
            continue
        counts = {year: tallies[year].get(uid, 0) for year in years}
        fractions = {
            year: (counts[year] / sizes[year]) if sizes[year] else 0.0
            for year in years
        }
        table.scores[uid] = CandidateScore(
            uid=uid,
            counts=counts,
            fractions=fractions,
            score=_fold(rule, fractions, counts),
            year=_argmax_year(fractions, counts),
        )
    return table


def _argmax_year(
    fractions: Dict[int, float], counts: Dict[int, int]
) -> Optional[int]:
    if not any(counts.values()):
        return None
    return max(fractions, key=lambda y: (fractions[y], counts[y], -y))
