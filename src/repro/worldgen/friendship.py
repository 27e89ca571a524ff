"""Friendship wiring: who is friends with whom, and why.

The attack's statistical power comes entirely from edge structure:

* dense same-cohort ties make ``|G_i(u)|/|C_i|`` large for true
  students (Eq. 2 of the paper);
* decaying cross-cohort and student–alumni ties both help (more core
  coverage) and hurt (former students and recent alumni score high,
  producing the false positives Section 5.4 dissects);
* large external friend counts dilute the candidate set by an order of
  magnitude (Table 2).

Edges are sampled block-wise (cohort × cohort) with numpy so that
HS2-scale worlds (~1.5k students, ~10k externals, ~1M edges) build in
seconds.  Attendance-window overlap scales down the probability for
transfer students and leavers, so someone who left two years ago shares
few friends with this year's freshmen — exactly the structure the paper
relies on when classifying by year.

numpy is optional (the ``scale`` extra): on a minimal install every
sampler falls back to a scalar pure-python loop driven by its own
seeded ``random.Random``.  Each backend is deterministic for a given
seed, but the two backends draw different edge sets — cross-backend
equality is not promised, and the numpy path never changes a single
draw when the fallback exists (same calls, same order).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

try:
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - minimal-install path
    np = None  # type: ignore[assignment]
    HAS_NUMPY = False

from repro.osn.network import SocialNetwork

from .accounts import AccountIndex
from .config import FriendshipConfig, WorldConfig
from .population import Person, Population, Role


@dataclass
class _Member:
    """A school-affiliated account with its attendance window."""

    uid: int
    window_start: float
    window_end: float


def _attendance_window(person: Person, now: float) -> Tuple[float, float]:
    """The (start, end) years this person attended their school."""
    if person.role is Role.STUDENT:
        return now - person.tenure_years, now
    if person.role is Role.FORMER_STUDENT:
        end = now - person.left_years_ago
        return end - person.tenure_years, end
    if person.role is Role.ALUMNUS:
        assert person.cohort_year is not None
        grad = person.cohort_year + 0.45  # graduates in June
        return grad - 4.0, grad
    raise ValueError(f"{person.role} has no attendance window")


class FriendshipBuilder:
    """Samples and installs every friendship edge in a world."""

    def __init__(
        self,
        config: WorldConfig,
        population: Population,
        network: SocialNetwork,
        index: AccountIndex,
        rng: random.Random,
    ) -> None:
        self.config = config
        self.population = population
        self.network = network
        self.index = index
        self.rng = rng
        # Both backends consume the same 64 bits from rng here, so the
        # caller's stream stays aligned whichever backend is active.
        sampler_seed = rng.getrandbits(64)
        self.np_rng = (
            np.random.default_rng(sampler_seed) if HAS_NUMPY else None
        )
        self._py_rng = random.Random(sampler_seed)
        self._edges: set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def build(self) -> int:
        """Create all edges; returns the number installed."""
        for school_index in range(len(self.config.schools)):
            self._build_school_edges(school_index)
        self._build_family_edges()
        self._build_external_edges()
        return self.network.graph.bulk_add_edges(self._edges)

    def _add_edge(self, a: int, b: int) -> None:
        if a == b:
            return
        self._edges.add((a, b) if a < b else (b, a))

    # ------------------------------------------------------------------
    # School blocks
    # ------------------------------------------------------------------
    def _school_groups(
        self, school_index: int
    ) -> Tuple[Dict[int, List[_Member]], Dict[int, List[int]]]:
        """(current members by cohort, alumni uids by cohort) with accounts."""
        now = self.config.observation_year
        current: Dict[int, List[_Member]] = {}
        for cohort, person_ids in self.population.students_by_school.get(
            school_index, {}
        ).items():
            members = current.setdefault(cohort, [])
            for pid in person_ids:
                uid = self.index.user_for(pid)
                if uid is not None:
                    start, end = _attendance_window(self.population.person(pid), now)
                    members.append(_Member(uid, start, end))
        for pid in self.population.former_by_school.get(school_index, []):
            person = self.population.person(pid)
            uid = self.index.user_for(pid)
            if uid is not None and person.cohort_year is not None:
                start, end = _attendance_window(person, now)
                current.setdefault(person.cohort_year, []).append(
                    _Member(uid, start, end)
                )
        alumni: Dict[int, List[int]] = {}
        for cohort, person_ids in self.population.alumni_by_school.get(
            school_index, {}
        ).items():
            uids = [
                uid
                for pid in person_ids
                if (uid := self.index.user_for(pid)) is not None
            ]
            if uids:
                alumni[cohort] = uids
        return current, alumni

    def _cohort_gap_p(self, gap: int) -> float:
        cfg = self.config.friendship
        table = (
            cfg.p_same_cohort,
            cfg.p_adjacent_cohort,
            cfg.p_two_cohort_gap,
            cfg.p_three_cohort_gap,
        )
        return table[gap] if gap < len(table) else 0.0

    def _build_school_edges(self, school_index: int) -> None:
        current, alumni = self._school_groups(school_index)
        cfg = self.config.friendship
        cohorts = sorted(current)

        # Current x current (students + former students), window-weighted.
        for i, ya in enumerate(cohorts):
            for yb in cohorts[i:]:
                base_p = self._cohort_gap_p(abs(yb - ya))
                if base_p <= 0:
                    continue
                if ya == yb:
                    self._within_block(current[ya], base_p)
                else:
                    self._cross_block(current[ya], current[yb], base_p)

        # Current x alumni, decaying with graduation gap.
        alumni_cohorts = sorted(alumni)
        for y_student in cohorts:
            members = current[y_student]
            uids_a = [m.uid for m in members]
            for y_alum in alumni_cohorts:
                gap = y_student - y_alum
                if gap < 1 or gap > 6:
                    continue
                p = cfg.p_student_alumni_base * (cfg.student_alumni_decay ** (gap - 1))
                self._sparse_bipartite(uids_a, alumni[y_alum], p)

        # Alumni x alumni: same and adjacent cohorts only.
        for i, ya in enumerate(alumni_cohorts):
            self._sparse_within(alumni[ya], cfg.p_alumni_same_cohort)
            if i + 1 < len(alumni_cohorts) and alumni_cohorts[i + 1] == ya + 1:
                self._sparse_bipartite(
                    alumni[ya], alumni[ya + 1], cfg.p_alumni_adjacent_cohort
                )

    # ------------------------------------------------------------------
    # Vectorised samplers (scalar pure-python fallbacks without numpy)
    # ------------------------------------------------------------------
    def _pair_overlap(self, a: _Member, b: _Member) -> float:
        """Scalar attendance-overlap factor for one pair (fallback path)."""
        horizon = self.config.friendship.tenure_overlap_years
        overlap = min(a.window_end, b.window_end) - max(a.window_start, b.window_start)
        return min(max(overlap / horizon, 0.0), 1.0)

    def _overlap_factor(
        self, members_a: Sequence[_Member], members_b: Sequence[_Member]
    ) -> "np.ndarray":
        """Pairwise attendance-overlap factor in [0, 1] (a × b matrix)."""
        horizon = self.config.friendship.tenure_overlap_years
        start_a = np.array([m.window_start for m in members_a])[:, None]
        end_a = np.array([m.window_end for m in members_a])[:, None]
        start_b = np.array([m.window_start for m in members_b])[None, :]
        end_b = np.array([m.window_end for m in members_b])[None, :]
        overlap = np.minimum(end_a, end_b) - np.maximum(start_a, start_b)
        return np.clip(overlap / horizon, 0.0, 1.0)

    def _within_block(self, members: Sequence[_Member], base_p: float) -> None:
        n = len(members)
        if n < 2:
            return
        if not HAS_NUMPY:
            for i in range(n):
                for j in range(i + 1, n):
                    p = base_p * self._pair_overlap(members[i], members[j])
                    if self._py_rng.random() < p:
                        self._add_edge(members[i].uid, members[j].uid)
            return
        probs = base_p * self._overlap_factor(members, members)
        iu, ju = np.triu_indices(n, k=1)
        hits = self.np_rng.random(iu.shape[0]) < probs[iu, ju]
        for i, j in zip(iu[hits], ju[hits]):
            self._add_edge(members[i].uid, members[j].uid)

    def _cross_block(
        self, members_a: Sequence[_Member], members_b: Sequence[_Member], base_p: float
    ) -> None:
        if not members_a or not members_b:
            return
        if not HAS_NUMPY:
            for a in members_a:
                for b in members_b:
                    if self._py_rng.random() < base_p * self._pair_overlap(a, b):
                        self._add_edge(a.uid, b.uid)
            return
        probs = base_p * self._overlap_factor(members_a, members_b)
        hits = self.np_rng.random(probs.shape) < probs
        for i, j in zip(*np.nonzero(hits)):
            self._add_edge(members_a[i].uid, members_b[j].uid)

    def _binomial_count(self, n_trials: int, p: float) -> int:
        """Fallback binomial draw (normal approximation above 64 trials)."""
        p = min(p, 1.0)
        if n_trials <= 64:
            return sum(self._py_rng.random() < p for _ in range(n_trials))
        mean = n_trials * p
        std = math.sqrt(n_trials * p * (1.0 - p))
        return max(0, min(n_trials, round(self._py_rng.gauss(mean, std))))

    def _sparse_bipartite(self, uids_a: Sequence[int], uids_b: Sequence[int], p: float) -> None:
        """Sample a sparse bipartite edge set without enumerating pairs."""
        na, nb = len(uids_a), len(uids_b)
        if na == 0 or nb == 0 or p <= 0:
            return
        if not HAS_NUMPY:
            for _ in range(self._binomial_count(na * nb, p)):
                self._add_edge(
                    uids_a[self._py_rng.randrange(na)],
                    uids_b[self._py_rng.randrange(nb)],
                )
            return
        count = self.np_rng.binomial(na * nb, min(p, 1.0))
        if count == 0:
            return
        ia = self.np_rng.integers(0, na, size=count)
        ib = self.np_rng.integers(0, nb, size=count)
        for i, j in zip(ia, ib):
            self._add_edge(uids_a[i], uids_b[j])

    def _sparse_within(self, uids: Sequence[int], p: float) -> None:
        n = len(uids)
        if n < 2 or p <= 0:
            return
        if not HAS_NUMPY:
            for _ in range(self._binomial_count(n * (n - 1) // 2, p)):
                i = self._py_rng.randrange(n)
                j = self._py_rng.randrange(n)
                if i != j:
                    self._add_edge(uids[i], uids[j])
            return
        n_pairs = n * (n - 1) // 2
        count = self.np_rng.binomial(n_pairs, min(p, 1.0))
        if count == 0:
            return
        ia = self.np_rng.integers(0, n, size=count)
        ib = self.np_rng.integers(0, n, size=count)
        for i, j in zip(ia, ib):
            if i != j:
                self._add_edge(uids[i], uids[j])

    # ------------------------------------------------------------------
    # Families
    # ------------------------------------------------------------------
    def _build_family_edges(self) -> None:
        p_friend = self.config.family.p_parent_friends_child
        for children, parents in self.population.households.values():
            for child_pid in children:
                child_uid = self.index.user_for(child_pid)
                if child_uid is None:
                    continue
                for parent_pid in parents:
                    parent_uid = self.index.user_for(parent_pid)
                    if parent_uid is not None and self.rng.random() < p_friend:
                        self._add_edge(child_uid, parent_uid)

    # ------------------------------------------------------------------
    # External friends
    # ------------------------------------------------------------------
    def _external_pool(self) -> List[int]:
        return [
            uid
            for role in (Role.EXTERNAL, Role.CITY_ADULT)
            for pid in self.population.ids_with_role(role)
            if (uid := self.index.user_for(pid)) is not None
        ]

    def _external_degree(self, median: float, sigma: float, size: int) -> Sequence[int]:
        mu = math.log(max(median, 1.0))
        if not HAS_NUMPY:
            return [
                max(1, int(self._py_rng.lognormvariate(mu, sigma)))
                for _ in range(size)
            ]
        return np.maximum(1, self.np_rng.lognormal(mu, sigma, size).astype(int))

    def _build_external_edges(self) -> None:
        cfg = self.config.friendship
        pool = self._external_pool()
        if not pool:
            return
        plans = (
            ((Role.STUDENT, Role.FORMER_STUDENT), cfg.student_external_median, cfg.student_external_sigma),
            ((Role.ALUMNUS,), cfg.alumni_external_median, cfg.alumni_external_sigma),
            ((Role.PARENT,), cfg.parent_external_median, cfg.parent_external_sigma),
        )
        for roles, median, sigma in plans:
            uids = [
                uid
                for role in roles
                for pid in self.population.ids_with_role(role)
                if (uid := self.index.user_for(pid)) is not None
            ]
            if not uids:
                continue
            degrees = self._external_degree(median, sigma, len(uids))
            if not HAS_NUMPY:
                for uid, k in zip(uids, degrees):
                    for t in self._py_rng.sample(pool, min(int(k), len(pool))):
                        self._add_edge(uid, t)
                continue
            # Drawing indices rather than ids is draw-for-draw identical,
            # and every edge endpoint then shares the pool's int object.
            for uid, k in zip(uids, degrees):
                picks = self.np_rng.choice(len(pool), size=min(int(k), len(pool)), replace=False)
                for i in picks.tolist():
                    self._add_edge(uid, pool[i])
