"""The async crawl engine: determinism, pool invariance, client parity.

The engine's promises: same seed + pool + plan reproduce the run
bit-for-bit (visit order, effort, simulated clock); the ``jobs`` knob
never changes results; pools of different sizes crawl the *same* result
set at the same per-category effort, only faster in simulated time; and
a single-account engine run observes exactly what the sequential
``CrawlClient`` observes.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.crawler.accounts import AccountPool
from repro.crawler.client import CrawlClient, FriendListTruncatedError
from repro.crawler.engine import CrawlPlan, CrawlScheduler, TurnDispatcher
from repro.osn.frontend import HtmlFrontend
from repro.osn.clock import SimClock
from repro.worldgen.presets import tiny
from repro.worldgen.world import build_world

from .test_crawler_client import befriend_many

_SEED = 7
_BUDGET = 12


def engine_run(pool_size: int, jobs: int = 1, budget: int = _BUDGET):
    """A full scheduler run on a private tiny world."""
    world = build_world(tiny(seed=_SEED))
    uids = world.create_attacker_accounts(pool_size)
    client = CrawlClient(world.frontend, AccountPool.of(uids), seed=_SEED)
    plan = CrawlPlan(school_id=world.school().school_id, max_profiles=budget)
    return CrawlScheduler(client, plan, jobs=jobs).run()


def categories(result):
    report = result.effort
    return (
        report.seed_requests,
        report.profile_requests,
        report.friend_list_requests,
        report.other_requests,
    )


class TestTurnDispatcher:
    def test_wakes_sleepers_in_simulated_time_order(self):
        clock = SimClock(now_year=2012.25)
        turns = TurnDispatcher(clock)
        order = []

        async def sleeper(name, delay):
            await turns.sleep(delay)
            order.append((name, clock.seconds()))

        async def scenario():
            workers = [sleeper("late", 5.0), sleeper("early", 1.0), sleeper("mid", 3.0)]
            for _ in workers:
                turns.register()
            await asyncio.gather(*(guard(w) for w in workers))

        async def guard(worker):
            try:
                await worker
            finally:
                turns.finish()

        start = clock.seconds()
        asyncio.run(scenario())
        assert [name for name, _ in order] == ["early", "mid", "late"]
        # The shared clock advanced to each wake instant, not the sum.
        assert [t - start for _, t in order] == [1.0, 3.0, 5.0]

    def test_ties_break_by_registration_order(self):
        clock = SimClock(now_year=2012.25)
        turns = TurnDispatcher(clock, jobs=1)
        order = []

        async def sleeper(name):
            await turns.sleep(2.0)
            order.append(name)

        async def guard(worker):
            try:
                await worker
            finally:
                turns.finish()

        async def scenario():
            workers = [sleeper("a"), sleeper("b"), sleeper("c")]
            for _ in workers:
                turns.register()
            await asyncio.gather(*(guard(w) for w in workers))

        asyncio.run(scenario())
        assert order == ["a", "b", "c"]


class TestDeterminism:
    def test_identical_reruns(self):
        first = engine_run(3)
        second = engine_run(3)
        assert first.visit_order == second.visit_order
        assert first.result_signature() == second.result_signature()
        assert first.effort == second.effort
        assert first.sim_seconds == second.sim_seconds
        assert first.pages_by_account == second.pages_by_account

    def test_jobs_knob_cannot_change_results(self):
        serial = engine_run(4, jobs=1)
        batched = engine_run(4, jobs=4)
        assert serial.visit_order == batched.visit_order
        assert serial.result_signature() == batched.result_signature()
        assert serial.sim_seconds == batched.sim_seconds
        assert serial.effort == batched.effort


class TestPoolInvariance:
    def test_same_results_faster_clock(self):
        solo = engine_run(1)
        pooled = engine_run(3)
        assert pooled.result_signature() == solo.result_signature()
        assert categories(pooled) == categories(solo)
        assert pooled.pages == solo.pages
        # Concurrency overlaps the politeness waits: strictly faster.
        assert pooled.sim_seconds < solo.sim_seconds
        # Every account actually participated in the drain phase.
        assert len(pooled.pages_by_account) == 3

    def test_budget_bounds_the_result_set(self):
        tight = engine_run(2, budget=5)
        assert len(tight.profiles) == 5
        assert len(tight.friend_lists) == 5
        assert sorted(tight.profiles) == sorted(tight.seeds)[:5]


class TestClientParity:
    def test_single_account_engine_matches_sequential_client(self):
        result = engine_run(1, budget=_BUDGET)

        world = build_world(tiny(seed=_SEED))
        uids = world.create_attacker_accounts(1)
        client = CrawlClient(world.frontend, AccountPool.of(uids), seed=_SEED)
        school_id = world.school().school_id
        seeds = client.collect_seeds(school_id)
        targets = sorted(seeds)[:_BUDGET]
        profiles = {uid: client.fetch_profile(uid) for uid in targets}
        friend_lists = {uid: client.fetch_friend_list(uid) for uid in targets}

        assert result.seeds == seeds
        assert result.profiles == profiles
        assert result.friend_lists == friend_lists
        assert categories(result) == (
            client.effort_report().seed_requests,
            client.effort_report().profile_requests,
            client.effort_report().friend_list_requests,
            client.effort_report().other_requests,
        )


class TestPlanValidation:
    def test_harvest_account_pinning(self):
        # More harvest accounts may surface more seeds, but the pinned
        # default keeps the seed set identical across pool sizes.
        solo = engine_run(1)
        pooled = engine_run(4)
        assert solo.seeds == pooled.seeds

    def test_fetch_friend_lists_toggle(self):
        world = build_world(tiny(seed=_SEED))
        uids = world.create_attacker_accounts(2)
        client = CrawlClient(world.frontend, AccountPool.of(uids), seed=_SEED)
        plan = CrawlPlan(
            school_id=world.school().school_id,
            max_profiles=4,
            fetch_friend_lists=False,
        )
        result = CrawlScheduler(client, plan).run()
        assert len(result.profiles) == 4
        assert result.friend_lists == {}
        assert result.effort.friend_list_requests == 0


class TestFriendPageCap:
    def test_page_cap_raises_instead_of_truncating(self, school_network):
        net, school, accounts = school_network
        alumnus = accounts["alumnus"].user_id
        befriend_many(net, alumnus, 44)  # 45 friends: pages of 20, 20, 5

        def crawl(max_friend_pages):
            client = CrawlClient(
                HtmlFrontend(net), AccountPool.of([accounts["crawler"].user_id])
            )
            plan = CrawlPlan(school.school_id, max_friend_pages=max_friend_pages)
            return CrawlScheduler(client, plan).run()

        with pytest.raises(FriendListTruncatedError) as caught:
            crawl(2)
        assert (caught.value.user_id, caught.value.fetched) == (alumnus, 40)
        assert len(crawl(3).friend_lists[alumnus]) == 45
