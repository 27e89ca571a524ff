"""The benchmark's three workloads, their ops and their correctness checks.

Each workload is a closed loop driven by :mod:`perfbench.harness`: the
harness calls :meth:`Workload.setup` a few times (timed apart from the
ops; the last set-up is the one the ops run on), then calls
:meth:`Workload.op` back to back, checking every op's output with
:meth:`Workload.check` outside the timed region.

The workloads reach the program only through its public entry points:
``build_world``/``preset``, ``colgen.generate``/``columnar_frontend``/
``session_accounts``, ``CrawlClient``, ``CrawlScheduler``/``CrawlPlan``,
``HighSchoolProfiler``, ``RenderCache``, ``Telemetry`` and the
network's public verbs and attributes (the benchmark plays the site
operator who flips the reverse-lookup defence, and the simulated targets
who answer friend requests).

``size="full"`` is the measured configuration; ``size="tiny"`` runs the
same code on the ``tiny`` preset and the ``smoke`` tier for the
benchmark's own tests.
"""

from __future__ import annotations

import gc
import hashlib
import random
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.colgen import generate
from repro.colgen.serve import columnar_frontend, session_accounts
from repro.core.profiler import HighSchoolProfiler, ProfilerConfig
from repro.crawler.accounts import AccountPool
from repro.crawler.client import CrawlClient
from repro.crawler.engine import CrawlPlan, CrawlRunResult, CrawlScheduler
from repro.crawler.effort import EffortReport
from repro.osn.rendercache import RenderCache
from repro.telemetry.runtime import Telemetry
from repro.worldgen.presets import preset
from repro.worldgen.world import build_world

SIZES = ("full", "tiny")


@dataclass
class OpResult:
    """What one op produced: its cost, its output, its program counters."""

    gets: int
    sim_s: float
    #: the raw output the check digests (outside the timed region).
    output: Any
    #: program-state counters for the ledger (effort, cache, sleeps, ...).
    counts: Dict[str, float] = field(default_factory=dict)


def digest(value: Any) -> str:
    """A short stable digest of an output (its repr is deterministic)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _effort_counts(counts: Dict[str, float], effort: EffortReport) -> None:
    counts["crawler.effort.seed_requests"] += effort.seed_requests
    counts["crawler.effort.profile_requests"] += effort.profile_requests
    counts["crawler.effort.friend_list_requests"] += effort.friend_list_requests
    counts["crawler.effort.other_requests"] += effort.other_requests


def _slept(client: CrawlClient, accounts: Sequence[int]) -> float:
    return sum(client.pacer_for(account).total_slept for account in accounts)


def _effort_tuple(effort: EffortReport) -> tuple:
    return (
        effort.seed_requests,
        effort.profile_requests,
        effort.friend_list_requests,
        effort.other_requests,
    )


class Workload:
    """One seeded workload: set-up, a repeatable op, and its checks."""

    name = ""
    #: attributes that hold one set-up's state.
    STATE: tuple = ()
    #: expected digests of the first ops, per (size, seed); a mismatch
    #: fails that op's check.
    golden: Dict[tuple, List[str]] = {}

    def __init__(self, seed: int, size: str = "full") -> None:
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}, got {size!r}")
        self.seed = seed
        self.size = size
        #: op index -> digest of its output, for the ops checked so far.
        self.digests: Dict[int, str] = {}

    def setup(self) -> Dict[str, float]:
        """Build the world and its serving stack; return phase seconds."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop the current set-up so the next one starts from nothing.

        Worlds hold reference cycles, so they are only freed by the
        cycle collector; collecting here keeps one world alive at a time.
        """
        self.__dict__.update({key: None for key in self.STATE})
        gc.collect()

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def reference(self, index: int) -> Optional[str]:
        """The digest op ``index`` must reproduce, if one is known yet."""
        return None

    def fingerprint(self, result: OpResult) -> Any:
        """The part of an op's output its digest covers."""
        return result.output

    def check(self, index: int, result: OpResult) -> Optional[str]:
        """``None`` if op ``index``'s output is correct, else why not."""
        found = digest(self.fingerprint(result))
        self.digests[index] = found
        golden = self.golden.get((self.size, self.seed), [])
        expected = golden[index] if index < len(golden) else self.reference(index)
        if expected is not None and found != expected:
            return f"op {index}: digest {found} != expected {expected}"
        return None

    def finish(self) -> Optional[str]:
        """A check run once after the last op; ``None`` if it holds."""
        return None


class Fig4Hs1(Workload):
    """The paper's Figure-4 experiment on HS1, repeated."""

    name = "fig4-hs1"
    golden = {("full", 1): ["5522e7e7064fe549"]}
    PRESETS = {"full": "hs1", "tiny": "tiny"}
    CONFIG = ProfilerConfig(threshold=500, epsilon=1.0, enhanced=True, filtering=True)
    ACCOUNTS = 2

    STATE = ("world",)

    def setup(self) -> Dict[str, float]:
        start = perf_counter()
        world = build_world(preset(self.PRESETS[self.size]))
        built = perf_counter()
        self.accounts = world.create_attacker_accounts(self.ACCOUNTS)
        self.school_id = world.school().school_id
        self.world = world
        return {"worldgen.build_world_s": built - start}

    def op(self, index: int) -> OpResult:
        world = self.world
        network = world.network
        counts: Dict[str, float] = defaultdict(float)
        outputs = []
        gets = 0
        version = network.version
        sim_start = world.clock.seconds()
        for reverse_lookup in (True, False):
            network.reverse_lookup_enabled = reverse_lookup
            client = CrawlClient(
                world.frontend, AccountPool.of(self.accounts), seed=self.seed
            )
            result = HighSchoolProfiler(client, self.school_id, self.CONFIG).run()
            effort = result.effort
            gets += effort.total
            _effort_counts(counts, effort)
            counts["crawler.politeness.slept_sim_s"] += _slept(client, self.accounts)
            counts["core.coreset.core_size"] += result.core.core_size
            outputs.append(
                (
                    reverse_lookup,
                    tuple(result.ranking),
                    tuple(sorted(result.core.claimed.items())),
                    result.core.core_size,
                    _effort_tuple(effort),
                )
            )
        network.reverse_lookup_enabled = True
        counts["osn.network.version_bumps"] = network.version - version
        counts["osn.ratelimit.accounts_disabled"] = sum(
            world.frontend.limiter.is_disabled(account) for account in self.accounts
        )
        return OpResult(gets, world.clock.seconds() - sim_start, tuple(outputs), counts)

    def reference(self, index: int) -> Optional[str]:
        # Reusing the same two accounts makes every op identical.
        return self.digests.get(0) if index > 0 else None


class RecrawlCity(Workload):
    """Round-robin re-crawls of six schools of the columnar city."""

    name = "recrawl-city"
    golden = {
        ("full", 1): [
            "d30b3bab371521d6",
            "3883800543c6c288",
            "12cdcba09c22c045",
            "5aa2d4f4f3118815",
            "1f5fac282cc179aa",
            "0988842c20c93a87",
        ]
    }
    TIERS = {"full": "city", "tiny": "smoke"}
    ACCOUNTS = 8
    #: six schools' distinct pages (about 3,600) fit the default
    #: 4,096-entry cache, so every pass after the first is served warm.
    SCHOOLS = 6

    STATE = ("frontend",)

    def setup(self) -> Dict[str, float]:
        start = perf_counter()
        world = generate(self.TIERS[self.size], seed=self.seed)
        generated = perf_counter()
        frontend = columnar_frontend(world, cache=RenderCache())
        served = perf_counter()
        self.accounts = session_accounts(frontend, self.ACCOUNTS)
        schools = sorted(frontend.network.schools)
        picked = random.Random(self.seed).sample(
            schools, min(self.SCHOOLS, len(schools))
        )
        self.schools = sorted(picked)
        self.frontend = frontend
        return {
            "colgen.generate_s": generated - start,
            "colgen.frontend_s": served - generated,
        }

    def op(self, index: int) -> OpResult:
        frontend = self.frontend
        cache = frontend.cache
        before = (cache.hits, cache.misses, cache.evictions, frontend.network.version)
        client = CrawlClient(frontend, AccountPool.of(self.accounts), seed=self.seed)
        school_id = self.schools[index % len(self.schools)]
        result = CrawlScheduler(client, CrawlPlan(school_id=school_id)).run()
        counts: Dict[str, float] = defaultdict(float)
        _effort_counts(counts, result.effort)
        counts["crawler.engine.sim_s"] = result.sim_seconds
        counts["crawler.politeness.slept_sim_s"] = _slept(client, self.accounts)
        counts["osn.rendercache.hits"] = cache.hits - before[0]
        counts["osn.rendercache.misses"] = cache.misses - before[1]
        counts["osn.rendercache.evictions"] = cache.evictions - before[2]
        counts["osn.network.version_bumps"] = frontend.network.version - before[3]
        counts["osn.ratelimit.accounts_disabled"] = sum(
            frontend.limiter.is_disabled(account) for account in self.accounts
        )
        return OpResult(result.effort.total, result.sim_seconds, (school_id, result), counts)

    def fingerprint(self, result: OpResult) -> Any:
        school_id, crawl = result.output
        return school_id, crawl.result_signature()

    def reference(self, index: int) -> Optional[str]:
        # Cache-served passes must equal the cold first pass, school by school.
        first = index % len(self.schools)
        return self.digests.get(first) if index >= len(self.schools) else None


class BefriendHs1(Workload):
    """Crawl rounds interleaved with friend requests and messages."""

    name = "befriend-hs1"
    golden = {("full", 1): ["ae57a9811022fba3", "11dea890bcf9a807", "da769fa86c417f21"]}
    PRESETS = {"full": "hs1", "tiny": "tiny"}
    #: 4 crawl accounts: the lowest-id one harvests the portal and never
    #: sends a request; the other 3 send the requests and messages.
    SENDERS = 3
    #: crawled seeds contacted per round, and the share that accepts.
    SLICE = 16
    ACCEPT_SHARE = 0.5
    MESSAGE = "hi! we met at the game last week"
    #: rounds per generation of senders.  The senders' friendships grow
    #: round by round (pages render as friend or friend-of-friend, and
    #: crawls get cheaper), so every EPISODE rounds they are replaced by
    #: fresh accounts: the state a round starts from stays bounded, and
    #: the per-round figures do not drift with the number of rounds a run
    #: completes.  The harvester stays, so every episode crawls the same
    #: per-account portal sample.
    EPISODE = 8

    STATE = ("world",)

    def setup(self) -> Dict[str, float]:
        start = perf_counter()
        world = build_world(preset(self.PRESETS[self.size]))
        built = perf_counter()
        world.frontend.set_cache(RenderCache())
        self.harvester, *self.senders = world.create_attacker_accounts(1 + self.SENDERS)
        self.school_id = world.school().school_id
        self.cursor = 0
        self.world = world
        return {"worldgen.build_world_s": built - start}

    def _crawl(
        self, telemetry: Optional[Telemetry] = None
    ) -> Tuple[CrawlClient, CrawlRunResult]:
        client = CrawlClient(
            self.world.frontend,
            AccountPool.of([self.harvester, *self.senders]),
            seed=self.seed,
            telemetry=telemetry,
        )
        return client, CrawlScheduler(client, CrawlPlan(school_id=self.school_id)).run()

    def op(self, index: int) -> OpResult:
        world = self.world
        frontend = world.frontend
        network = world.network
        cache = frontend.cache
        before = (cache.hits, cache.misses, cache.evictions, network.version)
        sim_start = world.clock.seconds()
        if index and index % self.EPISODE == 0:
            self.senders = world.create_attacker_accounts(self.SENDERS)
        # One telemetry session per crawl round, as `attack --telemetry`
        # keeps one per session.
        telemetry = Telemetry.in_memory(world.clock)
        frontend.set_telemetry(telemetry)
        crawler, result = self._crawl(telemetry)

        seeds = sorted(result.seeds)
        targets = [seeds[(self.cursor + i) % len(seeds)] for i in range(self.SLICE)]
        self.cursor += self.SLICE
        senders = {
            account: CrawlClient(
                frontend, AccountPool.of([account]), seed=self.seed, telemetry=telemetry
            )
            for account in self.senders
        }
        requested = []
        messaged = []
        for position, uid in enumerate(targets):
            account = self.senders[position % len(self.senders)]
            sender = senders[account]
            if sender.send_friend_request(uid):
                requested.append((account, uid))
            messaged.append(sender.send_message(uid, self.MESSAGE))
        # The simulated targets answer; each acceptance bumps the version.
        answers = random.Random(self.seed * 1_000_003 + index)
        accepted = []
        for account, uid in requested:
            accept = answers.random() < self.ACCEPT_SHARE
            network.respond_to_friend_request(uid, account, accept)
            accepted.append(accept)
        frontend.set_telemetry(None)
        telemetry.close()

        counts: Dict[str, float] = defaultdict(float)
        # Every client of the round counts into the session's registry,
        # so one report covers the crawl's GETs and the senders' POSTs.
        _effort_counts(counts, crawler.effort_report())
        for account, sender in senders.items():
            counts["crawler.politeness.slept_sim_s"] += sender.pacer_for(account).total_slept
        counts["crawler.engine.sim_s"] = result.sim_seconds
        accounts = [self.harvester, *self.senders]
        counts["crawler.politeness.slept_sim_s"] += _slept(crawler, accounts)
        counts["osn.rendercache.hits"] = cache.hits - before[0]
        counts["osn.rendercache.misses"] = cache.misses - before[1]
        counts["osn.rendercache.evictions"] = cache.evictions - before[2]
        counts["osn.network.version_bumps"] = network.version - before[3]
        counts["osn.ratelimit.accounts_disabled"] = sum(
            frontend.limiter.is_disabled(account) for account in accounts
        )
        counts["telemetry.events"] = telemetry.event_count
        return OpResult(
            result.effort.total,
            world.clock.seconds() - sim_start,
            (result, targets, tuple(requested), tuple(messaged), tuple(accepted)),
            counts,
        )

    def fingerprint(self, result: OpResult) -> Any:
        crawl, *writes = result.output
        return (crawl.result_signature(), *writes)

    def check(self, index: int, result: OpResult) -> Optional[str]:
        crawl = result.output[0]
        if set(crawl.profiles) != set(crawl.seeds) or crawl.effort.total != crawl.pages:
            return f"op {index}: crawl skipped seeds or miscounted its GETs"
        return super().check(index, result)

    def finish(self) -> Optional[str]:
        """After the last round's writes, cached must equal uncached.

        A stale page surviving a version bump would make the cached
        re-crawl differ from the crawl with the cache detached.
        """
        frontend = self.world.frontend
        cached = self._crawl()[1].result_signature()
        cache = frontend.cache
        frontend.set_cache(None)
        try:
            uncached = self._crawl()[1].result_signature()
        finally:
            frontend.set_cache(cache)
        if cached != uncached:
            return "cached re-crawl differs from the uncached one: a stale page survived"
        return None


WORKLOADS = {cls.name: cls for cls in (Fig4Hs1, RecrawlCity, BefriendHs1)}
