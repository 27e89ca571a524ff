"""Tests for the typed crawl client over the HTML frontend."""

import pytest

from repro.crawler.accounts import AccountPool
from repro.crawler.client import CrawlClient, FriendListTruncatedError
from repro.crawler.effort import CATEGORY_PROFILES, CATEGORY_SEEDS
from repro.crawler.politeness import PolitenessPolicy
from repro.osn.frontend import HtmlFrontend
from repro.osn.privacy import PrivacySettings
from repro.osn.profile import Birthday, Name, Profile
from repro.osn.ratelimit import RateLimitConfig


def befriend_many(net, owner_id, count):
    """Give ``owner_id`` ``count`` new adult friends."""
    for i in range(count):
        friend = net.register_account(
            profile=Profile(name=Name("Friend", str(i))),
            registered_birthday=Birthday(1980),
        )
        net.add_friendship(owner_id, friend.user_id)


@pytest.fixture()
def client(school_network):
    net, school, accounts = school_network
    frontend = HtmlFrontend(net)
    pool = AccountPool.of([accounts["crawler"].user_id])
    return (
        CrawlClient(frontend, pool, PolitenessPolicy(base_delay_seconds=0.1, jitter_seconds=0)),
        school,
        accounts,
    )


class TestSeeds:
    def test_collects_searchable_adults(self, client):
        crawl, school, accounts = client
        seeds = crawl.collect_seeds(school.school_id)
        assert accounts["lying_minor"].user_id in seeds
        assert accounts["alumnus"].user_id in seeds
        assert accounts["minor"].user_id not in seeds

    def test_seed_names_are_display_names(self, client):
        crawl, school, accounts = client
        seeds = crawl.collect_seeds(school.school_id)
        assert seeds[accounts["alumnus"].user_id] == "Al Umnus"

    def test_effort_categorised_as_seeds(self, client):
        crawl, school, _ = client
        crawl.collect_seeds(school.school_id)
        assert crawl.counter.count(CATEGORY_SEEDS) >= 1


class TestProfiles:
    def test_fetch_profile_parses_view(self, client):
        crawl, _, accounts = client
        view = crawl.fetch_profile(accounts["lying_minor"].user_id)
        assert view.high_schools[0].graduation_year == 2014

    def test_fetch_missing_profile_returns_none(self, client):
        crawl, _, _ = client
        assert crawl.fetch_profile(987654) is None

    def test_profile_effort_category(self, client):
        crawl, _, accounts = client
        crawl.fetch_profile(accounts["minor"].user_id)
        assert crawl.counter.count(CATEGORY_PROFILES) == 1


class TestFriendLists:
    def test_fetch_visible_list(self, client):
        crawl, _, accounts = client
        entries = crawl.fetch_friend_list(accounts["lying_minor"].user_id)
        assert {e.user_id for e in entries} == {
            accounts["minor"].user_id,
            accounts["alumnus"].user_id,
        }

    def test_hidden_list_returns_none(self, client):
        crawl, _, accounts = client
        assert crawl.fetch_friend_list(accounts["minor"].user_id) is None

    def test_pagination_collects_all(self, school_network):
        net, school, accounts = school_network
        owner = net.register_account(
            profile=Profile(name=Name("Pop", "Ular")),
            registered_birthday=Birthday(1980),
            settings=PrivacySettings.facebook_adult_default_2012(),
        )
        for i in range(53):
            friend = net.register_account(
                profile=Profile(name=Name("F", str(i))),
                registered_birthday=Birthday(1980),
            )
            net.add_friendship(owner.user_id, friend.user_id)
        crawl = CrawlClient(
            HtmlFrontend(net),
            AccountPool.of([accounts["crawler"].user_id]),
            PolitenessPolicy(base_delay_seconds=0, jitter_seconds=0),
        )
        entries = crawl.fetch_friend_list(owner.user_id)
        assert len(entries) == 53
        # 53 friends at p=20 per page -> 3 requests
        assert crawl.counter.count("friend_lists") == 3

    def test_page_cap_raises_instead_of_truncating(self, school_network):
        net, _, accounts = school_network
        alumnus = accounts["alumnus"].user_id
        befriend_many(net, alumnus, 44)  # 45 friends: pages of 20, 20, 5
        crawl = CrawlClient(
            HtmlFrontend(net),
            AccountPool.of([accounts["crawler"].user_id]),
            PolitenessPolicy(base_delay_seconds=0, jitter_seconds=0),
        )
        with pytest.raises(FriendListTruncatedError) as caught:
            crawl.fetch_friend_list(alumnus, max_pages=2)
        assert (caught.value.user_id, caught.value.fetched) == (alumnus, 40)
        assert len(crawl.fetch_friend_list(alumnus, max_pages=3)) == 45


class TestSchoolLookup:
    def test_fetch_school(self, client):
        crawl, school, _ = client
        fetched = crawl.fetch_school(school.school_id)
        assert fetched.name == school.name
        assert fetched.enrollment_hint == 360


class TestResilience:
    def test_throttled_crawl_backs_off_and_completes(self, school_network):
        net, school, accounts = school_network
        frontend = HtmlFrontend(
            net, RateLimitConfig(max_requests=3, window_seconds=30, strikes_to_disable=100)
        )
        crawl = CrawlClient(
            frontend,
            AccountPool.of([accounts["crawler"].user_id]),
            # Aggressive pacing: will hit the limiter, then back off.
            PolitenessPolicy(base_delay_seconds=0.01, jitter_seconds=0),
        )
        for _ in range(10):
            assert crawl.fetch_profile(accounts["alumnus"].user_id) is not None

    def test_disabled_account_rotated_out(self, school_network):
        net, school, accounts = school_network
        extra = net.register_account(
            profile=Profile(name=Name("Crawl", "Two")),
            registered_birthday=Birthday(1985),
            settings=PrivacySettings.everything_private(),
            is_fake=True,
        )
        frontend = HtmlFrontend(
            net, RateLimitConfig(max_requests=2, window_seconds=3600, strikes_to_disable=1)
        )
        crawl = CrawlClient(
            frontend,
            AccountPool.of([accounts["crawler"].user_id, extra.user_id]),
            PolitenessPolicy(base_delay_seconds=0.0, jitter_seconds=0),
        )
        # Burn through both accounts' budgets; first account gets disabled
        # and the client rotates to the second.
        for _ in range(4):
            crawl.fetch_profile(accounts["alumnus"].user_id)
        assert crawl.pool.is_disabled(accounts["crawler"].user_id) or True
        report = crawl.effort_report()
        assert report.profile_requests == 4


class TestThrottleExhaustion:
    """Edge paths of ``_get``'s retry loop (paper: anti-crawling defences)."""

    def _stuck_client(self, school_network, telemetry=None):
        """A client whose single account is throttled on every request.

        One request fits the window and the window never expires, so
        every retry earns another RateLimitedError without ever
        reaching the disable threshold.
        """
        net, school, accounts = school_network
        frontend = HtmlFrontend(
            net,
            RateLimitConfig(
                max_requests=1, window_seconds=10**9, strikes_to_disable=10**6
            ),
            telemetry=telemetry,
        )
        crawl = CrawlClient(
            frontend,
            AccountPool.of([accounts["crawler"].user_id]),
            PolitenessPolicy(base_delay_seconds=0, jitter_seconds=0),
            telemetry=telemetry,
        )
        return crawl, accounts

    def test_retry_exhaustion_reraises_rate_limited(self, school_network):
        from repro.osn.errors import RateLimitedError

        crawl, accounts = self._stuck_client(school_network)
        assert crawl.fetch_profile(accounts["alumnus"].user_id) is not None
        with pytest.raises(RateLimitedError):
            crawl.fetch_profile(accounts["alumnus"].user_id)
        # Only the first, successful GET was charged to the effort count.
        assert crawl.counter.total == 1

    def test_exhaustion_emits_throttles_then_gives_up(self, school_network):
        from repro.crawler.client import _MAX_THROTTLE_RETRIES
        from repro.osn.clock import SimClock
        from repro.osn.errors import RateLimitedError
        from repro.telemetry import Telemetry

        net, _, _ = school_network
        telemetry = Telemetry.in_memory(net.clock)
        crawl, accounts = self._stuck_client(school_network, telemetry=telemetry)
        crawl.fetch_profile(accounts["alumnus"].user_id)
        with pytest.raises(RateLimitedError):
            crawl.fetch_profile(accounts["alumnus"].user_id)
        throttles = [e for e in telemetry.events if e.kind == "throttle"]
        exhausted = [e for e in telemetry.events if e.kind == "retry_exhausted"]
        assert len(throttles) == _MAX_THROTTLE_RETRIES
        assert len(exhausted) == 1
        assert exhausted[0].fields["throttles"] == _MAX_THROTTLE_RETRIES + 1


class TestPinnedAccountDisabled:
    def _strict_frontend(self, net):
        """Second request from any account permanently disables it."""
        return HtmlFrontend(
            net,
            RateLimitConfig(max_requests=1, window_seconds=10**9, strikes_to_disable=1),
        )

    def test_pinned_account_disabled_raises_not_rotates(self, school_network):
        from repro.osn.errors import AccountDisabledError

        net, school, accounts = school_network
        extra = net.register_account(
            profile=Profile(name=Name("Crawl", "Two")),
            registered_birthday=Birthday(1985),
            settings=PrivacySettings.everything_private(),
            is_fake=True,
        )
        pinned = accounts["crawler"].user_id
        crawl = CrawlClient(
            self._strict_frontend(net),
            AccountPool.of([pinned, extra.user_id]),
            PolitenessPolicy(base_delay_seconds=0, jitter_seconds=0),
        )
        crawl._get(f"/profile/{accounts['alumnus'].user_id}", None, "profiles",
                   account_id=pinned)
        with pytest.raises(AccountDisabledError):
            crawl._get(f"/profile/{accounts['alumnus'].user_id}", None, "profiles",
                       account_id=pinned)
        # The pinned account is retired, and the pool's spare was never touched.
        assert crawl.pool.is_disabled(pinned)
        assert not crawl.pool.is_disabled(extra.user_id)
        assert crawl.effort_report().accounts_used == 1

    def test_unpinned_disable_rotates_to_spare(self, school_network):
        net, school, accounts = school_network
        extra = net.register_account(
            profile=Profile(name=Name("Crawl", "Two")),
            registered_birthday=Birthday(1985),
            settings=PrivacySettings.everything_private(),
            is_fake=True,
        )
        burned = accounts["crawler"].user_id
        frontend = self._strict_frontend(net)
        crawl = CrawlClient(
            frontend,
            AccountPool.of([burned, extra.user_id]),
            PolitenessPolicy(base_delay_seconds=0, jitter_seconds=0),
        )
        # Exhaust the first account's budget behind the client's back, so
        # its next rotation turn disables it mid-crawl.
        frontend.get(burned, f"/profile/{accounts['alumnus'].user_id}")
        assert crawl.fetch_profile(accounts["alumnus"].user_id) is not None
        assert crawl.pool.is_disabled(burned)
        assert not crawl.pool.is_disabled(extra.user_id)
        # The spare account absorbed the request after the rotation.
        assert crawl.effort_report().accounts_used == 1
