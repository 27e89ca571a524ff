"""Columnar serving vs the object network: byte-for-byte page identity.

An encoder-built :class:`ColumnarWorld` served through
:class:`ColumnarNetwork` must be indistinguishable *at the HTML level*
from the object world it encodes — same bytes on every GET route for
every viewer class, same errors with the same messages, same POST
behaviour.  The crawl engine and the benches lean on this: a columnar
crawl's parsed result set must equal the object crawl's exactly.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.colgen import encode_world, generate
from repro.colgen.serve import columnar_frontend, frontend_for_object_world
from repro.osn.errors import BadRequestError, ForbiddenError, NotFoundError, OsnError
from repro.osn.frontend import HtmlFrontend
from repro.osn.pages import parse_friends_page, parse_profile_page, parse_search_page
from repro.osn.policy import policy_by_name
from repro.osn.privacy import Audience, ProfileField
from repro.osn.ratelimit import RateLimitConfig
from repro.osn.rendercache import RenderCache
from repro.worldgen.presets import tiny
from repro.worldgen.world import build_world


def _serve_pair(reverse_lookup_enabled):
    """(world, object frontend, columnar frontend, viewer uids).

    The attacker accounts are registered *before* encoding, so both
    sides serve an identical account universe; neither frontend has a
    rate limiter, keeping the walk politeness-free.
    """
    world = build_world(tiny(seed=13))
    world.network.reverse_lookup_enabled = reverse_lookup_enabled
    viewers = world.create_attacker_accounts(2)
    # Effectively unlimited: the walk makes thousands of unpaced GETs,
    # and a tripped limiter would make the comparison vacuous (both
    # sides returning AccountDisabledError still compares equal).
    no_limit = RateLimitConfig(max_requests=10**9, window_seconds=1.0)
    object_fe = HtmlFrontend(world.network, no_limit)
    config = world.config
    columnar_fe = columnar_frontend(
        encode_world(world),
        policy=policy_by_name(config.site),
        search_result_cap=config.osn.search_result_cap,
        search_page_size=config.osn.search_page_size,
        friends_page_size=config.osn.friends_page_size,
        search_salt=config.seed,
        rate_limit=no_limit,
        reverse_lookup_enabled=reverse_lookup_enabled,
    )
    return world, object_fe, columnar_fe, viewers


@pytest.fixture(scope="module")
def serve_pair():
    return _serve_pair(reverse_lookup_enabled=True)


def outcome(frontend, viewer, path, params=None):
    """The page, or the error as a comparable (type name, message)."""
    try:
        return frontend.get(viewer, path, params)
    except OsnError as exc:
        return (type(exc).__name__, str(exc))


def assert_identical(pair, viewer, path, params=None):
    _, object_fe, columnar_fe, _ = pair
    object_out = outcome(object_fe, viewer, path, params)
    columnar_out = outcome(columnar_fe, viewer, path, params)
    assert object_out == columnar_out, (path, params)
    return object_out


class TestByteIdentity:
    def test_school_pages(self, serve_pair):
        world, _, columnar_fe, viewers = serve_pair
        for school_id in sorted(world.network.schools):
            assert_identical(
                serve_pair, viewers[0], f"/school/{school_id}"
            )
        assert_identical(serve_pair, viewers[0], "/school/999999")

    def test_search_pages_per_account(self, serve_pair):
        world, _, _, viewers = serve_pair
        school_id = world.school().school_id
        pages_by_viewer = {}
        for viewer in viewers:
            offset, collected = 0, []
            while True:
                page = assert_identical(
                    serve_pair,
                    viewer,
                    "/find-friends/browser",
                    {"school": str(school_id), "offset": str(offset)},
                )
                listing = parse_search_page(page)
                collected.extend(listing.entries)
                if listing.next_offset is None:
                    break
                offset = listing.next_offset
            pages_by_viewer[viewer] = collected
        # The portal samples a per-account pool: both sides must agree
        # on each account's sample, not just on some shared answer.
        assert len(pages_by_viewer[viewers[0]]) > 0

    def test_every_profile_and_friend_list(self, serve_pair):
        world, _, _, viewers = serve_pair
        viewer = viewers[0]
        served = 0
        for uid in sorted(world.network.users):
            if isinstance(
                assert_identical(serve_pair, viewer, f"/profile/{uid}"), str
            ):
                served += 1
            assert_identical(
                serve_pair, viewer, f"/profile/{uid}/friends", {"offset": "0"}
            )
        assert_identical(serve_pair, viewer, "/profile/999999999")
        # Guard against a vacuous walk where both sides only error.
        assert served > len(world.network.users) // 2

    def test_friend_viewer_class(self, serve_pair):
        """Friend / friend-of-friend renders agree, not just strangers."""
        world, _, _, _ = serve_pair
        some_member = None
        for uid in sorted(world.network.users):
            if world.network.friend_ids(uid):
                some_member = uid
                break
        assert some_member is not None
        friend = world.network.friend_ids(some_member)[0]
        assert_identical(serve_pair, friend, f"/profile/{some_member}")
        assert_identical(
            serve_pair, friend, f"/profile/{some_member}/friends"
        )

    def test_graph_search_queries(self, serve_pair):
        world, _, _, viewers = serve_pair
        school_id = world.school().school_id
        year = world.config.observation_year
        queries = [
            {"school": str(school_id), "current": "1"},
            {"school": str(school_id), "year_op": "in", "year": str(int(year) + 1)},
            {"school": str(school_id), "year_op": "after", "year": str(int(year))},
            {"school": str(school_id), "year_op": "before", "year": str(int(year))},
            {"school": str(school_id), "city": world.school().city},
            {"school": str(school_id), "year_op": "bogus", "year": "2000"},
        ]
        for params in queries:
            assert_identical(serve_pair, viewers[0], "/graphsearch", params)


class TestByteIdentityUnderCountermeasure(TestByteIdentity):
    """The same sweep with the Section-8 countermeasure on.

    With reverse lookup disabled, friend lists drop every member whose
    own list is hidden from the viewer; both storages must agree on
    that filter member by member.
    """

    @pytest.fixture(scope="class")
    def serve_pair(self):
        return _serve_pair(reverse_lookup_enabled=False)


class TestBadRequests:
    """Malformed queries are rejected before any storage is read."""

    @pytest.mark.parametrize("school", ["populated", "empty"])
    def test_unknown_year_op(self, serve_pair, school):
        world, object_fe, columnar_fe, viewers = serve_pair
        school_id = world.school().school_id if school == "populated" else 999
        params = {"school": str(school_id), "year_op": "bogus", "year": "2000"}
        for frontend in (object_fe, columnar_fe):
            with pytest.raises(BadRequestError, match="bad year_op"):
                frontend.get(viewers[0], "/graphsearch", params)

    @pytest.mark.parametrize("storage", ["object", "columnar"])
    def test_negative_offset(self, serve_pair, storage):
        world, object_fe, columnar_fe, viewers = serve_pair
        frontend = object_fe if storage == "object" else columnar_fe
        school_id = world.school().school_id
        target = next(
            uid for uid in sorted(world.network.users) if world.network.friend_ids(uid)
        )
        routes = (
            ("/find-friends/browser", {"school": str(school_id), "offset": "-30"}),
            (f"/profile/{target}/friends", {"offset": "-30"}),
        )
        for path, params in routes:
            with pytest.raises(BadRequestError, match="negative"):
                frontend.get(viewers[0], path, params)


class TestPostParity:
    def test_messages_and_friend_requests(self, serve_pair):
        world, object_fe, columnar_fe, viewers = serve_pair
        sender = viewers[0]
        target = sorted(world.network.users)[0]
        for path, params in (
            ("/messages/send", {"to": str(target), "text": "hello"}),
            ("/friend-request", {"to": str(target)}),
            ("/friend-request", {"to": str(target)}),  # duplicate
        ):
            object_out = _post_outcome(object_fe, sender, path, params)
            columnar_out = _post_outcome(columnar_fe, sender, path, params)
            assert object_out == columnar_out, path

    def test_posts_do_not_bump_either_version(self, serve_pair):
        world, object_fe, columnar_fe, viewers = serve_pair
        sender, other = viewers
        before = (world.network.version, columnar_fe.network.version)
        _post_outcome(object_fe, sender, "/friend-request", {"to": str(other)})
        _post_outcome(columnar_fe, sender, "/friend-request", {"to": str(other)})
        assert (world.network.version, columnar_fe.network.version) == before


def _post_outcome(frontend, viewer, path, params):
    try:
        return frontend.post(viewer, path, params)
    except OsnError as exc:
        return (type(exc).__name__, str(exc))


class TestSessionAccounts:
    def test_overlay_uids_mirror_object_numbering(self):
        world = build_world(tiny(seed=21))
        frontend = frontend_for_object_world(world)
        object_uids = world.create_attacker_accounts(3)
        overlay_uids = frontend.network.add_session_accounts(3)
        assert overlay_uids == object_uids

    def test_overlay_accounts_are_private_strangers(self, serve_pair):
        world, _, columnar_fe, viewers = serve_pair
        # Encoded attacker rows render as everything-private profiles.
        page = columnar_fe.get(viewers[0], f"/profile/{viewers[1]}")
        view = parse_profile_page(page)
        assert view.is_minimal()


class TestDeactivatedAccount:
    """A deactivated account's friend list is gone, like its profile,
    on both storages and whether or not a render cache is attached."""

    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    @pytest.mark.parametrize("storage", ["object", "columnar"])
    def test_friend_list_not_found(self, storage, cached):
        world = build_world(tiny(seed=13))
        viewer = world.create_attacker_accounts(1)[0]
        net = world.network
        now = net.clock.now_year
        target = next(
            uid
            for uid in sorted(net.users)
            if net.friend_ids(uid)
            and net.policy.effective_audience(net.users[uid], ProfileField.FRIEND_LIST, now)
            is Audience.PUBLIC
        )
        cache = RenderCache() if cached else None
        if storage == "object":
            frontend = HtmlFrontend(net, cache=cache)
        else:
            frontend = frontend_for_object_world(world, cache=cache)
        friends = f"/profile/{target}/friends"
        assert parse_friends_page(frontend.get(viewer, friends)).total > 0

        served = frontend.network
        if storage == "object":
            net.users[target].disabled = True
        else:
            # The columns carry no deactivation flag: lay a deactivated
            # copy of the account over them.
            served._overlay[target] = replace(served.get_account(target), disabled=True)
        served.bump_version()

        with pytest.raises(NotFoundError, match="deactivated"):
            frontend.get(viewer, f"/profile/{target}")
        stored = len(cache) if cached else 0
        with pytest.raises(NotFoundError, match="deactivated"):
            frontend.get(viewer, friends)
        if cached:
            # With reverse lookup on, the friends key is computed and
            # looked up first, but the failed render stores nothing.
            assert len(cache) == stored


class TestNativeTier:
    def test_native_smoke_tier_serves_pages(self):
        columnar = generate("smoke", seed=3)
        frontend = columnar_frontend(columnar)
        viewers = frontend.network.add_session_accounts(2)
        school_id = min(frontend.network.schools)

        page = frontend.get(
            viewers[0], "/find-friends/browser", {"school": str(school_id)}
        )
        listing = parse_search_page(page)
        assert listing.total > 0
        target = listing.entries[0].user_id
        profile = parse_profile_page(
            frontend.get(viewers[0], f"/profile/{target}")
        )
        assert profile.user_id == target
        # Friends route renders off the CSR adjacency; some members keep
        # their lists private, so accept a clean 403 too.
        served_a_list = False
        for entry in listing.entries:
            try:
                frontend.get(viewers[0], f"/profile/{entry.user_id}/friends")
                served_a_list = True
                break
            except ForbiddenError:
                continue
        assert served_a_list or listing.entries
        with pytest.raises(NotFoundError):
            frontend.get(viewers[0], "/profile/99999999")

    def test_native_search_pools_differ_by_account(self):
        columnar = generate("smoke", seed=3)
        frontend = columnar_frontend(columnar)
        a, b = frontend.network.add_session_accounts(2)
        school_id = min(frontend.network.schools)
        page_a = frontend.get(
            a, "/find-friends/browser", {"school": str(school_id)}
        )
        page_b = frontend.get(
            b, "/find-friends/browser", {"school": str(school_id)}
        )
        # Per-account portal sampling: distinct accounts, distinct pools
        # (cap permitting), exactly like the object network's salt.
        entries_a = {e.user_id for e in parse_search_page(page_a).entries}
        entries_b = {e.user_id for e in parse_search_page(page_b).entries}
        assert entries_a and entries_b
