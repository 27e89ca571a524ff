"""Stateful equivalence: friend-list snapshots vs the stateless filter.

Under the reverse-lookup countermeasure, :class:`HtmlFrontend` keeps each
session's last filtered friend list (``FriendListSnapshots``) and slices
it on later pages.  These state machines interleave viewers, targets and
offsets with everything that can change a filtered list — friendships
(version bumps), deactivations (``bump_version``), the clock crossing a
hidden minor's registered 18th birthday, and reverse lookup flipped
without a bump — and check every served page against ``friend_page``
called without a store, on the object world and on its columnar twin.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.colgen import encode_world
from repro.colgen.serve import columnar_frontend
from repro.osn.errors import OsnError
from repro.osn.frontend import HtmlFrontend
from repro.osn.pages import parse_friends_page
from repro.osn.policy import policy_by_name
from repro.osn.privacy import Audience, ProfileField
from repro.osn.ratelimit import RateLimitConfig
from repro.worldgen.presets import tiny
from repro.worldgen.world import build_world

_NO_LIMIT = RateLimitConfig(max_requests=10**9, window_seconds=1.0)
_PAGE = 20


def _served_world():
    """A tiny countermeasure world prepared so every mechanism matters.

    Returns ``(world, targets, viewers, minors)``: four multi-page
    friend lists (three public, one friends-only), viewers of every
    class (a friend and a friend of a friend of the first target, the
    targets themselves, three session accounts that are strangers to
    all), and the listed registered minors whose PUBLIC friend-list
    setting the minor cap holds back until their 18th birthday.
    """
    world = build_world(tiny(seed=13))
    net = world.network
    net.reverse_lookup_enabled = False
    now = net.clock.now_year
    policy = net.policy

    def friend_list_audience(uid):
        return policy.effective_audience(net.users[uid], ProfileField.FRIEND_LIST, now)

    def registered_minor(uid):
        return net.users[uid].registered_birthday.age_at(now) < policy.adult_age

    def lists_minors(uid):
        return any(registered_minor(f) for f in net.friend_ids(uid))

    multi_page = [
        uid for uid in sorted(net.users) if 2 * _PAGE < len(net.friend_ids(uid)) < 6 * _PAGE
    ]
    public = [
        uid
        for uid in multi_page
        if friend_list_audience(uid) is Audience.PUBLIC and lists_minors(uid)
    ][:3]
    friends_only = next(
        uid for uid in multi_page if friend_list_audience(uid) is Audience.FRIENDS
    )
    targets = public + [friends_only]

    # Two in three listed minors choose a PUBLIC list; the cap keeps it
    # at friends-of-friends until they turn 18.
    minors = sorted(
        {
            f
            for uid in targets
            for f in net.friend_ids(uid)
            if registered_minor(f) and f % 3
        }
    )
    for uid in minors:
        account = net.users[uid]
        account.settings = account.settings.with_field(ProfileField.FRIEND_LIST, Audience.PUBLIC)
    net.bump_version()

    friend = net.friend_ids(targets[0])[0]
    listed = set(net.friend_ids(targets[0]))
    friend_of_friend = next(
        f for f in net.friend_ids(friend) if f != targets[0] and f not in listed
    )
    sessions = world.create_attacker_accounts(3)
    viewers = [friend, friend_of_friend, *targets, *sessions]
    return world, targets, viewers, minors


class FriendListSnapshotMachine(RuleBasedStateMachine):
    """Pages served with snapshots equal the stateless filter's pages."""

    STORAGE = "object"

    def __init__(self):
        super().__init__()
        world, self.targets, self.viewers, self.minors = _served_world()
        if self.STORAGE == "object":
            self.frontend = HtmlFrontend(world.network, _NO_LIMIT)
        else:
            config = world.config
            self.frontend = columnar_frontend(
                encode_world(world),
                policy=policy_by_name(config.site),
                search_result_cap=config.osn.search_result_cap,
                search_page_size=config.osn.search_page_size,
                friends_page_size=config.osn.friends_page_size,
                search_salt=config.seed,
                rate_limit=_NO_LIMIT,
                reverse_lookup_enabled=False,
            )
        self.network = self.frontend.network
        members = {f for uid in self.targets for f in self.network.friend_ids(uid)}
        # Friendship endpoints: viewers and listed members.
        self.people = sorted(set(self.viewers) | members)
        self.last_list = (self.viewers[-1], self.targets[0])
        self.last_shown = []

    # ------------------------------------------------------------------
    # The invariant, checked on every page served
    # ------------------------------------------------------------------
    def _check_page(self, viewer, target, offset):
        self.last_list = (viewer, target)
        path = f"/profile/{target}/friends"
        try:
            expected = self.network.friend_page(viewer, target, offset)
        except OsnError as exc:
            expected_error = (type(exc), str(exc))
            try:
                self.frontend.get(viewer, path, {"offset": str(offset)})
            except OsnError as got:
                assert (type(got), str(got)) == expected_error
            else:
                raise AssertionError(f"served a page where {expected_error} was due")
            return None
        listing = parse_friends_page(self.frontend.get(viewer, path, {"offset": str(offset)}))
        total, entries = expected
        assert (listing.total, listing.offset) == (total, offset)
        assert list(listing.entries) == entries
        self.last_shown = [entry.user_id for entry in entries]
        return listing

    # (``owner`` indexes the targets: ``target`` is reserved by ``rule``.)
    @rule(
        viewer=st.integers(0, 100),
        owner=st.integers(0, 100),
        page=st.integers(0, 6),
        shift=st.sampled_from([0, 0, 0, 1, 19]),
    )
    def fetch_page(self, viewer, owner, page, shift):
        self._check_page(
            self.viewers[viewer % len(self.viewers)],
            self.targets[owner % len(self.targets)],
            page * _PAGE + shift,
        )

    @rule(page=st.integers(0, 6), shift=st.sampled_from([0, 0, 0, 1, 19]))
    def fetch_last_list_again(self, page, shift):
        """Another page of the last list served, as a crawl asks next."""
        self._check_page(*self.last_list, page * _PAGE + shift)

    @rule(viewer=st.integers(0, 100), owner=st.integers(0, 100))
    def fetch_whole_list(self, viewer, owner):
        """Page through a list the way the crawl does."""
        viewer = self.viewers[viewer % len(self.viewers)]
        target = self.targets[owner % len(self.targets)]
        offset = 0
        while True:
            listing = self._check_page(viewer, target, offset)
            if listing is None or listing.next_offset is None:
                return
            offset = listing.next_offset

    # ------------------------------------------------------------------
    # Everything that can change a filtered list
    # ------------------------------------------------------------------
    @rule(seconds=st.floats(0, 3 * 86400))
    def advance_clock(self, seconds):
        self.network.clock.sleep(seconds)

    @rule(
        hidden_only=st.booleans(),
        years_past=st.sampled_from([-1e-3, -1e-9, 0.0, 1e-9, 1e-3]),
    )
    def advance_to_next_eighteenth_birthday(self, hidden_only, years_past):
        """Step to just before, at or just after the next registered 18th
        birthday of a prepared minor (any, or one the last list served
        hid from its viewer), when that minor's capped list opens up."""
        network = self.network
        clock = network.clock
        minors = self.minors
        if hidden_only:
            viewer, target = self.last_list
            listed = set(network.friend_ids(target))
            minors = [
                uid
                for uid in minors
                if uid in listed
                and not network.policy.field_visible_to(
                    network.policy_account(uid),
                    ProfileField.FRIEND_LIST,
                    network.relationship(viewer, uid),
                    clock.now_year,
                )
            ]
        upcoming = [
            birthday
            for birthday in (
                network.policy_account(uid).registered_birthday.as_year_fraction
                + network.policy.adult_age
                for uid in minors
            )
            if birthday > clock.now_year
        ]
        if upcoming:
            clock.advance_years(max(0.0, min(upcoming) + years_past - clock.now_year))

    @precondition(lambda self: self.STORAGE == "object")
    @rule(a=st.integers(0, 10**4), b=st.integers(0, 10**4))
    def accept_friend_request(self, a, b):
        sender, recipient = self.people[a % len(self.people)], self.people[b % len(self.people)]
        network = self.network
        if sender == recipient or any(
            network.policy_account(uid).disabled for uid in (sender, recipient)
        ):
            return
        version = network.version
        self.frontend.post(sender, "/friend-request", {"to": str(recipient)})
        if network.respond_to_friend_request(recipient, sender, True):
            assert network.version > version

    @rule(index=st.integers(0, 10**4))
    def deactivate(self, index):
        """Deactivate the last list's target or one of its members (most
        often one the last page showed); never a viewer, since a
        deactivated session cannot authenticate."""
        network = self.network
        target = self.last_list[1]
        candidates = [
            uid
            for uid in [*self.last_shown, target, *network.friend_ids(target)]
            if uid not in self.viewers
        ]
        if not candidates:
            return
        uid = candidates[index % len(candidates)]
        if self.STORAGE == "object":
            network.users[uid].disabled = True
        else:
            # The columns carry no deactivation flag: lay a deactivated
            # copy of the account over them.
            network._overlay[uid] = replace(network.get_account(uid), disabled=True)
        network.bump_version()

    @rule(enabled=st.sampled_from([False, False, False, True]))
    def set_reverse_lookup(self, enabled):
        """As countermeasure sweeps do: set in place, no bump (mostly
        off, so the snapshots stay in play)."""
        self.network.reverse_lookup_enabled = enabled


class ColumnarFriendListSnapshotMachine(FriendListSnapshotMachine):
    """The same machine on the columnar twin (immutable friendships)."""

    STORAGE = "columnar"


_SETTINGS = settings(max_examples=20, stateful_step_count=100, deadline=None)

TestObjectWorld = FriendListSnapshotMachine.TestCase
TestObjectWorld.settings = _SETTINGS
TestColumnarTwin = ColumnarFriendListSnapshotMachine.TestCase
TestColumnarTwin.settings = _SETTINGS
