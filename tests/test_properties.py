"""System-wide privacy invariants, enforced property-style.

These are the guarantees the paper says Facebook provides (and which the
attack circumvents *without violating*): registered minors never leak
more than minimal information to strangers, never appear in school
search, and are never messageable by strangers — no matter how their
settings are configured.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osn.clock import SimClock
from repro.osn.network import SocialNetwork
from repro.osn.policy import facebook_policy, googleplus_policy
from repro.osn.privacy import Audience, PrivacySettings, ProfileField
from repro.osn.profile import Birthday, ContactInfo, Name, Profile, SchoolAffiliation

audiences = st.sampled_from(list(Audience))
settings_strategy = st.builds(
    PrivacySettings,
    audiences=st.dictionaries(st.sampled_from(list(ProfileField)), audiences, max_size=10),
    default=audiences,
    public_search=st.booleans(),
    message_audience=audiences,
)


def build_net_with(settings_obj, registered_year):
    net = SocialNetwork(clock=SimClock(now_year=2012.25))
    school = net.register_school("Inv High", "Invtown")
    target = net.register_account(
        profile=Profile(
            name=Name("Target", "User"),
            high_schools=(SchoolAffiliation(school.school_id, school.name, 2014),),
            birthday=Birthday(registered_year),
            hometown="Invtown",
            current_city="Invtown",
            photo_count=9,
            contact_info=ContactInfo(email="t@example.com", phone="555"),
            relationship_status="Single",
            interested_in="Men",
        ),
        registered_birthday=Birthday(registered_year),
        settings=settings_obj,
        enforce_minimum_age=False,
    )
    stranger = net.register_account(
        profile=Profile(name=Name("Str", "Anger")),
        registered_birthday=Birthday(1980),
        settings=PrivacySettings.everything_private(),
    )
    return net, school, target, stranger


class TestMinorInvariants:
    @given(settings_strategy)
    @settings(max_examples=60)
    def test_stranger_view_of_minor_always_minimal(self, settings_obj):
        net, _, target, stranger = build_net_with(settings_obj, 1997)
        view = net.view_profile(stranger.user_id, target.user_id)
        assert view.is_minimal()

    @given(settings_strategy)
    @settings(max_examples=60)
    def test_minor_never_in_school_search(self, settings_obj):
        net, school, target, stranger = build_net_with(settings_obj, 1997)
        _, entries = net.school_search(stranger.user_id, school.school_id)
        assert target.user_id not in {e.user_id for e in entries}

    @given(settings_strategy)
    @settings(max_examples=60)
    def test_minor_friend_list_never_stranger_visible(self, settings_obj):
        from repro.osn.errors import ForbiddenError

        net, _, target, stranger = build_net_with(settings_obj, 1997)
        with pytest.raises(ForbiddenError):
            net.friend_page(stranger.user_id, target.user_id)

    @given(settings_strategy)
    @settings(max_examples=60)
    def test_adult_view_respects_settings_cap(self, settings_obj):
        """An adult's stranger view never shows a field whose effective
        audience excludes strangers."""
        net, _, target, stranger = build_net_with(settings_obj, 1985)
        view = net.view_profile(stranger.user_id, target.user_id)
        if not settings_obj.audience_for(ProfileField.CONTACT_INFO) == Audience.PUBLIC:
            assert view.contact_email is None
        if not settings_obj.audience_for(ProfileField.BIRTHDAY) == Audience.PUBLIC:
            assert view.birthday_year is None


#: Registered birthdays at March 2012: a registered minor, an adult, and
#: an account turning 18 exactly then (an adult: minors are under 18).
REGISTERED_BIRTHDAYS = (Birthday(1997), Birthday(1985), Birthday(1994, 0.25))

#: Per listed member: FRIEND_LIST setting, registered birthday,
#: deactivated, and whether they share the network viewer's network.
member_strategy = st.tuples(
    audiences, st.sampled_from(REGISTERED_BIRTHDAYS), st.booleans(), st.booleans()
)


@st.composite
def countermeasure_worlds(draw):
    """(policy, members, member-member edges, members the friend viewer
    befriends, members the friend-of-friend viewer's bridge befriends)."""
    policy = draw(st.sampled_from([facebook_policy, googleplus_policy]))()
    members = draw(st.lists(member_strategy, min_size=1, max_size=7))
    index = st.integers(0, len(members) - 1)
    edges = draw(st.lists(st.tuples(index, index), max_size=8))
    return policy, members, edges, draw(st.sets(index)), draw(st.sets(index))


def build_countermeasure_net(policy, members, edges, befriended, bridged):
    """A countermeasure network: an adult target with a public friend
    list over the drawn members, plus one viewer of each kind.

    Returns ``(network, target uid, viewers)``; the viewers are a
    friend, a friend of a friend, a network member, a stranger, a
    logged-out visitor (``None``) and every listed member itself.
    """
    net = SocialNetwork(
        policy,
        SimClock(now_year=2012.25),
        reverse_lookup_enabled=False,
        friends_page_size=3,
    )

    def account(name, birthday=Birthday(1985), audience=Audience.PUBLIC, networks=()):
        return net.register_account(
            profile=Profile(name=Name(name, "User"), networks=networks),
            registered_birthday=birthday,
            settings=PrivacySettings(audiences={ProfileField.FRIEND_LIST: audience}),
            enforce_minimum_age=False,
        ).user_id

    target = account("Target")
    member_ids = []
    for i, (audience, birthday, deactivated, networked) in enumerate(members):
        uid = account(f"Member{i}", birthday, audience, ("Net",) if networked else ())
        net.users[uid].disabled = deactivated
        net.add_friendship(target, uid)
        member_ids.append(uid)
    for a, b in edges:
        if a != b:
            net.add_friendship(member_ids[a], member_ids[b])
    friend = account("Friend")
    for i in befriended:
        net.add_friendship(friend, member_ids[i])
    bridge, friend_of_friend = account("Bridge"), account("Fof")
    net.add_friendship(friend_of_friend, bridge)
    for i in bridged:
        net.add_friendship(bridge, member_ids[i])
    network_member = account("Networked", networks=("Net",))
    stranger = account("Stranger")
    viewers = [friend, friend_of_friend, network_member, stranger, None, *member_ids]
    return net, target, viewers


def classify_every_member(net, viewer_id, member_ids):
    """Reference countermeasure filter: classify the viewer against
    every member, then ask the policy about that member's list."""
    now = net.clock.now_year
    visible = []
    for member_id in member_ids:
        member = net.policy_account(member_id)
        if member is None or member.disabled:
            continue
        rel = net.relationship(viewer_id, member_id)
        if net.policy.field_visible_to(member, ProfileField.FRIEND_LIST, rel, now):
            visible.append(member_id)
    return visible


class TestCountermeasureFilter:
    @given(countermeasure_worlds())
    @settings(max_examples=150, deadline=None)
    def test_matches_classify_every_member(self, world):
        net, target, viewers = build_countermeasure_net(*world)
        page_size = net.friends_page_size
        listed = net.friend_ids(target)
        for viewer in viewers:
            expected = classify_every_member(net, viewer, listed)
            for offset in range(len(listed) + 2):
                total, entries = net.friend_page(viewer, target, offset)
                assert total == len(expected)
                assert [e.user_id for e in entries] == expected[offset : offset + page_size]


class TestWorldInvariants:
    def test_no_stranger_leak_across_whole_world(self, tiny_world):
        """Sweep every account: registered minors are minimal to strangers."""
        net = tiny_world.network
        for uid, account in net.users.items():
            if net.is_registered_minor(uid):
                assert net.view_profile(None, uid).is_minimal()

    def test_search_returns_no_minors_any_school(self, tiny_world):
        net = tiny_world.network
        viewer = tiny_world.create_attacker_accounts(1)[0]
        for school_id in net.schools:
            offset = 0
            while True:
                total, entries = net.school_search(viewer, school_id, offset)
                for entry in entries:
                    assert not net.is_registered_minor(entry.user_id)
                offset += len(entries)
                if offset >= total or not entries:
                    break

    def test_attack_never_reads_ground_truth(self, tiny_attack, tiny_world):
        """Every uid the attack knows was reachable via public surface:
        seeds are searchable adults; candidates appear in some crawled
        public friend list."""
        net = tiny_world.network
        now = net.clock.now_year
        for uid in tiny_attack.seeds:
            assert not net.users[uid].is_registered_minor(now)
        listed = {
            friend
            for friends in tiny_attack.core.friend_lists.values()
            for friend in friends
        }
        assert tiny_attack.candidates <= listed


class TestSimClockDeterminism:
    def test_attack_is_deterministic(self):
        """Same seed, same world, same attack -> identical inference."""
        from repro.core.api import run_attack
        from repro.core.profiler import ProfilerConfig
        from repro.worldgen.presets import tiny
        from repro.worldgen.world import build_world

        results = []
        for _ in range(2):
            world = build_world(tiny(seed=31))
            result = run_attack(
                world, accounts=2, config=ProfilerConfig(threshold=100, enhanced=True)
            )
            results.append(result)
        assert results[0].ranking == results[1].ranking
        assert results[0].select(100) == results[1].select(100)
