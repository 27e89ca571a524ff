"""The simulated Online Social Network.

This module holds the site's one *policy read path*: module functions
that answer the only questions the outside world may ask —
``view_profile``, ``friend_page`` (one page of ``p = 20`` entries of a
visible friend list, with the Section-8 reverse-lookup countermeasure
when enabled), ``school_search`` (the Find Friends Portal: registered
adults associated with a school, truncated per account, never minors)
and ``graph_search`` (structured queries with the same minor
exclusion), plus relationship classification and the contact verbs.

Each function takes the network first and reads it only through a
storage surface that two classes provide: :class:`SocialNetwork` here
(account objects and a dict-of-sets graph) and
:class:`~repro.colgen.serve.ColumnarNetwork` (flat columns and CSR).
That surface is ``has_account``, ``policy_account`` (may be a
policy-only view: exact settings and birthdays, sentinel profile),
``get_account``, ``friend_ids``, ``are_friends``, ``has_mutual_friend``,
``network_ids``, ``display_name``, ``affiliation_for``,
``current_city`` and ``school_member_ids``, plus the ``policy``,
``clock``, ``schools``, ``contact`` and ``_version`` attributes and the
search/paging knobs.  Both classes keep their verbs as one-line
delegations, and relationship classification is always dispatched
through ``network.relationship`` so per-class instrumentation sees it.

Everything the crawler does goes through the HTML frontend
(``repro.osn.frontend``) which in turn calls the networks' verbs, so the
attack code can never accidentally peek at ground truth.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .clock import SimClock
from .errors import ForbiddenError, NotFoundError, RegistrationError
from .graph import FriendGraph
from .messaging import ContactService, FriendRequest, Message
from .policy import SitePolicy, facebook_policy
from .privacy import Audience, PrivacySettings, ProfileField, Relationship
from .profile import Birthday, Profile, SchoolAffiliation
from .rendercache import FriendListSnapshots
from .user import Account
from .view import ProfileView, WallPostView


@dataclass(frozen=True)
class School:
    """An entry in the OSN's school directory.

    ``enrollment_hint`` models the approximate school size an attacker
    can look up on Wikipedia (the paper's step 6 uses it to pick the
    threshold ``t``).
    """

    school_id: int
    name: str
    city: str
    enrollment_hint: Optional[int] = None


@dataclass(frozen=True)
class DirectoryEntry:
    """A search result or friend-list row: id plus display name."""

    user_id: int
    name: str


@dataclass(frozen=True)
class GraphSearchQuery:
    """A structured Graph-Search-style query.

    ``year_op`` is one of ``"in"``, ``"after"``, ``"before"`` or ``None``
    (no year constraint); ``current_city`` optionally restricts to users
    whose profile lists that city.  ``current_students_only`` mirrors
    "current students at HS1" queries.
    """

    school_id: int
    year_op: Optional[str] = None
    year: Optional[int] = None
    current_city: Optional[str] = None
    current_students_only: bool = False


#: Graph Search year operators: graduation year vs the query's year.
YEAR_OPS: Dict[str, Callable[[int, int], bool]] = {
    "in": operator.eq,
    "after": operator.gt,
    "before": operator.lt,
}


# ----------------------------------------------------------------------
# The policy read path (``network``: either storage; see module doc)
# ----------------------------------------------------------------------


def version(network: Any) -> int:
    """Monotone counter bumped on every page-visible world mutation.

    The frontend's render cache keys every entry on this value, so a
    bump invalidates all cached pages at once.  Mutating verbs bump
    it automatically; code that mutates accounts *directly* (tests,
    countermeasure sweeps flipping privacy settings in place) must
    call :func:`bump_version` itself — that is the whole contract.
    """
    return network._version


def bump_version(network: Any) -> None:
    """Invalidate cached page renders after an out-of-band mutation."""
    network._version += 1


def get_school(network: Any, school_id: int) -> School:
    try:
        return network.schools[school_id]
    except KeyError:
        raise NotFoundError(f"no such school: {school_id}") from None


def _require_account(network: Any, user_id: int) -> None:
    if not network.has_account(user_id):
        raise NotFoundError(f"no such user: {user_id}")


def relationship(
    network: Any, viewer_id: Optional[int], target_id: int
) -> Relationship:
    """The viewer's relationship to the target (paper, Section 3).

    ``viewer_id=None`` models a logged-out visitor: a stranger.
    """
    if not network.has_account(target_id):
        raise NotFoundError(f"no such user: {target_id}")
    if viewer_id is None:
        return Relationship.STRANGER
    if viewer_id == target_id:
        return Relationship.SELF
    if not network.has_account(viewer_id):
        raise NotFoundError(f"no such user: {viewer_id}")
    if network.are_friends(viewer_id, target_id):
        return Relationship.FRIEND
    if network.has_mutual_friend(viewer_id, target_id):
        return Relationship.FRIEND_OF_FRIEND
    viewer_networks = network.network_ids(viewer_id)
    if viewer_networks and not set(viewer_networks).isdisjoint(network.network_ids(target_id)):
        return Relationship.NETWORK_MEMBER
    return Relationship.STRANGER


def render_profile_view(
    policy: SitePolicy, account: Account, rel: Relationship, now: float
) -> ProfileView:
    """Build the policy-filtered view of ``account`` for one viewer class.

    Pure function of (policy, account, relationship, instant); both
    storages render through this exact field logic, then through the
    same HTML templates, which is what makes them byte-identical.
    """

    def sees(field_: ProfileField) -> bool:
        return policy.field_visible_to(account, field_, rel, now)

    profile = account.profile
    contact = profile.contact_info
    contact_visible = sees(ProfileField.CONTACT_INFO) and contact is not None
    return ProfileView(
        user_id=account.user_id,
        name=profile.name.full,
        gender=profile.gender if sees(ProfileField.GENDER) else None,
        networks=profile.networks if sees(ProfileField.NETWORKS) else (),
        has_profile_photo=profile.has_profile_photo and sees(ProfileField.PROFILE_PHOTO),
        high_schools=profile.high_schools if sees(ProfileField.HIGH_SCHOOL) else (),
        relationship_status=(
            profile.relationship_status if sees(ProfileField.RELATIONSHIP) else None
        ),
        interested_in=profile.interested_in if sees(ProfileField.INTERESTED_IN) else None,
        birthday_year=(
            account.registered_birthday.year
            if sees(ProfileField.BIRTHDAY) and profile.birthday is not None
            else None
        ),
        hometown=profile.hometown if sees(ProfileField.HOMETOWN) else None,
        current_city=profile.current_city if sees(ProfileField.CURRENT_CITY) else None,
        employer=profile.employer if sees(ProfileField.EMPLOYER) else None,
        graduate_school=(
            profile.graduate_school if sees(ProfileField.GRADUATE_SCHOOL) else None
        ),
        photo_count=profile.photo_count if sees(ProfileField.PHOTOS) else None,
        wall_post_count=len(profile.wall_posts) if sees(ProfileField.WALL) else None,
        wall_posts=(
            tuple(
                WallPostView(post.author_id, post.text)
                for post in profile.wall_posts
            )
            if sees(ProfileField.WALL)
            else ()
        ),
        contact_email=contact.email if contact_visible else None,
        contact_phone=contact.phone if contact_visible else None,
        friend_list_visible=policy.field_visible_to(
            account, ProfileField.FRIEND_LIST, rel, now
        ),
        message_button=policy.message_button_visible(account, rel, now),
        public_search_listed=policy.public_search_eligible(account, now),
    )


def view_profile(
    network: Any, viewer_id: Optional[int], target_id: int
) -> ProfileView:
    """Render ``target_id``'s profile as ``viewer_id`` sees it."""
    account = network.get_account(target_id)
    if account.disabled:
        raise NotFoundError(f"account {target_id} is deactivated")
    rel = network.relationship(viewer_id, target_id)
    return render_profile_view(network.policy, account, rel, network.clock.now_year)


def _friend_list_visible(network: Any, account: Account, rel: Relationship) -> bool:
    return network.policy.field_visible_to(
        account, ProfileField.FRIEND_LIST, rel, network.clock.now_year
    )


def friend_page(
    network: Any,
    viewer_id: Optional[int],
    target_id: int,
    offset: int = 0,
    snapshots: Optional[FriendListSnapshots] = None,
) -> Tuple[int, List[DirectoryEntry]]:
    """One page of ``target_id``'s friend list as seen by the viewer.

    Returns ``(total_visible, entries)``.  Raises
    :class:`NotFoundError` for a missing or deactivated account (as
    :func:`view_profile` does) and :class:`ForbiddenError` when the
    list is not visible at all; those checks run on every page.

    When ``reverse_lookup_enabled`` is ``False`` (the Section-8
    countermeasure), a member is omitted from *other people's* friend
    lists whenever their own friend list is hidden from this viewer —
    so users who hide their list (and all registered minors) can no
    longer be discovered through their friends' lists.  The filtered
    list is needed whole (``total_visible``), so with ``snapshots`` the
    viewer's last scan is sliced while target and version match and
    the clock is before its horizon, and rescanned otherwise; without
    it every page rescans.
    """
    account = network.policy_account(target_id)
    if account is None:
        raise NotFoundError(f"no such user: {target_id}")
    if account.disabled:
        raise NotFoundError(f"account {target_id} is deactivated")
    rel = network.relationship(viewer_id, target_id)
    if not _friend_list_visible(network, account, rel):
        raise ForbiddenError(f"friend list of {target_id} not visible")
    if network.reverse_lookup_enabled:
        friend_ids = network.friend_ids(target_id)
    elif snapshots is None:
        friend_ids, _ = _visible_in_friend_lists(
            network, viewer_id, network.friend_ids(target_id)
        )
    else:
        world_version = version(network)
        friend_ids = snapshots.get(viewer_id, target_id, world_version, network.clock.now_year)
        if friend_ids is None:
            friend_ids, valid_until = _visible_in_friend_lists(
                network, viewer_id, network.friend_ids(target_id)
            )
            snapshots.put(viewer_id, target_id, world_version, valid_until, friend_ids)
    page = friend_ids[offset : offset + network.friends_page_size]
    entries = [DirectoryEntry(fid, network.display_name(fid)) for fid in page]
    return len(friend_ids), entries


def _visible_in_friend_lists(
    network: Any, viewer_id: Optional[int], member_ids: List[int]
) -> Tuple[List[int], float]:
    """The countermeasure filter: members whose own friend list the
    viewer may see, the only ones allowed to appear in friend lists,
    and the instant until which that answer holds.

    Each member is decided by their effective friend-list audience
    first; the viewer is classified only when that audience is
    FRIENDS or FRIENDS_OF_FRIENDS.  A PUBLIC list is visible to every
    viewer and an ONLY_ME list to the member alone (SELF satisfies
    every audience), so neither needs a relationship.

    The horizon is the earliest instant a *hidden* member's minor cap
    lifts (``math.inf`` if none does).  Audiences only widen with time,
    so a shown member stays shown; at an unchanged world version the
    list is exact at every instant before the horizon.
    """
    policy = network.policy
    now = network.clock.now_year
    visible: List[int] = []
    valid_until = math.inf
    for member_id in member_ids:
        member = network.policy_account(member_id)
        if member is None or member.disabled:
            continue
        audience = policy.effective_audience(member, ProfileField.FRIEND_LIST, now)
        if audience is Audience.PUBLIC:
            shown = True
        elif audience is Audience.ONLY_ME:
            shown = viewer_id == member_id
        else:
            shown = network.relationship(viewer_id, member_id).satisfies(audience)
        if shown:
            visible.append(member_id)
        else:
            valid_until = min(
                valid_until,
                policy.minor_cap_lifts_at(member, ProfileField.FRIEND_LIST, now),
            )
    return visible, valid_until


def _search_pool(network: Any, viewer_account_id: int, school_id: int) -> List[int]:
    """The truncated, per-account sample the Find Friends Portal serves.

    Real Facebook returned only a few hundred results per search and
    different (overlapping) result sets to different accounts — the
    paper exploits this by searching from multiple fake accounts.  We
    model it as a deterministic per-account shuffled sample of the
    eligible users, capped at ``search_result_cap``; the sample depends
    only on (viewer uid, school id, salt).
    """
    policy = network.policy
    now = network.clock.now_year
    eligible = [
        uid
        for uid in network.school_member_ids(school_id)
        if policy.school_search_eligible(network.policy_account(uid), now)
    ]
    cap = network.search_result_cap
    if len(eligible) <= cap:
        return eligible
    rng = random.Random((viewer_account_id * 1_000_003 + school_id) ^ network.search_salt)
    return sorted(rng.sample(eligible, cap))


def school_search(
    network: Any, viewer_account_id: int, school_id: int, offset: int = 0
) -> Tuple[int, List[DirectoryEntry]]:
    """One page of Find-Friends-Portal results for a school.

    Registered minors are *never* returned (the precaution the paper
    verified with ground truth).  Returns ``(total, entries)``.
    """
    get_school(network, school_id)
    _require_account(network, viewer_account_id)
    pool = _search_pool(network, viewer_account_id, school_id)
    page = pool[offset : offset + network.search_page_size]
    entries = [DirectoryEntry(uid, network.display_name(uid)) for uid in page]
    return len(pool), entries


def graph_search(
    network: Any, viewer_account_id: int, query: GraphSearchQuery
) -> List[DirectoryEntry]:
    """Structured search; same eligibility rules as the portal."""
    _require_account(network, viewer_account_id)
    year_matches = None
    if query.year_op is not None:
        year_matches = YEAR_OPS.get(query.year_op)
        if year_matches is None:
            raise ValueError(f"bad year_op: {query.year_op!r}")
    cap = network.search_result_cap
    if cap <= 0:
        return []
    policy = network.policy
    now = network.clock.now_year
    current_year = network.clock.current_year
    results: List[DirectoryEntry] = []
    for uid in network.school_member_ids(query.school_id):
        if not policy.school_search_eligible(network.policy_account(uid), now):
            continue
        affiliation = network.affiliation_for(uid, query.school_id)
        if affiliation is None:
            continue
        if query.current_students_only and not affiliation.is_current_student(
            current_year
        ):
            continue
        if year_matches is not None:
            grad = affiliation.graduation_year
            if grad is None or query.year is None or not year_matches(grad, query.year):
                continue
        if (
            query.current_city is not None
            and network.current_city(uid) != query.current_city
        ):
            continue
        results.append(DirectoryEntry(uid, network.display_name(uid)))
        if len(results) >= cap:
            break
    return results


def can_message(network: Any, sender_id: int, recipient_id: int) -> bool:
    """Whether the sender sees the recipient's Message button."""
    recipient = network.policy_account(recipient_id)
    if recipient is None:
        raise NotFoundError(f"no such user: {recipient_id}")
    rel = network.relationship(sender_id, recipient_id)
    return network.policy.message_button_visible(recipient, rel, network.clock.now_year)


def send_message(network: Any, sender_id: int, recipient_id: int, text: str) -> Message:
    """Deliver a direct message, or raise :class:`ForbiddenError`.

    The policy decides: strangers can never message registered
    minors on Facebook, but *can* message the many minors whose
    lied-about age makes them registered adults (Table 5's
    'Message link' row).
    """
    _require_account(network, sender_id)
    if not can_message(network, sender_id, recipient_id):
        raise ForbiddenError(f"user {sender_id} may not message user {recipient_id}")
    message = Message(sender_id, recipient_id, text, network.clock.now_year)
    network.contact.deliver_message(message)
    return message


def send_friend_request(network: Any, sender_id: int, recipient_id: int) -> bool:
    """Send a friend request (allowed toward anyone, even minors)."""
    _require_account(network, sender_id)
    _require_account(network, recipient_id)
    if network.are_friends(sender_id, recipient_id):
        return False
    return network.contact.add_request(
        FriendRequest(sender_id, recipient_id, network.clock.now_year)
    )


class SocialNetwork:
    """A complete in-memory OSN with Facebook-like semantics.

    Owns the account registry, the friendship graph and the school
    directory; every read verb delegates to the module's policy path.
    """

    def __init__(
        self,
        policy: Optional[SitePolicy] = None,
        clock: Optional[SimClock] = None,
        *,
        reverse_lookup_enabled: bool = True,
        search_result_cap: int = 256,
        search_page_size: int = 20,
        friends_page_size: int = 20,
        search_salt: int = 0,
    ) -> None:
        self.policy = policy or facebook_policy()
        self.policy.validate()
        self.clock = clock or SimClock()
        self.reverse_lookup_enabled = reverse_lookup_enabled
        self.search_result_cap = search_result_cap
        self.search_page_size = search_page_size
        self.friends_page_size = friends_page_size
        self.search_salt = search_salt

        self.users: Dict[int, Account] = {}
        self.graph = FriendGraph()
        self.contact = ContactService()
        self.schools: Dict[int, School] = {}
        self._next_user_id = 1
        self._next_school_id = 1
        self._school_members: Dict[int, List[int]] = {}
        self._version = 0

    # ------------------------------------------------------------------
    # World version (render-cache invalidation contract; see version())
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return version(self)

    def bump_version(self) -> None:
        bump_version(self)

    # ------------------------------------------------------------------
    # Directory management
    # ------------------------------------------------------------------
    def register_school(
        self, name: str, city: str, enrollment_hint: Optional[int] = None
    ) -> School:
        school = School(self._next_school_id, name, city, enrollment_hint)
        self._next_school_id += 1
        self.schools[school.school_id] = school
        self.bump_version()
        return school

    def get_school(self, school_id: int) -> School:
        return get_school(self, school_id)

    # ------------------------------------------------------------------
    # Accounts
    # ------------------------------------------------------------------
    def register_account(
        self,
        profile: Profile,
        registered_birthday: Birthday,
        real_birthday: Optional[Birthday] = None,
        settings: Optional[PrivacySettings] = None,
        *,
        person_id: Optional[int] = None,
        created_at_year: Optional[float] = None,
        is_fake: bool = False,
        enforce_minimum_age: bool = True,
    ) -> Account:
        """Create an account, enforcing the registration age ban.

        ``real_birthday`` defaults to the registered one (truthful user).
        The age check applies to the *registered* birthday at the account
        creation instant — lying about the birth year is exactly how
        under-13 children bypass it (paper, Section 1).
        """
        created = created_at_year if created_at_year is not None else self.clock.now_year
        registered_age = created - registered_birthday.as_year_fraction
        if enforce_minimum_age and not self.policy.registration_allowed(registered_age):
            raise RegistrationError(
                f"registered age {registered_age:.1f} below minimum "
                f"{self.policy.minimum_registration_age}"
            )
        account = Account(
            user_id=self._next_user_id,
            profile=profile,
            registered_birthday=registered_birthday,
            real_birthday=real_birthday or registered_birthday,
            settings=settings if settings is not None else self._default_settings(registered_birthday),
            person_id=person_id,
            created_at_year=created,
            is_fake=is_fake,
        )
        self._next_user_id += 1
        self.users[account.user_id] = account
        self.graph.add_node(account.user_id)
        self._index_member(account)
        self.bump_version()
        return account

    def _index_member(self, account: Account) -> None:
        """Eagerly index the account's school affiliations.

        User ids are handed out in increasing order, so appending keeps
        each member list sorted — same order the old full rebuild
        produced with ``sorted(self.users)``.
        """
        for affiliation in account.profile.high_schools:
            self._school_members.setdefault(affiliation.school_id, []).append(
                account.user_id
            )

    def _default_settings(self, registered_birthday: Birthday) -> PrivacySettings:
        age_now = registered_birthday.age_at(self.clock.now_year)
        if age_now < self.policy.adult_age:
            return self.policy.default_minor_settings
        return self.policy.default_adult_settings

    def add_friendship(self, a: int, b: int) -> bool:
        """Create a (mutual) friendship between two existing accounts."""
        _require_account(self, a)
        _require_account(self, b)
        if self.graph.add_edge(a, b):
            self.bump_version()
            return True
        return False

    def is_registered_minor(self, user_id: int) -> bool:
        return self.policy.is_registered_minor(self.get_account(user_id), self.clock.now_year)

    # ------------------------------------------------------------------
    # Storage surface read by the policy path
    # ------------------------------------------------------------------
    def has_account(self, user_id: int) -> bool:
        return user_id in self.users

    def policy_account(self, user_id: int) -> Optional[Account]:
        return self.users.get(user_id)

    def get_account(self, user_id: int) -> Account:
        try:
            return self.users[user_id]
        except KeyError:
            raise NotFoundError(f"no such user: {user_id}") from None

    def friend_ids(self, user_id: int) -> List[int]:
        return self.graph.neighbors_list(user_id)

    def are_friends(self, a: int, b: int) -> bool:
        return self.graph.are_friends(a, b)

    def has_mutual_friend(self, a: int, b: int) -> bool:
        return self.graph.has_mutual_friend(a, b)

    def network_ids(self, user_id: int) -> Tuple[str, ...]:
        return self.users[user_id].profile.networks

    def display_name(self, user_id: int) -> str:
        return self.users[user_id].profile.name.full

    def affiliation_for(self, user_id: int, school_id: int) -> Optional[SchoolAffiliation]:
        return self.users[user_id].profile.affiliation_for(school_id)

    def current_city(self, user_id: int) -> Optional[str]:
        return self.users[user_id].profile.current_city

    def school_member_ids(self, school_id: int) -> List[int]:
        """All user ids whose profile lists ``school_id`` (any audience).

        Pure read: the index is maintained eagerly at registration time
        (``_index_member``), never rebuilt lazily on the serve path —
        PURE001 holds the whole search surface to read-only.
        """
        return self._school_members.get(school_id, [])

    # ------------------------------------------------------------------
    # Policy verbs (the module functions above)
    # ------------------------------------------------------------------
    def relationship(self, viewer_id: Optional[int], target_id: int) -> Relationship:
        return relationship(self, viewer_id, target_id)

    def view_profile(self, viewer_id: Optional[int], target_id: int) -> ProfileView:
        return view_profile(self, viewer_id, target_id)

    def friend_page(
        self,
        viewer_id: Optional[int],
        target_id: int,
        offset: int = 0,
        snapshots: Optional[FriendListSnapshots] = None,
    ) -> Tuple[int, List[DirectoryEntry]]:
        return friend_page(self, viewer_id, target_id, offset, snapshots)

    def school_search(
        self, viewer_account_id: int, school_id: int, offset: int = 0
    ) -> Tuple[int, List[DirectoryEntry]]:
        return school_search(self, viewer_account_id, school_id, offset)

    def graph_search(self, viewer_account_id: int, query: GraphSearchQuery) -> List[DirectoryEntry]:
        return graph_search(self, viewer_account_id, query)

    def send_message(self, sender_id: int, recipient_id: int, text: str) -> Message:
        return send_message(self, sender_id, recipient_id, text)

    def send_friend_request(self, sender_id: int, recipient_id: int) -> bool:
        return send_friend_request(self, sender_id, recipient_id)

    def respond_to_friend_request(
        self, recipient_id: int, sender_id: int, accept: bool
    ) -> bool:
        """Answer a pending request; creates the friendship on accept."""
        request = self.contact.pop_request(recipient_id, sender_id)
        if request is None:
            return False
        if accept:
            self.add_friendship(sender_id, recipient_id)
        return accept

    # ------------------------------------------------------------------
    # Statistics (for tests / world validation; not used by the attack)
    # ------------------------------------------------------------------
    def population_stats(self) -> Dict[str, float]:
        now = self.clock.now_year
        total = len(self.users)
        minors = sum(
            1 for a in self.users.values() if self.policy.is_registered_minor(a, now)
        )
        liars = sum(1 for a in self.users.values() if a.lied_about_age())
        return {
            "users": float(total),
            "registered_minors": float(minors),
            "age_liars": float(liars),
            "edges": float(self.graph.edge_count()),
            "mean_degree": self.graph.mean_degree(),
        }
