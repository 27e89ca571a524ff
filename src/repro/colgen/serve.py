"""Serve the OSN's HTML surface directly off a :class:`ColumnarWorld`.

:class:`ColumnarNetwork` is the columnar storage adapter behind the
OSN's one policy read path (the module functions of
:mod:`repro.osn.network`): it provides the same storage surface and
verbs as :class:`~repro.osn.network.SocialNetwork`, but answers every
read from the flat columns and CSR adjacency instead of per-account
objects.  That is what unlocks city-tier crawls: a million-account
world held as ~100 bytes/user of columns is served page-by-page without
ever materialising a million ``Account`` objects.

Two serving regimes:

* **Encoder-built worlds** (``world.profiles is not None``): every
  profile field was column-packed losslessly, so pages render through
  the same policy path and templates as the object world and the output
  is **byte-identical** to it (``tests/test_colgen_serve.py`` holds it
  there).
* **Native vectorised tiers** (``world.profiles is None``): the
  generator never built profile objects, so the serve path synthesises
  a documented projection per account — name/gender/city from the
  person columns, one school affiliation from ``school_index`` /
  ``cohort_year``, registered birthday from the account columns, and
  empty wall/photo/contact surfaces.

The whole read path is mutation-free (PURE001 proves it across the
frontend call graph): all indexes are built eagerly in ``__init__``,
string tables are only ever ``lookup``-ed, and lazy ``Account`` views
are constructed per call, never cached.  The only mutable state is the
POST-only :class:`~repro.osn.messaging.ContactService` and the attacker
overlay registered up front via :meth:`add_session_accounts`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.osn import network as policy_path
from repro.osn.clock import SimClock
from repro.osn.errors import NotFoundError
from repro.osn.frontend import HtmlFrontend
from repro.osn.messaging import ContactService, Message
from repro.osn.network import DirectoryEntry, GraphSearchQuery, School
from repro.osn.policy import SitePolicy, facebook_policy
from repro.osn.privacy import PrivacySettings, Relationship
from repro.osn.profile import Birthday, Name, Profile, SchoolAffiliation
from repro.osn.ratelimit import RateLimitConfig
from repro.osn.rendercache import FriendListSnapshots, RenderCache
from repro.osn.user import Account
from repro.osn.view import ProfileView

from .columns import ColumnarWorld, decode_profile
from .views import GENDER_ORDER

if False:  # pragma: no cover - typing only
    from repro.telemetry.runtime import Telemetry

#: Shared sentinel profile for *policy-only* account views: policy
#: predicates (search eligibility, friend-list audience, message button)
#: read only ``settings`` and ``registered_birthday``, so scans can skip
#: the full profile decode.  Never rendered.
_ELIGIBILITY_PROFILE = Profile(name=Name("", ""))


class ColumnarNetwork:
    """Columnar storage for the OSN policy path, over columns + CSR.

    Constructor knobs mirror ``SocialNetwork``'s so a columnar server
    can be configured identically to the object world it was encoded
    from (``search_salt`` defaults to the world's generation seed, which
    is exactly what ``build_world`` passes on the object path).
    """

    def __init__(
        self,
        world: ColumnarWorld,
        policy: Optional[SitePolicy] = None,
        clock: Optional[SimClock] = None,
        *,
        reverse_lookup_enabled: bool = True,
        search_result_cap: int = 256,
        search_page_size: int = 20,
        friends_page_size: int = 20,
        search_salt: Optional[int] = None,
    ) -> None:
        self.world = world
        self.policy = policy or facebook_policy()
        self.policy.validate()
        self.clock = clock or SimClock(now_year=world.observation_year)
        self.reverse_lookup_enabled = reverse_lookup_enabled
        self.search_result_cap = search_result_cap
        self.search_page_size = search_page_size
        self.friends_page_size = friends_page_size
        self.search_salt = world.seed if search_salt is None else search_salt

        self.contact = ContactService()
        #: session (attacker) accounts laid over the immutable columns.
        self._overlay: Dict[int, Account] = {}
        self._version = 0

        # School directory: encoder worlds carry the complete served
        # directory (config + noise schools); native tiers synthesise
        # ids 1..n from the generator's school list, matching the
        # registration order the object path would have used.
        if world.directory:
            self.schools: Dict[int, School] = {
                sid: School(sid, name, city, hint)
                for sid, name, city, hint in world.directory
            }
        else:
            self.schools = {
                i + 1: School(i + 1, name, city, None)
                for i, (name, city) in enumerate(world.schools)
            }

        # Eager member index (school id -> ascending uids), the serve
        # path's only scan structure.  Rows are visited in uid order so
        # each list is born sorted — same order the object network's
        # registration-time index produces.
        members: Dict[int, List[int]] = {}
        base = world.uid_base
        profiles = world.profiles
        if profiles is not None:
            indptr = profiles.hs_indptr
            school_col = profiles.hs_school_id
            for row in range(world.n_accounts):
                for i in range(int(indptr[row]), int(indptr[row + 1])):
                    members.setdefault(int(school_col[i]), []).append(base + row)
        else:
            person_col = world.accounts.person_id
            school_index = world.people.school_index
            for row in range(world.n_accounts):
                pid = int(person_col[row])
                if pid < 0:
                    continue
                idx = int(school_index[pid])
                if idx >= 0:
                    members.setdefault(idx + 1, []).append(base + row)
        self._school_members = members

    # ------------------------------------------------------------------
    # World version: the columns are immutable, so only overlay
    # registration bumps it (contract: repro.osn.network.version)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return policy_path.version(self)

    def bump_version(self) -> None:
        policy_path.bump_version(self)

    # ------------------------------------------------------------------
    # Session (attacker) accounts
    # ------------------------------------------------------------------
    def add_session_accounts(self, count: int) -> List[int]:
        """Register ``count`` fake crawl accounts over the columns.

        Mirrors ``World.create_attacker_accounts`` — same profiles, same
        privacy settings, and uids continuing exactly where the encoded
        world's dense range ends, so a columnar crawl sees the same
        account numbering as an object crawl of the same world.
        """
        uids: List[int] = []
        world = self.world
        for i in range(count):
            uid = world.uid_base + world.n_accounts + len(self._overlay)
            account = Account(
                user_id=uid,
                profile=Profile(name=Name("Crawl", f"Account{i}")),
                registered_birthday=Birthday(1985),
                real_birthday=Birthday(1985),
                settings=PrivacySettings.everything_private(),
                person_id=None,
                created_at_year=self.clock.now_year,
                is_fake=True,
            )
            self._overlay[uid] = account
            self.bump_version()
            uids.append(uid)
        return uids

    # ------------------------------------------------------------------
    # Storage surface: accounts (lazy views; never cached, so reads
    # stay pure)
    # ------------------------------------------------------------------
    def has_account(self, user_id: int) -> bool:
        if user_id in self._overlay:
            return True
        return 0 <= user_id - self.world.uid_base < self.world.n_accounts

    def _row(self, user_id: int) -> int:
        return user_id - self.world.uid_base

    def _account(self, user_id: int, full: bool) -> Account:
        """An existing uid's account: the overlay's, or one assembled
        from columns around the decoded profile (``full``) or the
        policy-only sentinel."""
        overlay = self._overlay.get(user_id)
        if overlay is not None:
            return overlay
        world = self.world
        row = self._row(user_id)
        acc = world.accounts
        pid = int(acc.person_id[row])
        return Account(
            user_id=user_id,
            profile=self._full_profile(row) if full else _ELIGIBILITY_PROFILE,
            registered_birthday=Birthday(
                year=int(acc.registered_birth_year[row]),
                fraction=float(acc.registered_birth_fraction[row]),
            ),
            real_birthday=Birthday(
                year=int(acc.real_birth_year[row]),
                fraction=float(acc.real_birth_fraction[row]),
            ),
            settings=world.privacy_settings(user_id),
            person_id=None if pid < 0 else pid,
            created_at_year=float(acc.created_at_year[row]),
            is_fake=bool(int(acc.is_fake[row])),
        )

    def policy_account(self, user_id: int) -> Optional[Account]:
        """Policy-only view: exact settings/birthdays, sentinel profile."""
        return self._account(user_id, full=False) if self.has_account(user_id) else None

    def get_account(self, user_id: int) -> Account:
        """Full account view (profile decoded); raises on unknown uid."""
        if not self.has_account(user_id):
            raise NotFoundError(f"no such user: {user_id}")
        return self._account(user_id, full=True)

    def _full_profile(self, row: int) -> Profile:
        world = self.world
        if world.profiles is not None:
            return decode_profile(world.profiles, world.profile_strings, row)
        return self._synth_profile(row)

    def _synth_profile(self, row: int) -> Profile:
        """The native tiers' documented profile projection (see module doc)."""
        world = self.world
        pid = int(world.accounts.person_id[row])
        if pid < 0:
            return Profile(name=Name("", ""))
        people = world.people
        city = world.cities.lookup(int(people.city_id[pid]))
        idx = int(people.school_index[pid])
        cohort = int(people.cohort_year[pid])
        affiliations: Tuple[SchoolAffiliation, ...] = ()
        if idx >= 0:
            school = self.schools.get(idx + 1)
            affiliations = (
                SchoolAffiliation(
                    school_id=idx + 1,
                    school_name=school.name if school is not None else "",
                    graduation_year=cohort if cohort >= 0 else None,
                ),
            )
        return Profile(
            name=self._person_name(pid),
            gender=GENDER_ORDER[int(people.gender[pid])],
            high_schools=affiliations,
            hometown=city,
            current_city=city,
        )

    def display_name(self, user_id: int) -> str:
        overlay = self._overlay.get(user_id)
        if overlay is not None:
            return overlay.profile.name.full
        world = self.world
        row = self._row(user_id)
        profiles = world.profiles
        if profiles is not None:
            lookup = world.profile_strings.lookup
            return Name(
                lookup(int(profiles.first_name_id[row])) or "",
                lookup(int(profiles.last_name_id[row])) or "",
            ).full
        pid = int(world.accounts.person_id[row])
        return self._person_name(pid).full if pid >= 0 else ""

    def _person_name(self, pid: int) -> Name:
        people = self.world.people
        lookup = self.world.names.lookup
        return Name(
            lookup(int(people.first_name_id[pid])) or "",
            lookup(int(people.last_name_id[pid])) or "",
        )

    def affiliation_for(self, user_id: int, school_id: int) -> Optional[SchoolAffiliation]:
        world = self.world
        row = self._row(user_id)
        profiles = world.profiles
        if profiles is not None:
            lo = int(profiles.hs_indptr[row])
            hi = int(profiles.hs_indptr[row + 1])
            for i in range(lo, hi):
                if int(profiles.hs_school_id[i]) == school_id:
                    grad = int(profiles.hs_grad_year[i])
                    return SchoolAffiliation(
                        school_id=school_id,
                        school_name=world.profile_strings.lookup(
                            int(profiles.hs_name_id[i])
                        )
                        or "",
                        graduation_year=grad if grad >= 0 else None,
                    )
            return None
        pid = int(world.accounts.person_id[row])
        if pid < 0 or int(world.people.school_index[pid]) + 1 != school_id:
            return None
        school = self.schools.get(school_id)
        cohort = int(world.people.cohort_year[pid])
        return SchoolAffiliation(
            school_id=school_id,
            school_name=school.name if school is not None else "",
            graduation_year=cohort if cohort >= 0 else None,
        )

    def current_city(self, user_id: int) -> Optional[str]:
        world = self.world
        row = self._row(user_id)
        profiles = world.profiles
        if profiles is not None:
            return world.profile_strings.lookup(
                int(profiles.current_city_id[row])
            )
        pid = int(world.accounts.person_id[row])
        if pid < 0:
            return None
        return world.cities.lookup(int(world.people.city_id[pid]))

    def school_member_ids(self, school_id: int) -> List[int]:
        return self._school_members.get(school_id, [])

    # ------------------------------------------------------------------
    # Storage surface: graph (CSR; overlay accounts are friendless)
    # ------------------------------------------------------------------
    def are_friends(self, a: int, b: int) -> bool:
        if a in self._overlay or b in self._overlay:
            return False
        return self.world.are_friends(a, b)

    def has_mutual_friend(self, a: int, b: int) -> bool:
        if a in self._overlay or b in self._overlay:
            return False
        graph = self.world.csr
        if graph is None:
            raise RuntimeError(
                f"tier {self.world.tier!r} is generation-only: no adjacency"
            )
        return graph.mutual_friend_count(self._row(a), self._row(b)) > 0

    def friend_ids(self, user_id: int) -> List[int]:
        if user_id in self._overlay:
            return []
        return self.world.friends(user_id)

    def network_ids(self, user_id: int) -> Tuple[int, ...]:
        """Interned ids of ``profile.networks`` (shared vocabulary)."""
        if user_id in self._overlay:
            return ()
        profiles = self.world.profiles
        if profiles is None:
            return ()
        row = self._row(user_id)
        lo = int(profiles.networks_indptr[row])
        hi = int(profiles.networks_indptr[row + 1])
        return tuple(int(profiles.network_id[i]) for i in range(lo, hi))

    # ------------------------------------------------------------------
    # Policy verbs (repro.osn.network's module functions)
    # ------------------------------------------------------------------
    def get_school(self, school_id: int) -> School:
        return policy_path.get_school(self, school_id)

    def relationship(self, viewer_id: Optional[int], target_id: int) -> Relationship:
        return policy_path.relationship(self, viewer_id, target_id)

    def view_profile(self, viewer_id: Optional[int], target_id: int) -> ProfileView:
        return policy_path.view_profile(self, viewer_id, target_id)

    def friend_page(
        self,
        viewer_id: Optional[int],
        target_id: int,
        offset: int = 0,
        snapshots: Optional[FriendListSnapshots] = None,
    ) -> Tuple[int, List[DirectoryEntry]]:
        return policy_path.friend_page(self, viewer_id, target_id, offset, snapshots)

    def school_search(
        self, viewer_account_id: int, school_id: int, offset: int = 0
    ) -> Tuple[int, List[DirectoryEntry]]:
        return policy_path.school_search(self, viewer_account_id, school_id, offset)

    def graph_search(self, viewer_account_id: int, query: GraphSearchQuery) -> List[DirectoryEntry]:
        return policy_path.graph_search(self, viewer_account_id, query)

    def send_message(self, sender_id: int, recipient_id: int, text: str) -> Message:
        return policy_path.send_message(self, sender_id, recipient_id, text)

    def send_friend_request(self, sender_id: int, recipient_id: int) -> bool:
        return policy_path.send_friend_request(self, sender_id, recipient_id)


def columnar_frontend(
    world: ColumnarWorld,
    *,
    policy: Optional[SitePolicy] = None,
    reverse_lookup_enabled: bool = True,
    search_result_cap: int = 256,
    search_page_size: int = 20,
    friends_page_size: int = 20,
    search_salt: Optional[int] = None,
    rate_limit: Optional[RateLimitConfig] = None,
    telemetry: Optional["Telemetry"] = None,
    cache: Optional[RenderCache] = None,
) -> HtmlFrontend:
    """Stand up an :class:`HtmlFrontend` over a columnar world.

    Returns a frontend whose ``network`` is a :class:`ColumnarNetwork`;
    call ``frontend.network.add_session_accounts(n)`` to mint crawl
    accounts.  Pass the same policy/cap/rate-limit knobs the object
    world was built with to get byte-identical pages.
    """
    network = ColumnarNetwork(
        world,
        policy=policy,
        reverse_lookup_enabled=reverse_lookup_enabled,
        search_result_cap=search_result_cap,
        search_page_size=search_page_size,
        friends_page_size=friends_page_size,
        search_salt=search_salt,
    )
    return HtmlFrontend(
        network,  # type: ignore[arg-type]
        rate_limit,
        telemetry=telemetry,
        cache=cache,
    )


def frontend_for_object_world(
    world: "object",
    *,
    telemetry: Optional["Telemetry"] = None,
    cache: Optional[RenderCache] = None,
) -> HtmlFrontend:
    """Encode a built object :class:`~repro.worldgen.world.World` and
    serve it with *identical* knobs.

    Copies the policy, search/paging caps, salt and rate-limit config
    straight off ``world.config`` — the exact values ``build_world``
    wired into the object frontend — so the returned frontend's pages
    are byte-for-byte those of ``world.frontend``.  This is the
    drop-in used by ``--serve columnar`` on paper-tier presets.
    """
    from repro.osn.policy import policy_by_name

    from .encode import encode_world

    config = world.config  # type: ignore[attr-defined]
    columnar = encode_world(world)  # type: ignore[arg-type]
    return columnar_frontend(
        columnar,
        policy=policy_by_name(config.site),
        search_result_cap=config.osn.search_result_cap,
        search_page_size=config.osn.search_page_size,
        friends_page_size=config.osn.friends_page_size,
        search_salt=config.seed,
        rate_limit=RateLimitConfig(
            max_requests=config.osn.rate_limit_max_requests,
            window_seconds=config.osn.rate_limit_window_seconds,
        ),
        telemetry=telemetry,
        cache=cache,
    )


def session_accounts(frontend: HtmlFrontend, count: int) -> list:
    """Register ``count`` crawl accounts on a columnar-served frontend.

    The simulator-side door for callers that hold only the frontend:
    reaching through ``frontend.network`` from CLI/bench code would
    cross the oracle boundary the lint polices, so the one-line reach
    lives here, inside the simulator layer.
    """
    return frontend.network.add_session_accounts(count)


def first_school_id(frontend: HtmlFrontend) -> int:
    """The lowest school id a columnar-served frontend knows about.

    Native tiers have no object ``World`` to ask; this is the
    simulator-side equivalent of ``world.school().school_id``.
    """
    return min(frontend.network.schools)
