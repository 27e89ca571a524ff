"""The typed crawl client: HTML in, structured data out.

:class:`CrawlClient` is the attacker's entire I/O surface.  It wraps the
OSN's HTML frontend with:

* account rotation over the fake-account pool (retiring disabled ones),
* politeness pacing and throttle back-off on the simulated clock,
* per-category request accounting (the Table-3 effort breakdown),
* page parsing (every byte of knowledge the attack has comes out of
  :mod:`repro.osn.pages` parsers — never from simulator internals).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.osn.errors import (
    AccountDisabledError,
    ForbiddenError,
    NotFoundError,
    RateLimitedError,
)
from repro.osn.frontend import HtmlFrontend
from repro.osn.public import DirectoryEntry, School
from repro.osn.pages import (
    parse_action_page,
    parse_friends_page,
    parse_profile_page,
    parse_school_page,
    parse_search_page,
)
from repro.osn.view import ProfileView

from .accounts import AccountPool, NoUsableAccountsError
from .effort import (
    CATEGORY_FRIEND_LISTS,
    CATEGORY_OTHER,
    CATEGORY_PROFILES,
    CATEGORY_SEEDS,
    EffortCounter,
    EffortReport,
)
from .politeness import Pacer, PolitenessPolicy, pacer_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.runtime import Telemetry

_MAX_THROTTLE_RETRIES = 8


class FriendListTruncatedError(RuntimeError):
    """A friend list still had pages when the page cap was reached.

    Raised instead of returning the pages fetched so far, which would
    look like a complete list and silently drop members from a ranking.
    """

    def __init__(self, user_id: int, max_pages: int, fetched: int) -> None:
        super().__init__(
            f"friend list of {user_id} has more than {fetched} entries "
            f"({max_pages}-page cap reached)"
        )
        self.user_id = user_id
        self.max_pages = max_pages
        self.fetched = fetched


class CrawlClient:
    """Fetch, parse and account for pages on behalf of the attacker."""

    def __init__(
        self,
        frontend: HtmlFrontend,
        pool: AccountPool,
        politeness: Optional[PolitenessPolicy] = None,
        counter: Optional[EffortCounter] = None,
        telemetry: Optional["Telemetry"] = None,
        seed: int = 0,
    ) -> None:
        self.frontend = frontend
        self.pool = pool
        self.telemetry = telemetry
        self.seed = seed
        self._politeness = politeness
        self._pacers: Dict[int, Pacer] = {}
        if counter is None:
            counter = EffortCounter(
                registry=telemetry.registry if telemetry is not None else None
            )
        self.counter = counter

    def pacer_for(self, account_id: int) -> Pacer:
        """The per-account pacer, created on first use.

        Pacing state (jitter RNG, backoff streak, sleep total) is keyed
        per account so concurrent sessions never share it.  Each pacer
        draws jitter from its own ``pacer_rng(seed, account_id)``
        stream — multi-account runs stay deterministic regardless of
        how requests interleave across accounts, and the stream depends
        only on the crawl seed and the account id, never on pool size.
        """
        pacer = self._pacers.get(account_id)
        if pacer is None:
            pacer = Pacer(
                self.frontend.clock,
                self._politeness,
                rng=pacer_rng(self.seed, account_id),
                telemetry=self.telemetry,
            )
            self._pacers[account_id] = pacer  # repro-lint: shared(CrawlClient) -- first-use registry insert; pacing state lives on the per-account object
        return pacer

    # ------------------------------------------------------------------
    # Transport with rotation / back-off
    # ------------------------------------------------------------------
    def _get(
        self,
        path: str,
        params: Optional[Mapping[str, str]],
        category: str,
        account_id: Optional[int] = None,
    ) -> str:
        """One logical GET: paces, rotates accounts, retries throttles."""
        return self._transport(False, path, params, category, account_id)

    def _post(
        self,
        path: str,
        params: Optional[Mapping[str, str]],
        category: str,
        account_id: Optional[int] = None,
    ) -> str:
        """One logical POST (state-changing action), same pacing rules."""
        return self._transport(True, path, params, category, account_id)

    def _transport(
        self,
        write: bool,
        path: str,
        params: Optional[Mapping[str, str]],
        category: str,
        account_id: Optional[int] = None,
    ) -> str:
        telemetry = self.telemetry
        throttles = 0
        while True:
            chosen = account_id if account_id is not None else self.pool.next()
            pacer = self.pacer_for(chosen)
            pacer.before_request()
            try:
                if write:
                    page = self.frontend.post(chosen, path, params)
                else:
                    page = self.frontend.get(chosen, path, params)
            except RateLimitedError as exc:
                throttles += 1
                if throttles > _MAX_THROTTLE_RETRIES:
                    if telemetry is not None:
                        telemetry.emit(
                            "retry_exhausted",
                            account=chosen,
                            path=path,
                            category=category,
                            throttles=throttles,
                        )
                    raise
                slept = pacer.on_throttle(exc.retry_after)
                if telemetry is not None:
                    telemetry.emit(
                        "throttle",
                        account=chosen,
                        category=category,
                        retry_after=exc.retry_after,
                        slept=slept,
                    )
                continue
            except AccountDisabledError:
                self.pool.mark_disabled(chosen)
                rotated = account_id is None and bool(self.pool.usable)
                if telemetry is not None:
                    telemetry.emit(
                        "account_lost",
                        account=chosen,
                        pinned=account_id is not None,
                        rotated=rotated,
                    )
                if not rotated:
                    raise
                continue
            self.counter.record(category, chosen)
            if telemetry is not None:
                telemetry.emit(
                    "request", account=chosen, category=category, path=path
                )
            pacer.on_success()
            return page

    # ------------------------------------------------------------------
    # Seed collection (Step 1)
    # ------------------------------------------------------------------
    def collect_seeds(
        self,
        school_id: int,
        accounts: Optional[List[int]] = None,
        max_pages_per_account: int = 100,
    ) -> Dict[int, str]:
        """Harvest the seed set S from the Find Friends Portal.

        Scrolls every results page (AJAX-style offsets) from each crawl
        account; different accounts receive different truncated samples,
        so the union grows with the number of accounts (paper, Section
        3.1).  Returns uid -> display name.
        """
        seeds: Dict[int, str] = {}
        for account_id in accounts if accounts is not None else self.pool.usable:
            offset = 0
            for _ in range(max_pages_per_account):
                page = self._get(
                    "/find-friends/browser",
                    {"school": str(school_id), "offset": str(offset)},
                    CATEGORY_SEEDS,
                    account_id=account_id,
                )
                listing = parse_search_page(page)
                for entry in listing.entries:
                    seeds[entry.user_id] = entry.name
                if listing.next_offset is None:
                    break
                offset = listing.next_offset
        return seeds

    def collect_seeds_graph_search(
        self,
        school_id: int,
        years: Optional[List[int]] = None,
    ) -> Dict[int, str]:
        """Harvest seeds via Graph Search instead of the portal.

        Issues one unconstrained query plus one "studied at X in YEAR"
        query per requested year (Graph Search caps each result set, so
        year refinements surface users the broad query truncated away).
        """
        seeds: Dict[int, str] = {}
        queries: List[Dict[str, str]] = [{"school": str(school_id)}]
        for year in years or ():
            queries.append(
                {"school": str(school_id), "year_op": "in", "year": str(year)}
            )
        for params in queries:
            page = self._get("/graphsearch", params, CATEGORY_SEEDS)
            for entry in parse_search_page(page).entries:
                seeds[entry.user_id] = entry.name
        return seeds

    # ------------------------------------------------------------------
    # Profiles (Steps 2 and the enhanced methodology)
    # ------------------------------------------------------------------
    def fetch_profile(self, user_id: int) -> Optional[ProfileView]:
        """Download and parse one public profile; ``None`` if gone."""
        try:
            page = self._get(f"/profile/{user_id}", None, CATEGORY_PROFILES)
        except NotFoundError:
            return None
        return parse_profile_page(page)

    # ------------------------------------------------------------------
    # Friend lists (Step 3; paginated, p=20 per request)
    # ------------------------------------------------------------------
    def fetch_friend_list(
        self, user_id: int, max_pages: int = 200
    ) -> Optional[List[DirectoryEntry]]:
        """Download a full friend list, page by page.

        Returns ``None`` when the list is not visible to a stranger —
        the distinction between the paper's C' and core set C.  Raises
        :class:`FriendListTruncatedError` when the list is longer than
        ``max_pages`` pages.
        """
        entries: List[DirectoryEntry] = []
        offset = 0
        for _ in range(max_pages):
            try:
                page = self._get(
                    f"/profile/{user_id}/friends",
                    {"offset": str(offset)},
                    CATEGORY_FRIEND_LISTS,
                )
            except ForbiddenError:
                return None
            listing = parse_friends_page(page)
            entries.extend(listing.entries)
            if listing.next_offset is None:
                return entries
            offset = listing.next_offset
        raise FriendListTruncatedError(user_id, max_pages, len(entries))

    # ------------------------------------------------------------------
    # Contact surfaces (Section 2 threat quantification)
    # ------------------------------------------------------------------
    def send_message(self, user_id: int, text: str) -> bool:
        """Attempt a direct message; ``False`` when policy forbids it."""
        try:
            self._post(
                "/messages/send",
                {"to": str(user_id), "text": text},
                CATEGORY_OTHER,
            )
        except ForbiddenError:
            return False
        return True

    def send_friend_request(self, user_id: int) -> bool:
        """Send a friend request; ``False`` if one was already pending."""
        page = self._post(
            "/friend-request", {"to": str(user_id)}, CATEGORY_OTHER
        )
        kind, _ = parse_action_page(page)
        return kind == "friend-request-sent"

    # ------------------------------------------------------------------
    # Directory
    # ------------------------------------------------------------------
    def fetch_school(self, school_id: int) -> School:
        """Look up a school's directory entry (name, city, size hint)."""
        page = self._get(f"/school/{school_id}", None, CATEGORY_OTHER)
        return parse_school_page(page)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def effort_report(self) -> EffortReport:
        return self.counter.report()
