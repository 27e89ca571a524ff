"""An LRU cache for rendered HTML pages, and per-session friend-list
snapshots for the route it cannot cache.

The paper's crawl hammers a small set of hot pages — school search
pages scrolled by every account and high-degree profiles re-entered
through many friend lists.  Since a rendered page is a pure function of
``(route, target, viewer visibility class, world version)``, the
frontend can memoise the HTML bytes and serve repeats without touching
the policy engine or the templates.

Keys carry the owning network's ``version`` counter, which every
mutating verb bumps: after any page-visible world mutation, all live
keys change and stale entries simply age out of the LRU.  Correctness
therefore never depends on enumerating what a mutation invalidated.

The cache itself is deliberately dumb: it stores strings under opaque
tuple keys.  What is cacheable (and what the key must include) is the
frontend's knowledge — see ``HtmlFrontend._cache_key``.

Friend lists under the reverse-lookup countermeasure are not cacheable
(member visibility is per viewer), so :class:`FriendListSnapshots`
keeps each session's last filtered list instead: the crawl pages
through one list at a time per account, so that list is almost always
the one the session asks for next.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

#: A cache key: route marker plus route-specific discriminators, always
#: ending with the world version.
CacheKey = Tuple[object, ...]

#: Default entry capacity — roughly one school crawl's working set
#: (seed pages + every seed profile at stranger level) with headroom.
DEFAULT_CAPACITY = 4096


class RenderCache:
    """A bounded LRU of rendered pages, shared by all crawl sessions."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, str]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey) -> Optional[str]:
        """The cached page for ``key``, refreshing its recency; or None."""
        page = self._entries.get(key)
        if page is None:
            self.misses += 1  # repro-lint: shared(RenderCache) -- monotone counter; sessions may undercount under races, never corrupt
            return None
        self._entries.move_to_end(key)  # repro-lint: shared(RenderCache) -- LRU recency touch; any interleaving yields a valid LRU order
        self.hits += 1  # repro-lint: shared(RenderCache) -- monotone counter; sessions may undercount under races, never corrupt
        return page

    def put(self, key: CacheKey, page: str) -> None:
        """Insert a rendered page, evicting the least-recent past capacity."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)  # repro-lint: shared(RenderCache) -- LRU recency touch; any interleaving yields a valid LRU order
        entries[key] = page  # repro-lint: shared(RenderCache) -- idempotent insert: concurrent writers store byte-identical renders of the same key
        while len(entries) > self.capacity:
            entries.popitem(last=False)  # repro-lint: shared(RenderCache) -- eviction only ever shrinks toward capacity; worst case a page re-renders
            self.evictions += 1  # repro-lint: shared(RenderCache) -- monotone counter; sessions may undercount under races, never corrupt

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters for bench records and the crawl CLI summary."""
        return {
            "entries": float(len(self._entries)),
            "capacity": float(self.capacity),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "hit_rate": self.hit_rate,
        }


class FriendListSnapshots:
    """One slot per session: its last countermeasure-filtered friend list.

    A slot holds ``(target id, world version, valid until, visible
    ids)`` and answers only the same target at the same version strictly
    before ``valid until`` — the first instant a hidden member's minor
    cap lifts (``SitePolicy.minor_cap_lifts_at``).  A shown member stays
    shown as time passes, because an effective audience only widens, so
    those three checks make a slot's list exactly what a rescan would
    return.  Anything else misses and the caller rescans and overwrites.
    """

    def __init__(self) -> None:
        self._slots: Dict[Optional[int], Tuple[int, int, float, List[int]]] = {}

    def get(
        self, viewer_id: Optional[int], target_id: int, version: int, now_year: float
    ) -> Optional[List[int]]:
        """The viewer's visible ids of ``target_id``'s list, or None."""
        slot = self._slots.get(viewer_id)
        if slot is None:
            return None
        slot_target, slot_version, valid_until, visible = slot
        if slot_target == target_id and slot_version == version and now_year < valid_until:
            return visible
        return None

    def put(
        self,
        viewer_id: Optional[int],
        target_id: int,
        version: int,
        valid_until: float,
        visible: List[int],
    ) -> None:
        """Overwrite the viewer's slot with a fresh scan."""
        self._slots[viewer_id] = (target_id, version, valid_until, visible)  # repro-lint: shared(FriendListSnapshots) -- a session overwrites only its own slot; a lost write costs one rescan
