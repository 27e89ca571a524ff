"""Crawler framework: the attacker's I/O layer.

Fake-account pool, polite paced transport with throttle back-off,
typed page fetchers (seeds, profiles, paginated friend lists), request
accounting matching the paper's Table-3 effort categories, and a SQLite
store for everything observed.
"""

from .accounts import AccountPool, NoUsableAccountsError
from .client import CrawlClient, FriendListTruncatedError
from .effort import (
    CATEGORY_FRIEND_LISTS,
    CATEGORY_OTHER,
    CATEGORY_PROFILES,
    CATEGORY_SEEDS,
    EffortCounter,
    EffortReport,
    predicted_requests,
)
from .politeness import Pacer, PolitenessPolicy
from .storage import CrawlStore

__all__ = [
    "AccountPool",
    "CATEGORY_FRIEND_LISTS",
    "CATEGORY_OTHER",
    "CATEGORY_PROFILES",
    "CATEGORY_SEEDS",
    "CrawlClient",
    "CrawlStore",
    "EffortCounter",
    "EffortReport",
    "FriendListTruncatedError",
    "NoUsableAccountsError",
    "Pacer",
    "PolitenessPolicy",
    "predicted_requests",
]
