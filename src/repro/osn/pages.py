"""HTML rendering and parsing for every page type the OSN serves.

The paper's crawler downloads HTML and extracts data with a parser
(Section 3.2).  To exercise that same pipeline we render each
:class:`~repro.osn.view.ProfileView`, friend-list page and search page
to compact HTML, and provide the matching parsers the crawler uses.
Render/parse pairs are round-trip tested (including via hypothesis) so
the crawler provably recovers exactly what the site exposed.

The markup is deliberately regular (class names + ``data-`` attributes)
— we are reproducing an attack pipeline, not 2012 Facebook's markup —
but all structured values travel through real HTML escaping, so names
containing ``&``, ``<`` or quotes survive the trip.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import ParseError
from .network import DirectoryEntry, School
from .profile import Gender, SchoolAffiliation
from .view import ProfileView, WallPostView

_SITE_NAME = "FaceSpace"


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------

def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _unesc(value: str) -> str:
    return html.unescape(value)


def _shell(title: str, body: str) -> str:
    return (
        f"<html><head><title>{_esc(title)} | {_SITE_NAME}</title></head>"
        f"<body>{body}</body></html>"
    )


def _compile(pattern: str) -> "re.Pattern[str]":
    return re.compile(pattern, re.DOTALL)


def _require(pattern: "re.Pattern[str]", text: str, what: str) -> "re.Match[str]":
    match = pattern.search(text)
    if match is None:
        raise ParseError(f"could not locate {what} in page")
    return match


# Every parser pattern, compiled once (all DOTALL).
_PROFILE_UID_RE = _compile(r'<div id="profile" data-uid="(\d+)">')
_NAME_RE = _compile(r'<h1 class="name">(.*?)</h1>')
_NETWORK_RE = _compile(r'<span class="network">(.*?)</span>')
_SCHOOL_ROW_RE = _compile(
    r'<li class="school" data-school-id="(\d+)" data-year="(\d*)">(.*?)</li>'
)
_WALL_POST_RE = _compile(r'<li class="wall-post" data-author="(\d+)">(.*?)</li>')
#: ``<span class="...">`` fields of the profile page, by class.
_SPAN_RES = {
    cls: _compile(rf'<span class="{cls}">(.*?)</span>')
    for cls in (
        "gender",
        "relationship",
        "interested-in",
        "birthday-year",
        "hometown",
        "current-city",
        "employer",
        "graduate-school",
        "photo-count",
        "wall-count",
        "contact-email",
        "contact-phone",
    )
}
_USER_ROW_RE = _compile(
    r'<li class="user-row" data-uid="(\d+)"><a href="/profile/\d+">(.*?)</a></li>'
)
_LISTING_RES = {
    kind: _compile(rf'<div class="{kind}" data-total="(\d+)" data-offset="(\d+)">')
    for kind in ("friend-list", "search-results")
}
_SCHOOL_INFO_RE = _compile(
    r'<div class="school-info" data-school-id="(\d+)" data-enrollment="(\d*)">'
)
_SCHOOL_NAME_RE = _compile(r'<h1 class="school-name">(.*?)</h1>')
_SCHOOL_CITY_RE = _compile(r'<span class="school-city">(.*?)</span>')
_ACTION_RE = _compile(r'<div class="action" data-kind="([^"]+)" data-target="(\d+)">')


# ----------------------------------------------------------------------
# Profile page
# ----------------------------------------------------------------------

def render_profile_page(view: ProfileView) -> str:
    """Render a profile view to HTML exactly as the viewer would see it."""
    parts: List[str] = [f'<div id="profile" data-uid="{view.user_id}">']
    parts.append(f'<h1 class="name">{_esc(view.name)}</h1>')
    if view.has_profile_photo:
        parts.append(f'<img class="profile-photo" src="/photo/{view.user_id}.jpg"/>')
    if view.gender is not None:
        parts.append(f'<span class="gender">{_esc(view.gender.value)}</span>')
    for network in view.networks:
        parts.append(f'<span class="network">{_esc(network)}</span>')
    if view.high_schools:
        parts.append('<ul class="schools">')
        for aff in view.high_schools:
            year = "" if aff.graduation_year is None else str(aff.graduation_year)
            parts.append(
                f'<li class="school" data-school-id="{aff.school_id}" '
                f'data-year="{year}">{_esc(aff.school_name)}</li>'
            )
        parts.append("</ul>")
    if view.relationship_status is not None:
        parts.append(
            f'<span class="relationship">{_esc(view.relationship_status)}</span>'
        )
    if view.interested_in is not None:
        parts.append(f'<span class="interested-in">{_esc(view.interested_in)}</span>')
    if view.birthday_year is not None:
        parts.append(f'<span class="birthday-year">{view.birthday_year}</span>')
    if view.hometown is not None:
        parts.append(f'<span class="hometown">{_esc(view.hometown)}</span>')
    if view.current_city is not None:
        parts.append(f'<span class="current-city">{_esc(view.current_city)}</span>')
    if view.employer is not None:
        parts.append(f'<span class="employer">{_esc(view.employer)}</span>')
    if view.graduate_school is not None:
        parts.append(
            f'<span class="graduate-school">{_esc(view.graduate_school)}</span>'
        )
    if view.photo_count is not None:
        parts.append(f'<span class="photo-count">{view.photo_count}</span>')
    if view.wall_post_count is not None:
        parts.append(f'<span class="wall-count">{view.wall_post_count}</span>')
    if view.wall_posts:
        parts.append('<ul class="wall">')
        parts.extend(
            f'<li class="wall-post" data-author="{post.author_id}">'
            f"{_esc(post.text)}</li>"
            for post in view.wall_posts
        )
        parts.append("</ul>")
    if view.contact_email is not None:
        parts.append(f'<span class="contact-email">{_esc(view.contact_email)}</span>')
    if view.contact_phone is not None:
        parts.append(f'<span class="contact-phone">{_esc(view.contact_phone)}</span>')
    if view.friend_list_visible:
        parts.append(
            f'<a class="friends-link" href="/profile/{view.user_id}/friends">Friends</a>'
        )
    if view.message_button:
        parts.append(
            f'<a class="message-link" href="/messages/new?to={view.user_id}">Message</a>'
        )
    if view.public_search_listed:
        parts.append('<meta class="public-search" content="enabled"/>')
    parts.append("</div>")
    return _shell(view.name, "".join(parts))


def parse_profile_page(page: str) -> ProfileView:
    """Parse a profile page back into a :class:`ProfileView`.

    The crawler sees only this reconstruction; fields absent from the
    HTML come back as ``None``/empty, exactly like the original view.
    """
    uid_match = _require(_PROFILE_UID_RE, page, "profile div")
    user_id = int(uid_match.group(1))
    name = _unesc(_require(_NAME_RE, page, "name").group(1))

    def span(cls: str) -> Optional[str]:
        match = _SPAN_RES[cls].search(page)
        return _unesc(match.group(1)) if match else None

    gender_text = span("gender")
    gender = Gender(gender_text) if gender_text is not None else None

    networks = tuple(_unesc(m) for m in _NETWORK_RE.findall(page))

    schools: List[SchoolAffiliation] = []
    for sid, year, sname in _SCHOOL_ROW_RE.findall(page):
        schools.append(
            SchoolAffiliation(
                school_id=int(sid),
                school_name=_unesc(sname),
                graduation_year=int(year) if year else None,
            )
        )

    def int_span(cls: str) -> Optional[int]:
        value = span(cls)
        return int(value) if value is not None else None

    wall_posts = tuple(
        WallPostView(int(author), _unesc(text))
        for author, text in _WALL_POST_RE.findall(page)
    )

    return ProfileView(
        user_id=user_id,
        name=name,
        gender=gender,
        networks=networks,
        has_profile_photo='class="profile-photo"' in page,
        high_schools=tuple(schools),
        relationship_status=span("relationship"),
        interested_in=span("interested-in"),
        birthday_year=int_span("birthday-year"),
        hometown=span("hometown"),
        current_city=span("current-city"),
        employer=span("employer"),
        graduate_school=span("graduate-school"),
        photo_count=int_span("photo-count"),
        wall_post_count=int_span("wall-count"),
        wall_posts=wall_posts,
        contact_email=span("contact-email"),
        contact_phone=span("contact-phone"),
        friend_list_visible='class="friends-link"' in page,
        message_button='class="message-link"' in page,
        public_search_listed='class="public-search"' in page,
    )


# ----------------------------------------------------------------------
# Listing pages (friend lists and search results share a row format)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ListingPage:
    """A parsed page of user rows with pagination metadata."""

    total: int
    offset: int
    entries: Tuple[DirectoryEntry, ...]

    @property
    def next_offset(self) -> Optional[int]:
        after = self.offset + len(self.entries)
        return after if after < self.total else None


def _render_rows(entries: Sequence[DirectoryEntry]) -> str:
    rows = [
        f'<li class="user-row" data-uid="{e.user_id}">'
        f'<a href="/profile/{e.user_id}">{_esc(e.name)}</a></li>'
        for e in entries
    ]
    return "".join(rows)


def _parse_rows(page: str) -> Tuple[DirectoryEntry, ...]:
    return tuple(
        DirectoryEntry(int(uid), _unesc(name))
        for uid, name in _USER_ROW_RE.findall(page)
    )


def _render_listing(
    kind: str, title: str, total: int, offset: int, entries: Sequence[DirectoryEntry]
) -> str:
    body = (
        f'<div class="{kind}" data-total="{total}" data-offset="{offset}">'
        f"<ul>{_render_rows(entries)}</ul></div>"
    )
    return _shell(title, body)


def _parse_listing(kind: str, page: str) -> ListingPage:
    match = _require(_LISTING_RES[kind], page, f"{kind} listing")
    return ListingPage(
        total=int(match.group(1)),
        offset=int(match.group(2)),
        entries=_parse_rows(page),
    )


def render_friends_page(
    owner_id: int, total: int, offset: int, entries: Sequence[DirectoryEntry]
) -> str:
    return _render_listing("friend-list", f"Friends of user {owner_id}", total, offset, entries)


def parse_friends_page(page: str) -> ListingPage:
    return _parse_listing("friend-list", page)


def render_search_page(
    total: int, offset: int, entries: Sequence[DirectoryEntry]
) -> str:
    return _render_listing("search-results", "People search", total, offset, entries)


def parse_search_page(page: str) -> ListingPage:
    return _parse_listing("search-results", page)


# ----------------------------------------------------------------------
# School directory page
# ----------------------------------------------------------------------

def render_school_page(school: School) -> str:
    hint = "" if school.enrollment_hint is None else str(school.enrollment_hint)
    body = (
        f'<div class="school-info" data-school-id="{school.school_id}" '
        f'data-enrollment="{hint}">'
        f'<h1 class="school-name">{_esc(school.name)}</h1>'
        f'<span class="school-city">{_esc(school.city)}</span></div>'
    )
    return _shell(school.name, body)


def parse_school_page(page: str) -> School:
    match = _require(_SCHOOL_INFO_RE, page, "school info")
    name = _unesc(_require(_SCHOOL_NAME_RE, page, "school name").group(1))
    city = _unesc(_require(_SCHOOL_CITY_RE, page, "school city").group(1))
    enrollment = match.group(2)
    return School(
        school_id=int(match.group(1)),
        name=name,
        city=city,
        enrollment_hint=int(enrollment) if enrollment else None,
    )


# ----------------------------------------------------------------------
# Action confirmation pages (message sent, friend request sent)
# ----------------------------------------------------------------------

def render_action_page(kind: str, target_id: int) -> str:
    body = f'<div class="action" data-kind="{_esc(kind)}" data-target="{target_id}"></div>'
    return _shell(kind, body)


def parse_action_page(page: str) -> Tuple[str, int]:
    """Parse a confirmation page into (kind, target user id)."""
    match = _require(_ACTION_RE, page, "action")
    return _unesc(match.group(1)), int(match.group(2))
