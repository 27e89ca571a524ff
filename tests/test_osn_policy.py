"""Tests for the Facebook/Google+ minor-policy engines (Tables 1 and 6)."""

import math

import pytest

from repro.osn.clock import SimClock
from repro.osn.errors import PolicyError
from repro.osn.policy import facebook_policy, googleplus_policy, policy_by_name
from repro.osn.privacy import (
    MINIMAL_FIELDS,
    Audience,
    PrivacySettings,
    ProfileField,
    Relationship,
)
from repro.osn.profile import Birthday, Name, Profile
from repro.osn.user import Account

NOW = 2012.25


def _account(registered_year: int, settings: PrivacySettings) -> Account:
    return Account(
        user_id=1,
        profile=Profile(name=Name("Test", "User")),
        registered_birthday=Birthday(registered_year),
        real_birthday=Birthday(registered_year),
        settings=settings,
    )


def minor(settings=None) -> Account:
    return _account(1997, settings or PrivacySettings.everything_public())


def adult(settings=None) -> Account:
    return _account(1985, settings or PrivacySettings.everything_public())


class TestRegistration:
    def test_thirteen_allowed(self):
        assert facebook_policy().registration_allowed(13.0)

    def test_under_thirteen_banned(self):
        assert not facebook_policy().registration_allowed(12.9)

    def test_adult_allowed(self):
        assert facebook_policy().registration_allowed(35.0)


class TestMinorClassification:
    def test_seventeen_is_registered_minor(self):
        assert facebook_policy().is_registered_minor(minor(), NOW)

    def test_adult_is_not(self):
        assert not facebook_policy().is_registered_minor(adult(), NOW)

    def test_boundary_exactly_18(self):
        policy = facebook_policy()
        account = _account(1994, PrivacySettings())
        # born mid-1994 -> turns 18 around 2012.5, so still a minor in March
        assert policy.is_registered_minor(account, 2012.25)
        assert not policy.is_registered_minor(account, 2012.75)


class TestFacebookMinorCaps:
    """A stranger must never see more than minimal info on a minor."""

    @pytest.mark.parametrize(
        "field",
        [f for f in ProfileField if f not in MINIMAL_FIELDS],
    )
    def test_extended_fields_capped_for_strangers(self, field):
        policy = facebook_policy()
        assert not policy.field_visible_to(minor(), field, Relationship.STRANGER, NOW)

    @pytest.mark.parametrize("field", sorted(MINIMAL_FIELDS, key=lambda f: f.value))
    def test_minimal_fields_follow_settings(self, field):
        policy = facebook_policy()
        assert policy.field_visible_to(minor(), field, Relationship.STRANGER, NOW)

    def test_fof_can_see_minor_extended_fields(self):
        policy = facebook_policy()
        assert policy.field_visible_to(
            minor(), ProfileField.PHOTOS, Relationship.FRIEND_OF_FRIEND, NOW
        )

    def test_adult_extended_fields_follow_settings(self):
        policy = facebook_policy()
        assert policy.field_visible_to(
            adult(), ProfileField.FRIEND_LIST, Relationship.STRANGER, NOW
        )

    def test_minor_own_privacy_still_respected(self):
        """The cap is a ceiling, not a floor."""
        policy = facebook_policy()
        locked = minor(PrivacySettings.everything_private())
        assert not policy.field_visible_to(
            locked, ProfileField.GENDER, Relationship.STRANGER, NOW
        )


class TestEffectiveAudience:
    """Every (policy, field, chosen audience, registered age) against
    the cap formula: ``chosen`` for adults and for fields a minor may
    show strangers, else ``min(chosen, cap)``."""

    @pytest.mark.parametrize("make_policy", [facebook_policy, googleplus_policy])
    @pytest.mark.parametrize(
        "registered, is_minor",
        [
            (Birthday(1997), True),
            (Birthday(1985), False),
            (Birthday(1994, 0.25), False),  # turns 18 exactly at NOW
        ],
        ids=["minor", "adult", "exactly-18"],
    )
    def test_matches_cap_formula(self, make_policy, registered, is_minor):
        policy = make_policy()
        cap = policy.minor_nonstranger_cap_audience
        for field_ in ProfileField:
            for chosen in Audience:
                account = Account(
                    user_id=1,
                    profile=Profile(name=Name("Test", "User")),
                    registered_birthday=registered,
                    real_birthday=registered,
                    settings=PrivacySettings(audiences={field_: chosen}),
                )
                assert policy.is_registered_minor(account, NOW) is is_minor
                if not is_minor or field_ in policy.minor_stranger_cap:
                    expected = chosen
                else:
                    expected = min(chosen, cap)
                actual = policy.effective_audience(account, field_, NOW)
                assert actual is expected, (field_, chosen)


class TestMinorCapLiftsAt:
    """Every (policy, field, chosen audience, registered age): the
    horizon is ``inf`` unless the minor cap binds now; when it binds,
    the member is a registered adult at the horizon and a minor just
    before it, and the effective audience is constant on
    ``[NOW, horizon)``."""

    @staticmethod
    def _account(registered, field_, chosen):
        return Account(
            user_id=1,
            profile=Profile(name=Name("Test", "User")),
            registered_birthday=registered,
            real_birthday=registered,
            settings=PrivacySettings(audiences={field_: chosen}),
        )

    def _check(self, policy, account, field_, now):
        audience = policy.effective_audience(account, field_, now)
        lifts = policy.minor_cap_lifts_at(account, field_, now)
        chosen = account.settings.audience_for(field_)
        if audience is chosen:
            assert lifts == math.inf, field_
            assert policy.effective_audience(account, field_, now + 100) is chosen
            return
        just_before = math.nextafter(lifts, -math.inf)
        assert now <= just_before < lifts, field_
        assert policy.is_registered_minor(account, just_before), field_
        assert not policy.is_registered_minor(account, lifts), field_
        for instant in (now, (now + lifts) / 2, just_before):
            assert policy.effective_audience(account, field_, instant) is audience
        assert policy.effective_audience(account, field_, lifts) is chosen

    @pytest.mark.parametrize("make_policy", [facebook_policy, googleplus_policy])
    @pytest.mark.parametrize(
        "registered, cap_can_bind",
        [
            (Birthday(1997), True),
            (Birthday(1985), False),
            (Birthday(1994, 0.25), False),  # turns 18 exactly at NOW
        ],
        ids=["minor", "adult", "exactly-18"],
    )
    def test_every_field_and_audience(self, make_policy, registered, cap_can_bind):
        policy = make_policy()
        bound = 0
        for field_ in ProfileField:
            for chosen in Audience:
                account = self._account(registered, field_, chosen)
                self._check(policy, account, field_, NOW)
                bound += policy.minor_cap_lifts_at(account, field_, NOW) < math.inf
        binds_somewhere = cap_can_bind and policy.minor_nonstranger_cap_audience < max(
            Audience
        )
        assert (bound > 0) is binds_somewhere

    def test_sum_that_rounds_down(self):
        # 2030.999 + 18 rounds below the exact sum, so the horizon is
        # the next float up.
        registered = Birthday(2030, 0.999)
        policy = facebook_policy()
        account = self._account(registered, ProfileField.FRIEND_LIST, Audience.PUBLIC)
        rounded = registered.as_year_fraction + policy.adult_age
        assert policy.is_registered_minor(account, rounded)
        assert policy.minor_cap_lifts_at(account, ProfileField.FRIEND_LIST, 2040.0) > rounded
        self._check(policy, account, ProfileField.FRIEND_LIST, 2040.0)


class TestMessageButton:
    def test_stranger_never_messages_minor(self):
        policy = facebook_policy()
        assert not policy.message_button_visible(minor(), Relationship.STRANGER, NOW)

    def test_stranger_messages_adult_with_public_setting(self):
        policy = facebook_policy()
        assert policy.message_button_visible(adult(), Relationship.STRANGER, NOW)

    def test_friend_can_message_minor(self):
        policy = facebook_policy()
        assert policy.message_button_visible(minor(), Relationship.FRIEND, NOW)

    def test_self_has_no_message_button(self):
        policy = facebook_policy()
        assert not policy.message_button_visible(adult(), Relationship.SELF, NOW)

    def test_network_member_cannot_message_minor(self):
        policy = facebook_policy()
        assert not policy.message_button_visible(
            minor(), Relationship.NETWORK_MEMBER, NOW
        )


class TestSearchEligibility:
    def test_minors_never_in_school_search(self):
        assert not facebook_policy().school_search_eligible(minor(), NOW)

    def test_adults_in_school_search(self):
        assert facebook_policy().school_search_eligible(adult(), NOW)

    def test_adult_with_search_disabled_not_listed(self):
        account = adult(
            PrivacySettings(
                audiences={}, default=Audience.PUBLIC, public_search=False
            )
        )
        assert not facebook_policy().school_search_eligible(account, NOW)

    def test_disabled_account_not_searchable(self):
        account = adult()
        account.disabled = True
        assert not facebook_policy().school_search_eligible(account, NOW)

    def test_minor_never_in_public_search_even_opted_in(self):
        assert not facebook_policy().public_search_eligible(minor(), NOW)

    def test_googleplus_minor_can_be_in_public_search(self):
        assert googleplus_policy().public_search_eligible(minor(), NOW)

    def test_googleplus_minor_still_hidden_from_school_search(self):
        assert not googleplus_policy().school_search_eligible(minor(), NOW)


class TestGooglePlusCaps:
    def test_minor_may_expose_school_publicly(self):
        policy = googleplus_policy()
        assert policy.field_visible_to(
            minor(), ProfileField.HIGH_SCHOOL, Relationship.STRANGER, NOW
        )

    def test_minor_may_expose_phone_publicly(self):
        policy = googleplus_policy()
        assert policy.field_visible_to(
            minor(), ProfileField.CONTACT_INFO, Relationship.STRANGER, NOW
        )

    def test_minor_defaults_are_protective(self):
        policy = googleplus_policy()
        account = minor(policy.default_minor_settings)
        assert not policy.field_visible_to(
            account, ProfileField.HIGH_SCHOOL, Relationship.STRANGER, NOW
        )


class TestLookupAndValidation:
    def test_policy_by_name(self):
        assert policy_by_name("facebook").name == "facebook"
        assert policy_by_name("googleplus").name == "googleplus"

    def test_unknown_policy_raises(self):
        with pytest.raises(PolicyError):
            policy_by_name("myspace")

    def test_builtin_policies_validate(self):
        facebook_policy().validate()
        googleplus_policy().validate()
