"""Access-policy tests: each policy point in the tussle design space."""

import pytest

from repro.core.errors import AcquisitionDenied
from repro.core.policy import (
    AcquisitionRequest,
    AllOfPolicy,
    AuthenticatedUsersPolicy,
    OpenAccessPolicy,
    PrepaidPolicy,
    QuotaPolicy,
    ServiceWhitelistPolicy,
)


def _request(user="alice", service="Boost", time=0.0, **credentials):
    return AcquisitionRequest(
        user=user, service=service, credentials=credentials, time=time
    )


class TestRequest:
    def test_absent_arguments_are_one_read_only_mapping(self):
        first = AcquisitionRequest("alice", "Boost")
        second = AcquisitionRequest(user="bob", service="Boost", time=1.0)
        assert first.credentials is second.preferences
        with pytest.raises(TypeError):
            first.credentials["secret"] = "planted"
        assert len(second.credentials) == 0


class TestOpenAccess:
    def test_everyone_allowed(self):
        OpenAccessPolicy().authorize(_request(user="anyone"))


class TestAuthenticated:
    def test_valid_secret(self):
        policy = AuthenticatedUsersPolicy(accounts={"alice": "pw"})
        policy.authorize(_request(secret="pw"))

    def test_wrong_secret_denied(self):
        policy = AuthenticatedUsersPolicy(accounts={"alice": "pw"})
        with pytest.raises(AcquisitionDenied):
            policy.authorize(_request(secret="guess"))

    def test_unknown_user_denied(self):
        policy = AuthenticatedUsersPolicy(accounts={"alice": "pw"})
        with pytest.raises(AcquisitionDenied):
            policy.authorize(_request(user="mallory", secret="pw"))

    def test_custom_verifier(self):
        policy = AuthenticatedUsersPolicy(
            accounts={}, verifier=lambda user, creds: creds.get("token") == "T"
        )
        policy.authorize(_request(token="T"))
        with pytest.raises(AcquisitionDenied):
            policy.authorize(_request(token="X"))


class TestWhitelist:
    def test_listed_service_allowed(self):
        policy = ServiceWhitelistPolicy({"Boost"})
        policy.authorize(_request(service="Boost"))

    def test_unlisted_denied(self):
        policy = ServiceWhitelistPolicy({"Boost"})
        with pytest.raises(AcquisitionDenied):
            policy.authorize(_request(service="zero-rate"))


class TestQuota:
    def test_grants_up_to_quota(self):
        policy = QuotaPolicy(max_grants=2, period=100.0)
        for t in (0.0, 1.0):
            request = _request(time=t)
            policy.authorize(request)
            policy.on_granted(request)
        with pytest.raises(AcquisitionDenied):
            policy.authorize(_request(time=2.0))

    def test_quota_window_rolls(self):
        policy = QuotaPolicy(max_grants=1, period=10.0)
        request = _request(time=0.0)
        policy.authorize(request)
        policy.on_granted(request)
        policy.authorize(_request(time=20.0))  # window rolled

    def test_quota_per_user(self):
        policy = QuotaPolicy(max_grants=1, period=100.0)
        request = _request(user="alice")
        policy.authorize(request)
        policy.on_granted(request)
        policy.authorize(_request(user="bob"))

    def test_validation(self):
        with pytest.raises(ValueError):
            QuotaPolicy(max_grants=0, period=1.0)
        with pytest.raises(ValueError):
            QuotaPolicy(max_grants=1, period=0.0)


class TestPrepaid:
    def test_grant_debits_balance(self):
        policy = PrepaidPolicy(balances={"alice": 5.0}, default_price=2.0)
        request = _request()
        policy.authorize(request)
        policy.on_granted(request)
        assert policy.balances["alice"] == 3.0

    def test_insufficient_balance_denied(self):
        policy = PrepaidPolicy(balances={"alice": 0.5}, default_price=2.0)
        with pytest.raises(AcquisitionDenied):
            policy.authorize(_request())

    def test_per_service_prices(self):
        policy = PrepaidPolicy(
            balances={"alice": 10.0}, prices={"Boost": 7.0}, default_price=1.0
        )
        assert policy.price_of("Boost") == 7.0
        assert policy.price_of("other") == 1.0

    def test_unknown_user_has_zero_balance(self):
        policy = PrepaidPolicy(balances={})
        with pytest.raises(AcquisitionDenied):
            policy.authorize(_request(user="stranger"))


class TestComposition:
    def test_all_must_pass(self):
        policy = AllOfPolicy(
            [
                AuthenticatedUsersPolicy(accounts={"alice": "pw"}),
                ServiceWhitelistPolicy({"Boost"}),
            ]
        )
        policy.authorize(_request(secret="pw"))
        with pytest.raises(AcquisitionDenied):
            policy.authorize(_request(service="other", secret="pw"))
        with pytest.raises(AcquisitionDenied):
            policy.authorize(_request(secret="wrong"))

    def test_grants_recorded_in_all(self):
        quota = QuotaPolicy(max_grants=1, period=100.0)
        prepaid = PrepaidPolicy(balances={"alice": 10.0}, default_price=1.0)
        policy = AllOfPolicy([quota, prepaid])
        request = _request(time=0.0)
        policy.authorize(request)
        policy.on_granted(request)
        with pytest.raises(AcquisitionDenied):
            quota.authorize(_request(time=1.0))
        assert prepaid.balances["alice"] == 9.0

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            AllOfPolicy([])
