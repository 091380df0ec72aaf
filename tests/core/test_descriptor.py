"""Cookie descriptor tests: creation, serialization, lifecycle."""

import os

import pytest

from repro.core.attributes import CookieAttributes
from repro.core.descriptor import CookieDescriptor


class TestCreation:
    def test_create_random_ids_distinct(self):
        a, b = CookieDescriptor.create(), CookieDescriptor.create()
        assert a.cookie_id != b.cookie_id
        assert a.key != b.key

    def test_id_fits_64_bits(self):
        descriptor = CookieDescriptor.create()
        assert 0 <= descriptor.cookie_id < 2**64

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError):
            CookieDescriptor(cookie_id=2**64, key=b"k")
        with pytest.raises(ValueError):
            CookieDescriptor(cookie_id=-1, key=b"k")

    def test_create_still_range_checks_a_callers_id(self):
        for cookie_id in (2**64, -1):
            with pytest.raises(ValueError, match="64 bits"):
                CookieDescriptor.create(cookie_id=cookie_id)
        assert CookieDescriptor.create(cookie_id=2**64 - 1).cookie_id == 2**64 - 1

    def test_create_mints_what_the_constructor_would(self, monkeypatch):
        monkeypatch.setattr(
            os, "urandom", lambda nbytes: (7).to_bytes(8, "big") + b"k" * 32
        )
        attributes = CookieAttributes(expires_at=5.0)
        minted = CookieDescriptor.create("Boost", attributes)
        assert minted == CookieDescriptor(
            cookie_id=7, key=b"k" * 32, service_data="Boost", attributes=attributes
        )
        assert minted.attributes is attributes
        assert CookieDescriptor.create() == CookieDescriptor(cookie_id=7, key=b"k" * 32)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            CookieDescriptor(cookie_id=1, key=b"")

    def test_key_coerced_to_bytes(self):
        descriptor = CookieDescriptor(cookie_id=1, key=bytearray(b"abc"))
        assert isinstance(descriptor.key, bytes)

    def test_service_data_carried(self):
        descriptor = CookieDescriptor.create(service_data={"service": "Boost"})
        assert descriptor.service_data == {"service": "Boost"}


class TestLifecycle:
    def test_usable_by_default(self):
        assert CookieDescriptor.create().is_usable(now=0.0)

    def test_revocation(self):
        descriptor = CookieDescriptor.create()
        descriptor.revoke()
        assert descriptor.revoked
        assert not descriptor.is_usable(now=0.0)

    def test_expiry(self):
        descriptor = CookieDescriptor.create(
            attributes=CookieAttributes(expires_at=100.0)
        )
        assert descriptor.is_usable(now=50.0)
        assert not descriptor.is_usable(now=150.0)


class TestSerialization:
    def test_json_roundtrip(self):
        descriptor = CookieDescriptor.create(
            service_data="Boost",
            attributes=CookieAttributes(shared=True, expires_at=10.0),
        )
        recovered = CookieDescriptor.from_json(descriptor.to_json())
        assert recovered.cookie_id == descriptor.cookie_id
        assert recovered.key == descriptor.key
        assert recovered.service_data == "Boost"
        assert recovered.attributes.shared
        assert recovered.attributes.expires_at == 10.0

    def test_audit_form_omits_key(self):
        descriptor = CookieDescriptor.create()
        public = descriptor.to_json(include_key=False)
        assert "key" not in public

    def test_from_json_requires_key(self):
        descriptor = CookieDescriptor.create()
        with pytest.raises(ValueError):
            CookieDescriptor.from_json(descriptor.to_json(include_key=False))

    def test_revoked_flag_roundtrips(self):
        descriptor = CookieDescriptor.create()
        descriptor.revoke()
        assert CookieDescriptor.from_json(descriptor.to_json()).revoked

    @pytest.mark.contract
    def test_clone_equals_its_source_and_shares_no_mutable_part(self):
        descriptor = CookieDescriptor.create(
            service_data="Boost",
            attributes=CookieAttributes(
                granularity="packet",
                shared=True,
                expires_at=10.0,
                extra={"constraints": {"ssid": "home"}},
            ),
        )
        copy = descriptor.clone()
        assert copy == descriptor
        assert copy == CookieDescriptor.from_json(descriptor.to_json())
        assert copy.to_json() == descriptor.to_json()
        # The only mutable part is the flag, and that is not shared ...
        second = descriptor.clone()
        copy.revoke()
        assert not descriptor.revoked and not second.revoked
        descriptor.revoke()
        assert not second.revoked
        # ... the attribute block is, because nobody can write to it.
        attrs = descriptor.attributes
        assert copy.attributes is attrs
        for name in attrs._fields:
            with pytest.raises(AttributeError):
                setattr(attrs, name, getattr(attrs, name))
        with pytest.raises(TypeError):
            attrs.extra["tampered"] = True
        with pytest.raises(TypeError):
            attrs.constraints["ssid"] = "elsewhere"
        assert not hasattr(attrs, "clone")
        assert not hasattr(attrs, "__dict__") and not hasattr(copy, "__dict__")
        # A revoked source clones revoked.
        assert copy.clone().revoked

    def test_repr_hides_key(self):
        descriptor = CookieDescriptor.create()
        assert descriptor.key.hex() not in repr(descriptor)


def _dataclass_path(cookie_id, key):
    """What ``__post_init__`` checked and stored before it skipped the
    copy of an exact ``bytes`` key: the reference for the parity test."""
    if not 0 <= cookie_id <= 2**64 - 1:
        raise ValueError("cookie_id must fit in 64 bits")
    if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
        raise ValueError("descriptor key must be non-empty bytes")
    return cookie_id, bytes(key)


class _Key(bytes):
    pass


@pytest.mark.contract
@pytest.mark.parametrize(
    "cookie_id, key",
    [
        (0, b"k"),
        (2**64 - 1, b"k" * 32),
        (2**64, b"k"),
        (-1, b"k"),
        (1, b""),
        (1, bytearray()),
        (1, bytearray(b"abc")),
        (1, _Key(b"abc")),
        (1, _Key()),
        (1, "abc"),
        (1, None),
    ],
    ids=["id-0", "id-max", "id-over", "id-negative", "empty-key",
         "empty-bytearray", "bytearray-key", "bytes-subclass-key",
         "empty-bytes-subclass", "str-key", "no-key"],
)
def test_validation_matches_the_dataclass_path(cookie_id, key):
    try:
        want = _dataclass_path(cookie_id, key)
    except ValueError:
        with pytest.raises(ValueError):
            CookieDescriptor(cookie_id=cookie_id, key=key)
        return
    descriptor = CookieDescriptor(cookie_id=cookie_id, key=key)
    assert (descriptor.cookie_id, descriptor.key) == want
    assert type(descriptor.key) is bytes
    if type(key) is bytes:
        assert descriptor.key is key  # already exact: kept, not copied
    else:
        assert descriptor.key is not key
