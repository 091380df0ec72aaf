"""Cookie wire-format and signature tests."""

import copy
import dataclasses
import hmac
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.cookie import (
    COOKIE_WIRE_BYTES,
    SIGNATURE_BYTES,
    UUID_BYTES,
    Cookie,
    SignerCache,
    sign_cookie_fields,
    verify_operands,
)
from repro.core.descriptor import CookieDescriptor
from repro.core.errors import MalformedCookie
from repro.core.generator import CookieGenerator
from repro.core.matcher import VERDICT_RECORD, CookieMatcher
from repro.core.store import DescriptorStore

from .cookie_stream import NOW, _signed, _uuid


def _cookie(key=b"k" * 32, cookie_id=42, uuid=b"u" * 16, timestamp=123.456):
    return Cookie(
        cookie_id=cookie_id,
        uuid=uuid,
        timestamp=timestamp,
        signature=sign_cookie_fields(key, cookie_id, uuid, timestamp),
    )


class TestEncoding:
    def test_binary_roundtrip(self):
        cookie = _cookie()
        assert Cookie.from_bytes(cookie.to_bytes()) == cookie

    def test_binary_length(self):
        assert len(_cookie().to_bytes()) == COOKIE_WIRE_BYTES == 48

    def test_text_roundtrip(self):
        cookie = _cookie()
        assert Cookie.from_text(cookie.to_text()) == cookie

    def test_text_is_base64(self):
        import base64

        text = _cookie().to_text()
        assert base64.b64decode(text) == _cookie().to_bytes()

    def test_timestamp_microsecond_precision(self):
        cookie = _cookie(timestamp=1.000001)
        assert Cookie.from_bytes(cookie.to_bytes()).timestamp == pytest.approx(
            1.000001, abs=1e-9
        )

    def test_wrong_length_rejected(self):
        with pytest.raises(MalformedCookie):
            Cookie.from_bytes(b"short")

    def test_bad_base64_rejected(self):
        with pytest.raises(MalformedCookie):
            Cookie.from_text("!!!not base64!!!")

    def test_valid_base64_wrong_length_rejected(self):
        with pytest.raises(MalformedCookie):
            Cookie.from_text("YWJj")  # "abc"

    def test_from_text_takes_the_ascii_bytes_a_carrier_holds(self):
        text = _cookie().to_text()
        assert Cookie.from_text(text.encode("ascii")) == Cookie.from_text(text)

    @pytest.mark.parametrize(
        "text",
        ["caf\u00e9" * 16, b"\xff\xfe" * 32, " {} ", "{},{}", b"{}\n"],
    )
    def test_from_text_stays_strict(self, text):
        """validate=True semantics for both input types: non-ASCII,
        padding whitespace and list separators are all malformed."""
        good = _cookie().to_text()
        if isinstance(text, bytes):
            text = text.replace(b"{}", good.encode("ascii"))
        else:
            text = text.replace("{}", good)
        with pytest.raises(MalformedCookie):
            Cookie.from_text(text)

    def test_from_bytes_builds_the_same_cookie_as_the_constructor(self):
        cookie = _cookie()
        parsed = Cookie.from_bytes(cookie.to_bytes())
        assert parsed == cookie and hash(parsed) == hash(cookie)
        assert parsed.to_bytes() == cookie.to_bytes()
        assert repr(parsed) == repr(cookie)

    @given(
        cookie_id=st.integers(0, 2**64 - 1),
        uuid=st.binary(min_size=16, max_size=16),
        # Bounded at 2**31 s (~epoch 2038): microsecond integers must stay
        # exactly representable in float64 for lossless round-trips.
        timestamp=st.floats(0, 2**31, allow_nan=False),
    )
    def test_roundtrip_property(self, cookie_id, uuid, timestamp):
        cookie = _cookie(cookie_id=cookie_id, uuid=uuid, timestamp=timestamp)
        recovered = Cookie.from_bytes(cookie.to_bytes())
        assert recovered.cookie_id == cookie_id
        assert recovered.uuid == uuid
        assert recovered.timestamp == pytest.approx(timestamp, abs=1e-5)


WIRE_ONLY = {"_wire"}
DECODED = {"_wire", "cookie_id", "uuid", "timestamp", "signature"}

_U64 = st.integers(0, 2**64 - 1)
_UUIDS = st.binary(min_size=UUID_BYTES, max_size=UUID_BYTES)
_SIGNATURES = st.binary(min_size=SIGNATURE_BYTES, max_size=SIGNATURE_BYTES)
#: Every float whose µs value fits u64, sub-µs fractions included.
_TIMESTAMPS = st.floats(0, 1.8e13)

_DUPLICATES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda cookie: pickle.loads(pickle.dumps(cookie)),
}


@pytest.mark.contract
class TestOneRepresentation:
    """However a cookie is made it holds its 48 bytes, and those bytes
    are all that equality, hashing and the encodings look at."""

    @settings(max_examples=200, deadline=None)
    @given(
        cookie_id=_U64, uuid=_UUIDS, timestamp=_TIMESTAMPS,
        signature=_SIGNATURES, other=_SIGNATURES,
    )
    # Regression: the constructor used to keep the float it was given,
    # so ``from_bytes(c.to_bytes()) != c`` for a sub-µs timestamp.
    @example(
        cookie_id=42, uuid=b"u" * 16, timestamp=1.00000049,
        signature=b"s" * 16, other=b"t" * 16,
    )
    def test_a_cookie_is_its_48_bytes(
        self, cookie_id, uuid, timestamp, signature, other
    ):
        cookie = Cookie(cookie_id, uuid, timestamp, signature)
        wire = cookie.to_bytes()
        parsed = [Cookie.from_bytes(wire), Cookie.from_text(cookie.to_text())]
        copies = [duplicate(cookie) for duplicate in _DUPLICATES.values()]
        copies += [duplicate(parsed[0]) for duplicate in _DUPLICATES.values()]
        for made in parsed + copies:
            assert made == cookie and cookie == made
            assert hash(made) == hash(cookie)
            assert made.to_bytes() == wire
            assert "_wire" in vars(made)
        # The constructor kept the timestamp it packed: whole µs.
        assert "_wire" in vars(cookie)
        assert cookie.timestamp == parsed[0].timestamp
        assert dataclasses.astuple(cookie) == dataclasses.astuple(parsed[1])
        for source in (cookie, Cookie.from_bytes(wire)):
            replaced = dataclasses.replace(source, signature=other)
            assert replaced.to_bytes()[-SIGNATURE_BYTES:] == other
            assert (replaced == cookie) == (other == signature)
            assert set(vars(replaced)) == DECODED

    @given(timestamp=_TIMESTAMPS, uuid=_UUIDS)
    def test_a_generated_cookie_is_its_48_bytes(self, timestamp, uuid):
        descriptor = CookieDescriptor.create()
        cookie = CookieGenerator(
            descriptor, clock=lambda: timestamp, rng=lambda n: uuid
        ).generate()
        assert "_wire" in vars(cookie)
        assert cookie.verify_signature(descriptor)
        assert cookie == Cookie(
            descriptor.cookie_id, uuid, timestamp,
            sign_cookie_fields(descriptor.key, descriptor.cookie_id, uuid, timestamp),
        )


@pytest.mark.contract
@pytest.mark.parametrize("parse", ["from_bytes", "from_text"])
class TestWireBacked:
    """A cookie parsed off a wire holds its 48 bytes and nothing else
    until a field is asked for; everything observable about it equals
    the eagerly built form."""

    @staticmethod
    def _pair(parse):
        eager = _cookie()
        if parse == "from_bytes":
            return Cookie.from_bytes(eager.to_bytes()), eager
        return Cookie.from_text(eager.to_text()), eager

    def test_fields_decode_once_on_first_access(self, parse):
        parsed, eager = self._pair(parse)
        assert set(vars(parsed)) == WIRE_ONLY
        assert parsed.to_bytes() == eager.to_bytes()
        assert parsed.to_text() == eager.to_text()
        assert verify_operands(parsed) == verify_operands(eager)
        assert set(vars(parsed)) == WIRE_ONLY
        assert parsed.timestamp == eager.timestamp
        assert set(vars(parsed)) == DECODED
        assert dataclasses.astuple(parsed) == dataclasses.astuple(eager)

    def test_equality_hash_repr(self, parse):
        parsed, eager = self._pair(parse)
        twin, _ = self._pair(parse)
        assert parsed == eager and eager == parsed and parsed == twin
        assert hash(parsed) == hash(eager)
        assert repr(twin) == repr(eager)
        assert parsed != _cookie(cookie_id=43)
        assert parsed.verify_signature(
            CookieDescriptor(cookie_id=42, key=b"k" * 32)
        )

    @pytest.mark.parametrize(
        "duplicate", _DUPLICATES.values(), ids=_DUPLICATES
    )
    def test_copies_stay_wire_backed(self, parse, duplicate):
        parsed, eager = self._pair(parse)
        copied = duplicate(parsed)
        assert set(vars(copied)) == set(vars(parsed)) == WIRE_ONLY
        assert copied == eager
        # ...and a decoded cookie copies as what it is.
        assert duplicate(copied) == eager

    def test_replace_builds_the_eager_form(self, parse):
        parsed, eager = self._pair(parse)
        signature = b"s" * SIGNATURE_BYTES
        replaced = dataclasses.replace(parsed, signature=signature)
        assert replaced == dataclasses.replace(eager, signature=signature)
        assert set(vars(replaced)) == DECODED
        with pytest.raises(MalformedCookie):
            dataclasses.replace(parsed, uuid=b"short")

    def test_still_frozen_and_still_strict_about_names(self, parse):
        parsed, _ = self._pair(parse)
        for cookie in (parsed, _cookie()):
            with pytest.raises(AttributeError):
                cookie.nonesuch
            with pytest.raises(dataclasses.FrozenInstanceError):
                cookie.cookie_id = 7
        assert not hasattr(parsed, "__setstate__")
        assert set(vars(parsed)) == WIRE_ONLY


class TestValidation:
    def test_bad_uuid_length(self):
        with pytest.raises(MalformedCookie):
            Cookie(cookie_id=1, uuid=b"short", timestamp=0.0, signature=b"s" * 16)

    def test_bad_signature_length(self):
        with pytest.raises(MalformedCookie):
            Cookie(cookie_id=1, uuid=b"u" * 16, timestamp=0.0, signature=b"s")

    @pytest.mark.contract
    @settings(max_examples=200, deadline=None)
    @given(
        cookie_id=st.one_of(_U64, st.integers(-(2**70), 2**70)),
        timestamp=st.one_of(
            _TIMESTAMPS, st.floats(allow_nan=True, allow_infinity=True)
        ),
    )
    @example(cookie_id=1, timestamp=-1.0)
    @example(cookie_id=1, timestamp=float("nan"))
    @example(cookie_id=1, timestamp=float("inf"))
    @example(cookie_id=1, timestamp=1e30)
    @example(cookie_id=-1, timestamp=0.0)
    @example(cookie_id=2**64, timestamp=0.0)
    def test_unserialisable_fields_never_reach_the_verifier(
        self, cookie_id, timestamp
    ):
        """Regression: an id or a µs timestamp outside u64 used to
        construct and then throw a bare ``struct.error`` out of
        ``to_bytes()`` / ``CookieMatcher.match``.  Now either the fields
        are refused where they are put together — by the constructor or
        by ``replace`` — or the cookie verifies like any other."""
        good = _cookie()
        # NaN fails both comparisons; -1 µs and 1.85e19 µs are outside u64.
        hopeless = not 0 <= cookie_id < 2**64 or not -1e-6 < timestamp < 1.85e13
        try:
            built = Cookie(cookie_id, good.uuid, timestamp, good.signature)
            replaced = dataclasses.replace(
                Cookie.from_bytes(good.to_bytes()),
                cookie_id=cookie_id, timestamp=timestamp,
            )
        except MalformedCookie:
            return
        assert not hopeless and built == replaced
        matcher = CookieMatcher(DescriptorStore())
        assert matcher.match(built, 0.0) is None
        assert matcher.match_batch([built, replaced], 0.0) == [None, None]

    def test_repr_does_not_leak_signature(self):
        cookie = _cookie()
        assert cookie.signature.hex() not in repr(cookie)


class TestSignature:
    def test_verifies_under_right_key(self):
        descriptor = CookieDescriptor(cookie_id=42, key=b"k" * 32)
        assert _cookie(key=b"k" * 32).verify_signature(descriptor)

    def test_rejects_wrong_key(self):
        descriptor = CookieDescriptor(cookie_id=42, key=b"wrong" * 8)
        assert not _cookie(key=b"k" * 32).verify_signature(descriptor)

    def test_signature_covers_id(self):
        descriptor = CookieDescriptor(cookie_id=42, key=b"k" * 32)
        tampered = Cookie(
            cookie_id=43,
            uuid=b"u" * 16,
            timestamp=123.456,
            signature=_cookie().signature,
        )
        assert not tampered.verify_signature(descriptor)

    def test_signature_covers_uuid(self):
        descriptor = CookieDescriptor(cookie_id=42, key=b"k" * 32)
        tampered = Cookie(
            cookie_id=42,
            uuid=b"x" * 16,
            timestamp=123.456,
            signature=_cookie().signature,
        )
        assert not tampered.verify_signature(descriptor)

    def test_signature_covers_timestamp(self):
        descriptor = CookieDescriptor(cookie_id=42, key=b"k" * 32)
        tampered = Cookie(
            cookie_id=42,
            uuid=b"u" * 16,
            timestamp=999.0,
            signature=_cookie().signature,
        )
        assert not tampered.verify_signature(descriptor)

    def test_signature_length(self):
        assert len(sign_cookie_fields(b"k", 1, b"u" * 16, 0.0)) == SIGNATURE_BYTES

    def test_deterministic(self):
        a = sign_cookie_fields(b"key", 7, b"u" * UUID_BYTES, 5.0)
        b = sign_cookie_fields(b"key", 7, b"u" * UUID_BYTES, 5.0)
        assert a == b


class TestSignerCache:
    def test_one_shot_descriptors_build_no_states(self):
        """More distinct descriptors in a batch than the cache holds:
        each cookie gets the one-shot MAC, nothing is built or evicted,
        and verdicts equal scalar.  States are for an id that repeats."""
        store = DescriptorStore()
        descriptors = [
            store.add(CookieDescriptor.create()) for _ in range(8192)
        ]
        cookies = [
            _signed(descriptor, _uuid(i), NOW)
            for i, descriptor in enumerate(descriptors)
        ]
        scalar, batched, wire = (CookieMatcher(store) for _ in range(3))
        assert len(descriptors) > batched._signers.max_keys
        verdicts = batched.match_batch(cookies, NOW)
        assert verdicts == [scalar.match(c, NOW) for c in cookies] == descriptors
        out = bytearray(VERDICT_RECORD.size * len(cookies))
        wire.match_wire(b"".join(c.to_bytes() for c in cookies), NOW, out)
        assert [code for code, _ in VERDICT_RECORD.iter_unpack(out)] == (
            [0] * len(cookies)
        )
        assert wire.stats.as_dict() == batched.stats.as_dict()
        assert len(batched._signers) == len(wire._signers) == 0

        again = [_signed(descriptors[0], _uuid(9000 + i), NOW) for i in range(3)]
        assert batched.match_batch(again, NOW) == [descriptors[0]] * 3
        assert len(batched._signers) == 1
        # Cached now: the next batch's first cookie already finds them.
        assert batched._signers.peek(descriptors[0].key) != (None, None)

    @settings(max_examples=60, deadline=None)
    @given(
        # 1-200 bytes crosses SHA-256's 64-byte block: longer keys are
        # hashed before padding (RFC 2104).
        key=st.binary(min_size=1, max_size=200),
        cookie_id=st.integers(0, 2**64 - 1),
        tag=st.integers(0, 2**32 - 1),
        timestamp=st.floats(
            0.0, 2**31, allow_nan=False, allow_infinity=False
        ),
    )
    def test_digest_matches_sign_cookie_fields(
        self, key, cookie_id, tag, timestamp
    ):
        cache = SignerCache()
        uuid = _uuid(tag)
        expected = sign_cookie_fields(key, cookie_id, uuid, timestamp)
        # The hand-rolled MAC is the stdlib's HMAC-SHA256, truncated.
        message = (
            cookie_id.to_bytes(8, "big")
            + uuid
            + round(timestamp * 1_000_000).to_bytes(8, "big")
        )
        assert expected == hmac.digest(key, message, "sha256")[:SIGNATURE_BYTES]
        assert cache.sign(key, cookie_id, uuid, timestamp) == expected
        # Second call serves from the pre-absorbed states: same digest.
        assert cache.sign(key, cookie_id, uuid, timestamp) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.binary(min_size=1, max_size=200), min_size=1, max_size=12),
        max_keys=st.integers(1, 3),
    )
    def test_eviction_preserves_correctness(self, keys, max_keys):
        cache = SignerCache(max_keys=max_keys)
        for key in keys + keys:
            assert cache.sign(key, 1, _uuid(1), NOW) == sign_cookie_fields(
                key, 1, _uuid(1), NOW
            )
            assert len(cache) <= max_keys
