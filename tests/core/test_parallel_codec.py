"""Property tests for the multi-process batch wire codec.

The codec (PROTOCOL.md §10) is the only thing that crosses the
dispatcher/worker boundary, so these tests pin its whole contract:
frames round-trip bit-exactly, every malformed frame maps to
:class:`MalformedCookie` (never a silent mis-parse), and a verdict
array can express every verdict the matcher can reach — one code per
:class:`MatchStats` outcome, verified end-to-end on a batch that
triggers all of them.
"""

import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.cookie import (
    COOKIE_WIRE_BYTES,
    SIGNATURE_BYTES,
    UUID_BYTES,
    Cookie,
)
from repro.core.errors import MalformedCookie
from repro.core.matcher import CookieMatcher, MatchStats
from repro.core.parallel import (
    VERDICT_ACCEPTED,
    VERDICT_CODES,
    VERDICT_REASONS,
    batch_reply,
    decode_batch,
    decode_verdicts,
    encode_batch,
    encode_verdicts,
)

from .cookie_stream import NOW, _Env, _materialize

#: Timestamps on the wire's integer-microsecond grid round-trip to the
#: exact same float, so Cookie equality is field-exact.
_GRID_TIMESTAMPS = st.integers(0, 2**40).map(lambda micros: micros / 1e6)

_COOKIES = st.builds(
    Cookie,
    cookie_id=st.integers(0, 2**64 - 1),
    uuid=st.binary(min_size=UUID_BYTES, max_size=UUID_BYTES),
    timestamp=_GRID_TIMESTAMPS,
    signature=st.binary(min_size=SIGNATURE_BYTES, max_size=SIGNATURE_BYTES),
)


class TestBatchFrameRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(cookies=st.lists(_COOKIES, max_size=16))
    def test_round_trip(self, cookies):
        assert decode_batch(encode_batch(cookies)) == cookies

    @settings(max_examples=60, deadline=None)
    @given(cookies=st.lists(_COOKIES, max_size=16))
    def test_frame_is_wire_fixpoint(self, cookies):
        """Re-encoding a decoded frame is bit-identical — the frame is
        exactly the cookies' binary carrier form, nothing added."""
        blob = encode_batch(cookies)
        assert encode_batch(decode_batch(blob)) == blob
        assert len(blob) == 4 + len(cookies) * COOKIE_WIRE_BYTES

    @settings(max_examples=30, deadline=None)
    @given(cookies=st.lists(_COOKIES, min_size=1, max_size=8))
    def test_off_grid_timestamps_quantize_to_fixpoint(self, cookies):
        """Arbitrary float timestamps land on the µs grid after one
        encode; the quantized form then round-trips exactly.  (The HMAC
        signs the quantized value too, so verdicts are unaffected —
        pinned by the differential suite.)"""
        skewed = [
            Cookie(
                cookie_id=c.cookie_id,
                uuid=c.uuid,
                timestamp=c.timestamp + 1e-7,
                signature=c.signature,
            )
            for c in cookies
        ]
        once = decode_batch(encode_batch(skewed))
        assert decode_batch(encode_batch(once)) == once

    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []


class TestMalformedBatchFrames:
    @settings(max_examples=40, deadline=None)
    @given(blob=st.binary(max_size=3))
    def test_short_header_rejected(self, blob):
        with pytest.raises(MalformedCookie):
            decode_batch(blob)

    @settings(max_examples=40, deadline=None)
    @given(
        cookies=st.lists(_COOKIES, max_size=4),
        # Cutting a full 48-byte cookie off the padded blob would leave a
        # self-consistent frame again; stay strictly inside the record.
        cut=st.integers(1, COOKIE_WIRE_BYTES - 1),
    )
    def test_truncated_body_rejected(self, cookies, cut):
        blob = encode_batch(cookies) + b"\x00" * COOKIE_WIRE_BYTES
        with pytest.raises(MalformedCookie):
            decode_batch(blob[:-cut])
        # Trailing garbage is a count/length mismatch, same rejection.
        with pytest.raises(MalformedCookie):
            decode_batch(encode_batch(cookies) + b"\xff" * cut)

    @settings(max_examples=40, deadline=None)
    @given(cookies=st.lists(_COOKIES, min_size=1, max_size=4))
    def test_lying_count_rejected(self, cookies):
        blob = encode_batch(cookies)
        wrong = (len(cookies) + 1).to_bytes(4, "big") + blob[4:]
        with pytest.raises(MalformedCookie):
            decode_batch(wrong)


def _worker_frame(blob: bytes, now: float = NOW, generation: int = 0) -> bytes:
    """A batch frame as the dispatcher sends it: opcode + now + replay
    generation + batch."""
    return b"B" + struct.pack("!dq", now, generation) + blob


def _verdict_frame(reply: bytes) -> bytes:
    """A worker's reply past its ``!q`` replay generation."""
    return reply[8:]


class TestMalformedWorkerFrames:
    """A worker parses the whole frame header itself (PROTOCOL.md §10):
    every short, mis-counted or over-long ``B`` frame must surface as
    :class:`MalformedCookie` — the exception the worker loop exits on —
    never as a ``struct.error`` traceback."""

    @pytest.mark.parametrize("length", range(1, 21))
    def test_frame_shorter_than_its_header_rejected(self, length):
        frame = _worker_frame(encode_batch([]))[:length]
        with pytest.raises(MalformedCookie):
            batch_reply(CookieMatcher(_Env().store), frame)

    @settings(max_examples=40, deadline=None)
    @given(
        cookies=st.lists(_COOKIES, max_size=4),
        cut=st.integers(1, COOKIE_WIRE_BYTES - 1),
    )
    def test_truncated_and_over_long_bodies_rejected(self, cookies, cut):
        matcher = CookieMatcher(_Env().store)
        frame = _worker_frame(encode_batch(cookies))
        with pytest.raises(MalformedCookie):
            batch_reply(matcher, (frame + b"\x00" * COOKIE_WIRE_BYTES)[:-cut])
        with pytest.raises(MalformedCookie):
            batch_reply(matcher, frame + b"\xff" * cut)
        # A whole extra cookie the count does not announce is still a lie.
        with pytest.raises(MalformedCookie):
            batch_reply(matcher, frame + b"\x00" * COOKIE_WIRE_BYTES)
        # Nothing was verified, nothing counted.
        assert matcher.stats.total == 0

    @settings(max_examples=40, deadline=None)
    @given(
        cookies=st.lists(_COOKIES, min_size=1, max_size=4),
        delta=st.sampled_from([-1, 1, 2**31]),
    )
    def test_lying_count_rejected(self, cookies, delta):
        blob = encode_batch(cookies)
        wrong = (len(cookies) + delta).to_bytes(4, "big") + blob[4:]
        with pytest.raises(MalformedCookie):
            batch_reply(CookieMatcher(_Env().store), _worker_frame(wrong))

    def test_empty_batch_is_well_formed(self):
        reply = batch_reply(
            CookieMatcher(_Env().store), _worker_frame(encode_batch([]))
        )
        assert decode_verdicts(_verdict_frame(reply)) == []

    def test_match_wire_rejects_a_ragged_body(self):
        matcher = CookieMatcher(_Env().store)
        with pytest.raises(MalformedCookie):
            matcher.match_wire(b"\x00" * (COOKIE_WIRE_BYTES + 1), NOW, bytearray(18))
        assert matcher.stats.total == 0


class TestVerdictFrames:
    @settings(max_examples=60, deadline=None)
    @given(
        verdicts=st.lists(
            st.tuples(
                st.integers(0, len(VERDICT_REASONS) - 1),
                st.integers(0, 2**64 - 1),
            ),
            max_size=32,
        )
    )
    def test_round_trip(self, verdicts):
        assert decode_verdicts(encode_verdicts(verdicts)) == verdicts

    def test_codes_cover_match_stats_outcomes(self):
        """One reason code per MatchStats outcome, accepted first — the
        wire protocol can express every verdict the matcher can reach."""
        assert VERDICT_REASONS[VERDICT_ACCEPTED] == "accepted"
        assert set(VERDICT_REASONS) == set(MatchStats().as_dict()) - {
            "total",
            "rejected",
        }

    def test_out_of_range_code_rejected_both_ways(self):
        bad = len(VERDICT_REASONS)
        with pytest.raises(MalformedCookie):
            encode_verdicts([(bad, 0)])
        blob = encode_verdicts([(0, 7)])
        poisoned = blob[:4] + bytes([bad]) + blob[5:]
        with pytest.raises(MalformedCookie):
            decode_verdicts(poisoned)

    @settings(max_examples=40, deadline=None)
    @given(blob=st.binary(max_size=3))
    def test_short_header_rejected(self, blob):
        with pytest.raises(MalformedCookie):
            decode_verdicts(blob)

    @settings(max_examples=40, deadline=None)
    @given(
        verdicts=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 2**64 - 1)),
            min_size=1,
            max_size=8,
        ),
        cut=st.integers(1, 8),
    )
    def test_length_mismatch_rejected(self, verdicts, cut):
        blob = encode_verdicts(verdicts)
        with pytest.raises(MalformedCookie):
            decode_verdicts(blob[:-cut])
        with pytest.raises(MalformedCookie):
            decode_verdicts(blob + b"\x00" * cut)

    def test_every_reject_reason_in_one_batch(self):
        """End-to-end: one batch that triggers all seven outcomes maps
        to a verdict array carrying all seven codes, descriptor ids only
        on accepts."""
        env = _Env()
        specs = [
            ("valid", 0, 1, 0.0, 1.0, "minted"),
            ("unknown", 0, 2, 0.0, 1.0, "minted"),
            ("bad_sig", 1, 3, 0.0, 1.0, "minted"),
            ("stale", 2, 4, 1.0, 2.0, "minted"),
            ("valid", 0, 5, 0.0, 1.0, "minted"),  # same descriptor, fresh uuid
            ("revoked", 0, 6, 0.0, 1.0, "minted"),
            ("expired", 0, 7, 0.0, 1.0, "minted"),
        ]
        cookies = _materialize(env, specs)
        cookies.append(cookies[0])  # replayed uuid, same shard by design
        matcher = CookieMatcher(env.store)
        reasons: list[str] = []
        matcher.match_batch(cookies, NOW, reasons=reasons)
        wire = decode_verdicts(
            encode_verdicts(
                [
                    (
                        VERDICT_CODES[reason],
                        cookie.cookie_id
                        if VERDICT_CODES[reason] == VERDICT_ACCEPTED
                        else 0,
                    )
                    for reason, cookie in zip(reasons, cookies)
                ]
            )
        )
        assert {code for code, _ in wire} == set(range(len(VERDICT_REASONS)))
        for (code, descriptor_id), cookie in zip(wire, cookies):
            if code == VERDICT_ACCEPTED:
                assert descriptor_id == cookie.cookie_id
                assert env.store.get(descriptor_id) is not None
            else:
                assert descriptor_id == 0
