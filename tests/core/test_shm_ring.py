"""Property tests for the shared-memory ring (PROTOCOL.md §12).

The ring is the hot path of the multi-process data plane, so its whole
contract is pinned here: FIFO delivery across arbitrary wraparound,
exact full-ring backpressure (``try_push`` is False precisely when
``slots`` frames are unconsumed), publish-last crash semantics (a slot
whose payload was written but whose sequence word was not advanced is
invisible — a torn frame can never be delivered), and bit-exact
round-trips of the real wire frames (:func:`encode_batch` requests and
:func:`encode_verdicts` replies), including across a real fork.
"""

import multiprocessing
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.cookie import SIGNATURE_BYTES, UUID_BYTES, Cookie
from repro.core.parallel import (
    decode_batch,
    decode_verdicts,
    encode_batch,
    encode_verdicts,
)
from repro.core.shm_ring import (
    RingClosed,
    RingFrameTooLarge,
    ShmRing,
)

_GRID_TIMESTAMPS = st.integers(0, 2**40).map(lambda micros: micros / 1e6)
_COOKIES = st.builds(
    Cookie,
    cookie_id=st.integers(0, 2**64 - 1),
    uuid=st.binary(min_size=UUID_BYTES, max_size=UUID_BYTES),
    timestamp=_GRID_TIMESTAMPS,
    signature=st.binary(min_size=SIGNATURE_BYTES, max_size=SIGNATURE_BYTES),
)
_FRAMES = st.binary(min_size=0, max_size=96)


class TestFifoAndWraparound:
    @settings(max_examples=40, deadline=None)
    @given(
        frames=st.lists(_FRAMES, max_size=64),
        slots=st.integers(2, 5),
    )
    def test_fifo_across_wraparound(self, frames, slots):
        """Any frame sequence, drained through a ring far smaller than
        the sequence, arrives intact and in order — each slot is reused
        many laps."""
        with ShmRing.create(slots=slots, slot_bytes=128) as ring:
            out = []
            for frame in frames:
                assert ring.try_push(frame)
                out.append(ring.try_pop())
            assert out == frames
            assert ring.try_pop() is None

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(st.booleans(), max_size=64),
        slots=st.integers(2, 5),
    )
    def test_interleaved_against_model(self, ops, slots):
        """Model-based: any interleaving of push/pop behaves exactly
        like a bounded FIFO queue of capacity ``slots`` — including
        try_push refusing precisely when the model is full and try_pop
        returning None precisely when it is empty."""
        with ShmRing.create(slots=slots, slot_bytes=128) as ring:
            model: list[bytes] = []
            next_frame = 0
            for do_push in ops:
                if do_push:
                    frame = b"frame-%d" % next_frame
                    ok = ring.try_push(frame)
                    assert ok == (len(model) < slots)
                    if ok:
                        model.append(frame)
                        next_frame += 1
                else:
                    frame = ring.try_pop()
                    if model:
                        assert frame == model.pop(0)
                    else:
                        assert frame is None
            # Drain: everything still queued arrives in order.
            for expected in model:
                assert ring.try_pop() == expected
            assert ring.try_pop() is None


class TestBackpressure:
    @settings(max_examples=25, deadline=None)
    @given(slots=st.integers(2, 6))
    def test_full_ring_refuses_until_a_pop_frees_a_slot(self, slots):
        with ShmRing.create(slots=slots, slot_bytes=64) as ring:
            for index in range(slots):
                assert ring.try_push(bytes([index]))
            # Exactly full: the producer's next slot still holds lap-0
            # data the consumer has not freed.
            assert ring.try_push(b"overflow") is False
            assert ring.try_pop() == bytes([0])
            assert ring.try_push(b"overflow") is True
            drained = [ring.try_pop() for _ in range(slots)]
            assert drained == [bytes([i]) for i in range(1, slots)] + [
                b"overflow"
            ]


class TestCrashSemantics:
    @settings(max_examples=25, deadline=None)
    @given(
        published=st.lists(_FRAMES, max_size=3),
        torn=st.binary(min_size=1, max_size=64),
    )
    def test_partially_written_slot_is_never_delivered(
        self, published, torn
    ):
        """Publish-last discipline: simulate a producer killed after the
        length+payload writes but *before* the sequence store.  The
        consumer sees everything published before the crash and then
        nothing — never the torn frame."""
        with ShmRing.create(slots=4, slot_bytes=64) as ring:
            for frame in published:
                assert ring.try_push(frame)
            # Reach into the producer's next slot exactly as try_push
            # does, but stop short of the sequence store.
            head = ring._head
            base = 64 + (head % ring.slots) * ring._stride
            struct.pack_into("!I", ring._buf, base + 8, len(torn))
            start = base + 12
            ring._buf[start : start + len(torn)] = torn
            # (no sequence publish — the "crash")
            for frame in published:
                assert ring.try_pop() == frame
            assert ring.try_pop() is None

    def test_closed_ring_raises(self):
        ring = ShmRing.create(slots=2, slot_bytes=64)
        ring.close()
        with pytest.raises(RingClosed):
            ring.try_push(b"x")
        with pytest.raises(RingClosed):
            ring.try_pop()
        ring.close()  # idempotent


class TestFrameLimits:
    def test_oversize_frame_is_rejected_not_fragmented(self):
        with ShmRing.create(slots=2, slot_bytes=64) as ring:
            with pytest.raises(RingFrameTooLarge):
                ring.try_push(b"x" * 65)
            # The ring is untouched: a normal frame still flows.
            assert ring.try_push(b"x" * 64)
            assert ring.try_pop() == b"x" * 64

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ShmRing.create(slots=1, slot_bytes=64)
        with pytest.raises(ValueError):
            ShmRing.create(slots=2, slot_bytes=8)


class TestWireFrameRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(batches=st.lists(st.lists(_COOKIES, max_size=8), max_size=6))
    def test_encode_batch_frames_survive_the_ring(self, batches):
        """The exact production framing: request frames built by
        :func:`encode_batch` cross the ring bit-identically, through
        wraparound, and decode to equal cookies."""
        with ShmRing.create(slots=2, slot_bytes=1024) as ring:
            for cookies in batches:
                blob = encode_batch(cookies)
                assert ring.try_push(blob)
                received = ring.try_pop()
                assert received == blob
                assert decode_batch(received) == cookies

    @settings(max_examples=30, deadline=None)
    @given(
        verdicts=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 2**64 - 1)),
            max_size=32,
        )
    )
    def test_encode_verdicts_frames_survive_the_ring(self, verdicts):
        with ShmRing.create(slots=2, slot_bytes=1024) as ring:
            blob = encode_verdicts(verdicts)
            assert ring.try_push(blob)
            assert decode_verdicts(ring.try_pop()) == verdicts


def _echo_child(request_name: str, response_name: str, doorbell) -> None:
    """The worker's side of the doorbell rule: block on the pipe, take
    the frame the doorbell announces, publish the echo, ring back; any
    other byte ends the echo."""
    request = ShmRing.attach(request_name)
    response = ShmRing.attach(response_name)
    try:
        while doorbell.recv_bytes() == b"R":
            assert response.try_push(request.try_pop())
            doorbell.send_bytes(b"R")
    finally:
        request.close()
        response.close()


class TestCrossProcess:
    def test_attach_by_name_echo_round_trip(self):
        """A real second process attached by name echoes frames back,
        each way announced by a one-byte doorbell on a pipe: the
        spawn-mode worker path, including untracked attach (the
        parent's segments survive the child's exit)."""
        frames = [encode_batch([]), b"x" * 100, b"", b"\x00" * 64]
        context = multiprocessing.get_context("fork")
        doorbell, child_end = context.Pipe()
        with ShmRing.create(slots=2, slot_bytes=128) as request, ShmRing.create(
            slots=2, slot_bytes=128
        ) as response:
            child = context.Process(
                target=_echo_child,
                args=(request.name, response.name, child_end),
                daemon=True,
            )
            child.start()
            try:
                for frame in frames:
                    assert request.try_push(frame)
                    doorbell.send_bytes(b"R")
                    assert doorbell.poll(30.0)
                    assert doorbell.recv_bytes() == b"R"
                    assert response.try_pop() == frame
            finally:
                doorbell.send_bytes(b"Q")
                child.join(timeout=10.0)
                assert child.exitcode == 0
