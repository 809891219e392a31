"""The packet codec against its definitions.

* ``crc8`` is table-driven; it must equal the bitwise CRC-8 definition
  for every single byte, under a non-default polynomial, and on frames.
* ``PacketDecoder`` only parses once the head frame can be complete; how
  the stream is chunked must not change what it yields or counts, and
  byte by byte it must count every error, resync and packet at the same
  byte as a decoder that parses after every byte.  The streams mix valid,
  corrupted, odd-LEN, oversize-LEN and unknown-type frames and garbage.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import PacketCodec, PacketDecoder, PacketType, crc8
from repro.comm.packets import OVERHEAD_BYTES, SOF


def crc8_bitwise(data, poly=0x07, init=0x00):
    """CRC-8 by its definition: eight MSB-first shift/xor steps a byte."""
    crc = init
    for b in data:
        crc ^= b & 0xFF
        for _ in range(8):
            crc = ((crc << 1) ^ poly) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


class ReferenceDecoder:
    """The parsing rules with a full parse after every byte (no skip)."""

    def __init__(self, max_payload):
        self.buf = bytearray()
        self.max_payload = max_payload
        self.packets = []
        self.crc_errors = 0
        self.resyncs = 0

    def feed_byte(self, b):
        buf = self.buf
        buf.append(b)
        while True:
            while buf and buf[0] != SOF:
                del buf[0]
                self.resyncs += 1
            if len(buf) < OVERHEAD_BYTES:
                return
            length = buf[3]
            if length % 2 or length > self.max_payload:
                self.crc_errors += 1
                del buf[0]
                continue
            n = OVERHEAD_BYTES + length
            if len(buf) < n:
                return
            frame = bytes(buf[:n])
            if crc8_bitwise(frame[1:-1]) != frame[-1]:
                self.crc_errors += 1
                del buf[0]
                continue
            del buf[:n]
            if frame[2] not in {int(t) for t in PacketType}:
                self.crc_errors += 1
                continue
            words = tuple(
                frame[i] | (frame[i + 1] << 8) for i in range(4, n - 1, 2)
            )
            self.packets.append((frame[2], frame[1], words))


def _framed(seq, ptype, payload):
    body = bytes([seq, ptype, len(payload)]) + bytes(payload)
    return bytes([SOF]) + body + bytes([crc8_bitwise(body)])


_byte = st.integers(0, 255)
_words = st.lists(st.integers(0, 0xFFFF), max_size=4)
_segment = st.one_of(
    st.tuples(st.just("valid"), st.sampled_from(list(PacketType)), _words),
    st.tuples(st.just("corrupt"), _words, st.integers(0, 100), st.integers(1, 255)),
    st.tuples(st.just("odd_len"), _byte, st.sampled_from([1, 3, 5, 255])),
    st.tuples(st.just("oversize"), _byte, st.sampled_from([10, 64, 254])),
    st.tuples(st.just("unknown_type"), st.sampled_from([0x00, 0x08, 0x42, 0xFF]), _words),
    st.tuples(st.just("garbage"), st.binary(max_size=6)),
)


def build_stream(segments):
    codec = PacketCodec()
    out = bytearray()
    for seg in segments:
        kind = seg[0]
        if kind == "valid":
            out += codec.encode(seg[1], seg[2])
        elif kind == "corrupt":
            frame = bytearray(codec.encode(PacketType.DATA, seg[1]))
            frame[seg[2] % len(frame)] ^= seg[3]
            out += frame
        elif kind in ("odd_len", "oversize"):
            out += bytes([SOF, seg[1], int(PacketType.DATA), seg[2], 0, 0])
        elif kind == "unknown_type":
            payload = b"".join(w.to_bytes(2, "little") for w in seg[2])
            out += _framed(7, seg[1], payload)
        else:
            out += seg[1]
    return bytes(out)


def _observed(dec, packets):
    return ([(int(p.ptype), p.seq, p.words) for p in packets],
            dec.crc_errors, dec.resyncs)


# ---------------------------------------------------------------------------
# CRC
# ---------------------------------------------------------------------------
def test_table_crc_matches_the_definition_for_every_byte():
    for b in range(256):
        assert crc8(bytes([b])) == crc8_bitwise([b])


def test_table_crc_matches_for_a_non_default_polynomial():
    for poly in (0x31, 0x9B, 0x1D):
        for b in range(256):
            assert crc8([b], poly=poly) == crc8_bitwise([b], poly=poly)
        assert crc8(b"PIL frame", poly=poly, init=0xFF) == crc8_bitwise(
            b"PIL frame", poly=poly, init=0xFF)


def test_table_crc_matches_on_random_frames():
    rng = random.Random(20070326)
    for _ in range(500):
        frame = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
        init = rng.randrange(256)
        assert crc8(frame, init=init) == crc8_bitwise(frame, init=init)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("max_payload", [8, 255])
@settings(max_examples=150, deadline=None)
@given(segments=st.lists(_segment, max_size=14), seed=st.integers(0, 2**16))
def test_chunking_does_not_change_what_the_decoder_yields(max_payload, segments, seed):
    stream = build_stream(segments)

    whole = PacketDecoder(max_payload=max_payload)
    expected = _observed(whole, whole.feed(stream))

    by_byte = PacketDecoder(max_payload=max_payload)
    got = []
    for b in stream:
        got += by_byte.feed(bytes([b]))
    assert _observed(by_byte, got) == expected

    rng = random.Random(seed)
    chunked = PacketDecoder(max_payload=max_payload)
    got, i = [], 0
    while i < len(stream):
        n = rng.randint(1, 9)
        got += chunked.feed(stream[i:i + n])
        i += n
    assert _observed(chunked, got) == expected
    assert chunked.packets == whole.packets == by_byte.packets


@pytest.mark.parametrize("max_payload", [8, 255])
@settings(max_examples=150, deadline=None)
@given(segments=st.lists(_segment, max_size=14))
def test_byte_by_byte_counts_land_on_the_same_byte_as_a_full_reparse(
        max_payload, segments):
    stream = build_stream(segments)
    dec, ref = PacketDecoder(max_payload=max_payload), ReferenceDecoder(max_payload)
    for b in stream:
        dec.feed(bytes([b]))
        ref.feed_byte(b)
        assert (len(dec.packets), dec.crc_errors, dec.resyncs) == (
            len(ref.packets), ref.crc_errors, ref.resyncs)
    assert [(int(p.ptype), p.seq, p.words) for p in dec.packets] == ref.packets


def test_lowering_max_payload_rechecks_a_waiting_header():
    dec = PacketDecoder()
    frame = PacketCodec().encode(PacketType.DATA, [1, 2, 3, 4])
    dec.feed(frame[:6])  # header accepted, payload pending
    dec.max_payload = 4
    dec.feed(frame[6:7])
    assert dec.crc_errors == 1


def test_thousands_of_rejected_headers_do_not_recurse():
    """A long run of bad frames is rejected in a loop: every header is
    counted and the frame behind them still decodes."""
    errors = []
    dec = PacketDecoder(on_error=lambda: errors.append(1))
    good = PacketCodec().encode(PacketType.DATA, [42])
    pkts = dec.feed(bytes([SOF, 0, 0, 1, 0]) * 5000 + good)
    assert [p.words for p in pkts] == [(42,)]
    assert dec.crc_errors == 5000 == len(errors)
    assert dec.resyncs == 4 * 5000
