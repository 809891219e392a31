"""PIL packet protocol.

Frame layout (all single bytes unless noted)::

    SOF (0xA5) | SEQ | TYPE | LEN | PAYLOAD (LEN bytes) | CRC8

The payload carries unsigned 16-bit little-endian words — the natural unit
of the 16-bit target: raw ADC codes and quadrature counts travel towards
the controller, raw PWM duty registers travel back.  A CRC-8 trailer
detects the corruption the line model injects; the decoder resynchronises
on the next SOF after any error.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass
from typing import Iterable, Optional

SOF = 0xA5
#: Frame overhead: SOF + SEQ + TYPE + LEN + CRC.
OVERHEAD_BYTES = 5
MAX_PAYLOAD = 255
#: little-endian 16-bit word packers, indexed by word count (LEN is one
#: byte, so a frame carries at most 127 words)
_WORDS = tuple(struct.Struct(f"<{n}H") for n in range(MAX_PAYLOAD // 2 + 1))


class PacketType(enum.IntEnum):
    """What the frame carries."""

    DATA = 0x01        # plant -> controller sensor words
    ACTUATION = 0x02   # controller -> plant actuator words
    SYNC = 0x03        # step barrier
    EVENT = 0x04       # asynchronous event flags (simulated interrupts)
    CMD = 0x05         # start/stop/parameter commands
    ACK = 0x06         # ARQ: positive acknowledge (SEQ field = acked seq)
    NAK = 0x07         # ARQ: corrupted frame seen, solicit retransmit


#: the PacketType of each wire value (unknown values are absent)
_PTYPES = {int(t): t for t in PacketType}


@functools.cache
def _crc8_table(poly: int) -> bytes:
    """CRC-8 of every single byte under ``poly``, by the bitwise
    definition (MSB first): the byte-at-a-time lookup table."""
    table = bytearray(256)
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = ((crc << 1) ^ poly) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table[i] = crc
    return bytes(table)


def crc8(data: Iterable[int], poly: int = 0x07, init: int = 0x00) -> int:
    """CRC-8-CCITT over a byte iterable (table-driven, one table per
    polynomial, built on first use)."""
    table = _crc8_table(poly)
    crc = init
    for b in data:
        crc = table[(crc ^ b) & 0xFF]
    return crc


@dataclass(frozen=True)
class Packet:
    """A decoded frame."""

    ptype: PacketType
    seq: int
    words: tuple[int, ...]

    @property
    def wire_size(self) -> int:
        return OVERHEAD_BYTES + 2 * len(self.words)


class PacketCodec:
    """Stateful encoder: assigns sequence numbers, packs words."""

    def __init__(self) -> None:
        self._seq = 0
        self.packets_encoded = 0

    def encode(self, ptype: PacketType, words: Iterable[int]) -> bytes:
        """Build one frame carrying unsigned 16-bit words."""
        words = [int(w) & 0xFFFF for w in words]
        n_bytes = 2 * len(words)
        if n_bytes > MAX_PAYLOAD:
            raise ValueError(
                f"payload of {n_bytes} bytes exceeds the {MAX_PAYLOAD}-byte frame limit"
            )
        seq = self._seq
        self._seq = (self._seq + 1) & 0xFF
        frame = bytearray((SOF, seq, int(ptype), n_bytes))
        frame += _WORDS[len(words)].pack(*words)
        frame.append(crc8(frame[1:]))  # CRC over everything after SOF
        self.packets_encoded += 1
        return bytes(frame)

    def encode_control(self, ptype: PacketType, seq: int) -> bytes:
        """Build a zero-payload control frame whose SEQ field carries an
        *explicit* reference (ACK/NAK name the frame they refer to, they
        do not consume a number from the data stream)."""
        frame = bytearray((SOF, int(seq) & 0xFF, int(ptype), 0))
        frame.append(crc8(frame[1:]))
        self.packets_encoded += 1
        return bytes(frame)

    @staticmethod
    def wire_size(n_words: int) -> int:
        """Frame size in bytes for ``n_words`` payload words."""
        return OVERHEAD_BYTES + 2 * n_words


class PacketDecoder:
    """Incremental frame parser with resynchronisation.

    Feed bytes as they arrive; completed packets accumulate in
    :attr:`packets` (or are handed to ``on_packet``).  Corrupted frames
    bump :attr:`crc_errors` and scanning restarts at the next SOF;
    ``on_error`` (if set) fires once per rejected frame so a reliability
    layer can solicit a retransmission.

    A frame's fate is decided when its last byte arrives (or, for an
    invalid LEN, its header's): until the buffer holds the ``_need``
    bytes the head frame needs, a feed only appends.
    """

    def __init__(self, on_packet=None, on_error=None, max_payload: int = MAX_PAYLOAD):
        self._buf = bytearray()
        self.packets: list[Packet] = []
        self.on_packet = on_packet
        self.on_error = on_error
        self.max_payload = max_payload
        self.crc_errors = 0
        self.resyncs = 0

    @property
    def max_payload(self) -> int:
        return self._max_payload

    @max_payload.setter
    def max_payload(self, limit: int) -> None:
        self._max_payload = int(limit)
        self._need = 1  # re-check a waiting header against the new bound

    def reset(self) -> None:
        """Drop any partially received frame (recovery resync); the
        error/packet counters survive, they are campaign statistics."""
        self._buf.clear()
        self._need = 1

    def feed(self, data: bytes | bytearray | Iterable[int]) -> list[Packet]:
        """Consume bytes; returns packets completed by *this* call."""
        buf = self._buf
        buf.extend(data if isinstance(data, (bytes, bytearray)) else bytes(data))
        if len(buf) < self._need:
            return []
        done: list[Packet] = []
        while True:
            pkt = self._try_parse()
            if pkt is None:
                break
            done.append(pkt)
            self.packets.append(pkt)
            if self.on_packet is not None:
                self.on_packet(pkt)
        return done

    def _try_parse(self) -> Optional[Packet]:
        """Parse the head frame; rejected frames are skipped in a loop.
        Returns None (and sets ``_need``) when the head frame is still
        incomplete."""
        buf = self._buf
        while True:
            # hunt for SOF
            skip = buf.find(SOF)
            if skip < 0:
                skip = len(buf)
            if skip:
                del buf[:skip]
                self.resyncs += skip
            if len(buf) < OVERHEAD_BYTES:
                self._need = OVERHEAD_BYTES if buf else 1
                return None
            length = buf[3]
            # Validate LEN before waiting on payload bytes: a byte-drop can
            # put arbitrary garbage in the LEN slot, and waiting for up to
            # 255 phantom bytes stalls the parser for tens of frames.  Word
            # payloads are always even, and callers that know their traffic
            # can tighten ``max_payload`` further.
            if length % 2 != 0 or length > self._max_payload:
                self._frame_error()
                del buf[0]
                continue
            frame_len = OVERHEAD_BYTES + length
            if len(buf) < frame_len:
                self._need = frame_len
                return None
            if crc8(buf[1:frame_len - 1]) != buf[frame_len - 1]:
                self._frame_error()
                del buf[0]  # discard this SOF, rescan
                continue
            seq, ptype = buf[1], _PTYPES.get(buf[2])
            if ptype is not None:
                words = _WORDS[length // 2].unpack_from(buf, 4)
            del buf[:frame_len]
            if ptype is None:
                self._frame_error()
                continue
            return Packet(ptype=ptype, seq=seq, words=words)

    def _frame_error(self) -> None:
        self.crc_errors += 1
        if self.on_error is not None:
            self.on_error()


def words_from_signed(values: Iterable[int]) -> list[int]:
    """Two's-complement pack: signed 16-bit -> unsigned wire words."""
    return [int(v) & 0xFFFF for v in values]


def signed_from_words(words: Iterable[int]) -> list[int]:
    """Unsigned wire words -> signed 16-bit."""
    out = []
    for w in words:
        w = int(w) & 0xFFFF
        out.append(w - 0x10000 if w >= 0x8000 else w)
    return out
