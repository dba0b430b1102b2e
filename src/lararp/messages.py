"""Wire-level message records and their canonical byte encoding.

Each message is a slotted dataclass record: it has exactly its declared
fields and no __dict__, so assigning a mistyped field name raises
AttributeError rather than adding an attribute nothing reads.

Every authentication tag in the protocol is computed over bytes produced
here, so the encoding is fixed-endian (big-endian), fixed-width, and
injective on well-formed messages. The byte layout is documented in
docs/wire_format.md.

Each fixed header packs with one precompiled struct.Struct, and each list
of node ids with one Struct call for the whole list. A bytes field of the
wrong length raises EncodingError wherever it is packed: struct's "s"
format would pad or truncate it, so every packer checks the lengths first.
"""

import struct
from dataclasses import dataclass, field

from .crypto import SECRET_LEN, TAG_LEN

RREQ_TYPE = 0x01
RREP_TYPE = 0x02
DATA_TYPE = 0x03

REQUEST_ID_LEN = 8

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
# type, source_id, dest_id, request_id, source_tag, verifier index and secret
_RREQ_HEADER = struct.Struct(f">BII{REQUEST_ID_LEN}s{TAG_LEN}sI{SECRET_LEN}s")
# type, source_id, dest_id, request_id_tag
_RREP_HEADER = struct.Struct(f">BII{TAG_LEN}s")
# type, flow_id, seq, source_id, dest_id, payload_size
_DATA_HEADER = struct.Struct(">BIIIII")


class _IdStructs(dict):
    """count -> the Struct that packs that many u32 node ids."""

    def __missing__(self, count: int) -> struct.Struct:
        packer = self[count] = struct.Struct(f">{count}I")
        return packer


_IDS = _IdStructs()


class EncodingError(ValueError):
    """A message violates its type invariants; names the offending field."""

    def __init__(self, fieldname: str, detail: str = ""):
        self.fieldname = fieldname
        super().__init__(f"{fieldname}: {detail}" if detail else fieldname)


@dataclass(slots=True)
class Rreq:
    """Route request, flooded source -> destination.

    hop_tags[k] is computed by node_list[k] over hop_digest(self, k) under
    the key it shares with the destination.
    """
    source_id: int
    dest_id: int
    request_id: bytes
    source_tag: bytes
    verifier: tuple[int, bytes]   # (chain index, revealed secret)
    node_list: list[int] = field(default_factory=list)
    hop_tags: list[bytes] = field(default_factory=list)

    def validate(self):
        if self.source_id == self.dest_id:
            raise EncodingError("dest_id", "equals source_id")
        self._check_lengths()
        if self.verifier[0] < 0:
            raise EncodingError("verifier", "negative index")
        if len(self.hop_tags) != len(self.node_list):
            raise EncodingError("hop_tags", "length differs from node_list")
        ids = set(self.node_list)
        if len(ids) != len(self.node_list):
            raise EncodingError("node_list", "duplicate node id")
        if self.source_id in ids or self.dest_id in ids:
            raise EncodingError("node_list", "names the source or destination")
        for tag in self.hop_tags:
            if len(tag) != TAG_LEN:
                raise EncodingError("hop_tags", "tag must be 16 bytes")

    def _check_lengths(self):
        """The header's bytes fields, which rreq_header packs with struct's
        "s" format; that would pad or truncate a field of another length."""
        if len(self.request_id) != REQUEST_ID_LEN:
            raise EncodingError("request_id", "must be 8 bytes")
        if len(self.source_tag) != TAG_LEN:
            raise EncodingError("source_tag", "must be 16 bytes")
        if len(self.verifier[1]) != SECRET_LEN:
            raise EncodingError("verifier", "secret must be 16 bytes")


@dataclass(slots=True)
class Rrep:
    """Route reply, unicast back along the reverse of the accumulated route.

    dest_tags holds one destination tag per verifier: dest_tags[0] is keyed
    to the source, dest_tags[1+i] to route[i]. reverse_hop_tags grows by one
    per reverse hop traversed, in traversal order (route[-1] first).
    """
    source_id: int
    dest_id: int
    request_id_tag: bytes
    route: list[int]
    dest_tags: list[bytes]
    reverse_hop_tags: list[bytes] = field(default_factory=list)

    def validate(self):
        if self.source_id == self.dest_id:
            raise EncodingError("dest_id", "equals source_id")
        if len(self.request_id_tag) != TAG_LEN:
            raise EncodingError("request_id_tag", "must be 16 bytes")
        ids = set(self.route)
        if len(ids) != len(self.route):
            raise EncodingError("route", "duplicate node id")
        if self.source_id in ids or self.dest_id in ids:
            raise EncodingError("route", "names the source or destination")
        if len(self.dest_tags) != len(self.route) + 1:
            raise EncodingError("dest_tags", "need one tag per route node plus source")
        for tag in self.dest_tags:
            if len(tag) != TAG_LEN:
                raise EncodingError("dest_tags", "tag must be 16 bytes")
        if len(self.reverse_hop_tags) > len(self.route):
            raise EncodingError("reverse_hop_tags", "more tags than reverse hops")
        for tag in self.reverse_hop_tags:
            if len(tag) != TAG_LEN:
                raise EncodingError("reverse_hop_tags", "tag must be 16 bytes")


@dataclass(slots=True)
class DataPacket:
    """CBR payload carrier, source-routed along an accepted route."""
    flow_id: int
    seq: int
    source_id: int
    dest_id: int
    payload_size: int
    route: list[int]
    created_at: float

    def validate(self):
        if self.payload_size <= 0:
            raise EncodingError("payload_size", "must be positive")
        if self.source_id == self.dest_id:
            raise EncodingError("dest_id", "equals source_id")
        if len(set(self.route)) != len(self.route):
            raise EncodingError("route", "duplicate node id")


def wellformed(message) -> bool:
    """Whether message.validate() passes, without the exception."""
    try:
        message.validate()
    except EncodingError:
        return False
    return True


def _pack_ids(ids: list[int]) -> bytes:
    return _U16.pack(len(ids)) + _IDS[len(ids)].pack(*ids)


def _pack_tags(tags: list[bytes]) -> bytes:
    return _U16.pack(len(tags)) + b"".join(tags)


def rreq_header(r: Rreq) -> bytes:
    """Fixed prefix common to the full encoding and every hop digest."""
    r._check_lengths()
    idx, secret = r.verifier
    return _RREQ_HEADER.pack(RREQ_TYPE, r.source_id, r.dest_id, r.request_id,
                             r.source_tag, idx, secret)


def rrep_body(r: Rrep) -> bytes:
    """The bytes every destination tag covers: header plus the route."""
    if len(r.request_id_tag) != TAG_LEN:
        raise EncodingError("request_id_tag", "must be 16 bytes")
    return (_RREP_HEADER.pack(RREP_TYPE, r.source_id, r.dest_id,
                              r.request_id_tag) + _pack_ids(r.route))


def reverse_tag_payload(r: Rrep, hop_id: int) -> bytes:
    """Bytes a reverse-path hop authenticates toward the source."""
    return rrep_body(r) + b"rev" + _U32.pack(hop_id)


def hop_digest(rreq: Rreq, k: int) -> bytes:
    """Bytes authenticated by the hop at position k: header plus the node
    list up to and including its own id. Prefix-stable: appending later
    hops never changes the digest for earlier positions."""
    if not 0 <= k < len(rreq.node_list):
        raise ValueError(f"hop position {k} out of range")
    return rreq_header(rreq) + _IDS[k + 1].pack(*rreq.node_list[:k + 1])


def encode(message) -> bytes:
    """Canonical, deterministic encoding of any protocol message."""
    message.validate()
    if isinstance(message, Rreq):
        return (rreq_header(message) + _pack_ids(message.node_list)
                + _pack_tags(message.hop_tags))
    if isinstance(message, Rrep):
        return (rrep_body(message) + _pack_tags(message.dest_tags)
                + _pack_tags(message.reverse_hop_tags))
    if isinstance(message, DataPacket):
        return (_DATA_HEADER.pack(DATA_TYPE, message.flow_id, message.seq,
                                  message.source_id, message.dest_id,
                                  message.payload_size)
                + _pack_ids(message.route) + _F64.pack(message.created_at))
    raise EncodingError("type", f"unknown message {type(message).__name__}")


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise EncodingError("length", "truncated message")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def ids(self) -> list[int]:
        return [self.u32() for _ in range(self.u16())]

    def tags(self) -> list[bytes]:
        return [self.take(TAG_LEN) for _ in range(self.u16())]

    def done(self):
        if self.pos != len(self.data):
            raise EncodingError("length", "trailing bytes")


def decode(data: bytes):
    """Inverse of encode; validates the result."""
    if not data:
        raise EncodingError("type", "empty message")
    r = _Reader(data)
    kind = r.take(1)[0]
    if kind == RREQ_TYPE:
        msg = Rreq(source_id=r.u32(), dest_id=r.u32(),
                   request_id=r.take(REQUEST_ID_LEN), source_tag=r.take(TAG_LEN),
                   verifier=(r.u32(), r.take(SECRET_LEN)),
                   node_list=r.ids(), hop_tags=r.tags())
    elif kind == RREP_TYPE:
        msg = Rrep(source_id=r.u32(), dest_id=r.u32(),
                   request_id_tag=r.take(TAG_LEN), route=r.ids(),
                   dest_tags=r.tags(), reverse_hop_tags=r.tags())
    elif kind == DATA_TYPE:
        msg = DataPacket(flow_id=r.u32(), seq=r.u32(), source_id=r.u32(),
                         dest_id=r.u32(), payload_size=r.u32(), route=r.ids(),
                         created_at=_F64.unpack(r.take(8))[0])
    else:
        raise EncodingError("type", f"unknown type byte {kind:#x}")
    r.done()
    msg.validate()
    return msg


# Encoded lengths of the fixed parts: the RREQ header and its two list
# counts; the RREP body header and its three list counts.
_RREQ_FIXED = _RREQ_HEADER.size + 2 + 2
_RREP_FIXED = _RREP_HEADER.size + 2 + 2 + 2


def wire_size(message) -> int:
    """Bytes occupying the channel: payload size for data, encoded length
    for control messages. Counted from the list lengths without validating,
    so an invalid message still has a size and its receivers drop it."""
    if isinstance(message, DataPacket):
        return message.payload_size
    if isinstance(message, Rreq):
        return (_RREQ_FIXED + 4 * len(message.node_list)
                + TAG_LEN * len(message.hop_tags))
    return (_RREP_FIXED + 4 * len(message.route) + TAG_LEN
            * (len(message.dest_tags) + len(message.reverse_hop_tags)))
