"""Wire-level message records and their canonical byte encoding.

Each message is a slotted dataclass record: it has exactly its declared
fields and no __dict__, so assigning a mistyped field name raises
AttributeError rather than adding an attribute nothing reads.

Every authentication tag in the protocol is computed over bytes produced
here, so the encoding is fixed-endian (big-endian), fixed-width, and
injective on well-formed messages. The byte layout is documented in
docs/wire_format.md.

Each fixed header packs with one precompiled struct.Struct, and each list
of node ids with one Struct call for the whole list; decode unpacks with
the same Structs. A bytes field of the wrong length raises EncodingError
wherever it is packed: struct's "s" format would pad or truncate it, so
every packer checks the lengths first. validate refuses what the wire
cannot carry (an int outside u32, a list past a u16 count), so no packer
raises struct.error on a well-formed message.

Each wire rule is written once, as one check per field shape: two distinct
u32 endpoints, an id list, a tag list and a fixed-width bytes field. Each
validate calls these, and keeps only the rules that tie one field to
another and the bounds of its other ints.
"""

import struct
from dataclasses import dataclass, field
from typing import ClassVar

from .crypto import SECRET_LEN, TAG_LEN

RREQ_TYPE = 0x01
RREP_TYPE = 0x02
DATA_TYPE = 0x03

REQUEST_ID_LEN = 8

# The wire's bounds: an id, a verifier index and a data-header int pack as
# u32, and each list's length as a u16 count.
U32_MAX = 0xFFFF_FFFF
MAX_LIST = 0xFFFF

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


def _check_endpoints(source: int, dest: int):
    """Two distinct u32 endpoints."""
    if source == dest:
        raise EncodingError("dest_id", "equals source_id")
    if not (0 <= source <= U32_MAX and 0 <= dest <= U32_MAX):
        name = "dest_id" if 0 <= source <= U32_MAX else "source_id"
        raise EncodingError(name, "outside u32")


def _check_ids(name: str, ids: list[int], endpoints: tuple[int, ...] = ()):
    """An id list: at most a u16 count of distinct u32 ids, naming none of
    endpoints."""
    if len(ids) > MAX_LIST:
        raise EncodingError(name, f"more than {MAX_LIST:,} ids")
    distinct = set(ids)
    if len(distinct) != len(ids):
        raise EncodingError(name, "duplicate node id")
    if not distinct.isdisjoint(endpoints):
        raise EncodingError(name, "names the source or destination")
    for node in ids:
        if not 0 <= node <= U32_MAX:
            raise EncodingError(name, "id outside u32")


def _check_tags(name: str, tags: list[bytes]):
    """A tag list: at most a u16 count of TAG_LEN-byte tags."""
    if len(tags) > MAX_LIST:
        raise EncodingError(name, f"more than {MAX_LIST:,} tags")
    for tag in tags:
        if len(tag) != TAG_LEN:
            raise EncodingError(name, f"tag must be {TAG_LEN} bytes")


def _check_width(name: str, value: bytes, width: int):
    """A fixed-width bytes field, which struct's "s" format would pad or
    truncate if it were any other length."""
    if len(value) != width:
        raise EncodingError(name, f"must be {width} bytes")


@dataclass(slots=True)
class Rreq:
    """Route request, flooded source -> destination.

    hop_tags[k] is computed by node_list[k] over hop_digest(self, k) under
    the key it shares with the destination.
    """
    kind: ClassVar[str] = "rreq"   # its msg in the event log
    source_id: int
    dest_id: int
    request_id: bytes
    source_tag: bytes
    verifier: tuple[int, bytes]   # (chain index, revealed secret)
    node_list: list[int] = field(default_factory=list)
    hop_tags: list[bytes] = field(default_factory=list)

    def validate(self):
        _check_endpoints(self.source_id, self.dest_id)
        self._check_lengths()
        if not 0 <= self.verifier[0] <= U32_MAX:
            raise EncodingError("verifier", "index outside u32")
        if len(self.hop_tags) != len(self.node_list):
            raise EncodingError("hop_tags", "length differs from node_list")
        _check_ids("node_list", self.node_list, (self.source_id, self.dest_id))
        _check_tags("hop_tags", self.hop_tags)

    def _check_lengths(self):
        """The header's bytes fields, which rreq_header packs."""
        _check_width("request_id", self.request_id, REQUEST_ID_LEN)
        _check_width("source_tag", self.source_tag, TAG_LEN)
        _check_width("verifier", self.verifier[1], SECRET_LEN)


@dataclass(slots=True)
class Rrep:
    """Route reply, unicast back along the reverse of the accumulated route.

    dest_tags holds one destination tag per verifier: dest_tags[0] is keyed
    to the source, dest_tags[1+i] to route[i]. reverse_hop_tags grows by one
    per reverse hop traversed, in traversal order (route[-1] first).
    """
    kind: ClassVar[str] = "rrep"   # its msg in the event log
    source_id: int
    dest_id: int
    request_id_tag: bytes
    route: list[int]
    dest_tags: list[bytes]
    reverse_hop_tags: list[bytes] = field(default_factory=list)

    def validate(self):
        _check_endpoints(self.source_id, self.dest_id)
        _check_width("request_id_tag", self.request_id_tag, TAG_LEN)
        _check_ids("route", self.route, (self.source_id, self.dest_id))
        if len(self.dest_tags) != len(self.route) + 1:
            raise EncodingError("dest_tags", "need one tag per route node plus source")
        _check_tags("dest_tags", self.dest_tags)
        if len(self.reverse_hop_tags) > len(self.route):
            raise EncodingError("reverse_hop_tags", "more tags than reverse hops")
        _check_tags("reverse_hop_tags", self.reverse_hop_tags)


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
        _check_endpoints(self.source_id, self.dest_id)
        for name in ("flow_id", "seq", "payload_size"):
            if not 0 <= getattr(self, name) <= U32_MAX:
                raise EncodingError(name, "outside u32")
        # a data route may name an endpoint, so it passes none
        _check_ids("route", self.route)


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
    _check_width("request_id_tag", r.request_id_tag, TAG_LEN)
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
    if not isinstance(message, (Rreq, Rrep, DataPacket)):
        raise EncodingError("type", f"unknown message {type(message).__name__}")
    message.validate()
    if isinstance(message, Rreq):
        return (rreq_header(message) + _pack_ids(message.node_list)
                + _pack_tags(message.hop_tags))
    if isinstance(message, Rrep):
        return (rrep_body(message) + _pack_tags(message.dest_tags)
                + _pack_tags(message.reverse_hop_tags))
    return (_DATA_HEADER.pack(DATA_TYPE, message.flow_id, message.seq,
                              message.source_id, message.dest_id,
                              message.payload_size)
            + _pack_ids(message.route) + _F64.pack(message.created_at))


def _unpack(packer: struct.Struct, data: bytes, pos: int) -> tuple[tuple, int]:
    """packer's fields at data[pos:], and the offset past them."""
    if pos + packer.size > len(data):
        raise EncodingError("length", "truncated message")
    return packer.unpack_from(data, pos), pos + packer.size


def _unpack_ids(data: bytes, pos: int) -> tuple[list[int], int]:
    (count,), pos = _unpack(_U16, data, pos)
    ids, pos = _unpack(_IDS[count], data, pos)
    return list(ids), pos


def _unpack_tags(data: bytes, pos: int) -> tuple[list[bytes], int]:
    (count,), pos = _unpack(_U16, data, pos)
    end = pos + count * TAG_LEN
    if end > len(data):
        raise EncodingError("length", "truncated message")
    return [data[i:i + TAG_LEN] for i in range(pos, end, TAG_LEN)], end


def decode(data: bytes):
    """Inverse of encode, reading each header with the Struct encode packs it
    with and each id list with _IDS; validates the result."""
    if not data:
        raise EncodingError("type", "empty message")
    if data[0] == RREQ_TYPE:
        (_, *header, index, secret), pos = _unpack(_RREQ_HEADER, data, 0)
        node_list, pos = _unpack_ids(data, pos)
        hop_tags, pos = _unpack_tags(data, pos)
        msg = Rreq(*header, (index, secret), node_list, hop_tags)
    elif data[0] == RREP_TYPE:
        (_, *header), pos = _unpack(_RREP_HEADER, data, 0)
        route, pos = _unpack_ids(data, pos)
        dest_tags, pos = _unpack_tags(data, pos)
        reverse_hop_tags, pos = _unpack_tags(data, pos)
        msg = Rrep(*header, route, dest_tags, reverse_hop_tags)
    elif data[0] == DATA_TYPE:
        (_, *header), pos = _unpack(_DATA_HEADER, data, 0)
        route, pos = _unpack_ids(data, pos)
        (created_at,), pos = _unpack(_F64, data, pos)
        msg = DataPacket(*header, route, created_at)
    else:
        raise EncodingError("type", f"unknown type byte {data[0]:#x}")
    if pos != len(data):
        raise EncodingError("length", "trailing bytes")
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
