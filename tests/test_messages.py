import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from lararp.messages import (DataPacket, EncodingError, Rrep, Rreq, decode,
                             encode, hop_digest, reverse_tag_payload,
                             rrep_body, rreq_header, wire_size)

RNG = random.Random(11)


def make_rreq(rng, hops=3):
    ids = rng.sample(range(100), hops + 2)
    return Rreq(source_id=ids[0], dest_id=ids[1], request_id=rng.randbytes(8),
                source_tag=rng.randbytes(16),
                verifier=(rng.randrange(32), rng.randbytes(16)),
                node_list=ids[2:], hop_tags=[rng.randbytes(16) for _ in ids[2:]])


def make_rrep(rng, hops=3, traversed=0):
    traversed = min(traversed, hops)
    ids = rng.sample(range(100), hops + 2)
    return Rrep(source_id=ids[0], dest_id=ids[1],
                request_id_tag=rng.randbytes(16), route=ids[2:],
                dest_tags=[rng.randbytes(16) for _ in range(hops + 1)],
                reverse_hop_tags=[rng.randbytes(16) for _ in range(traversed)])


def make_data(rng, hops=3):
    ids = rng.sample(range(100), hops + 2)
    return DataPacket(flow_id=rng.randrange(10), seq=rng.randrange(1000),
                      source_id=ids[0], dest_id=ids[1],
                      payload_size=rng.choice([64, 512, 1500]),
                      route=ids[2:], created_at=rng.random() * 50)


def test_encode_deterministic():
    rng = random.Random(1)
    m = make_rreq(rng)
    assert encode(m) == encode(m)


def test_round_trip_corpus():
    # 10^3 randomly generated well-formed messages
    rng = random.Random(2)
    for i in range(1000):
        maker = (make_rreq, make_rrep, make_data)[i % 3]
        m = maker(rng, hops=i % 5, traversed=i % 3) if maker is make_rrep \
            else maker(rng, hops=i % 5)
        assert decode(encode(m)) == m


@settings(max_examples=200, derandomize=True)
@given(st.integers(0, 4), st.randoms(use_true_random=False))
def test_round_trip_property(hops, rng):
    m = make_rreq(rng, hops=hops)
    assert decode(encode(m)) == m


def test_request_id_injectivity_witness():
    rng = random.Random(3)
    a = make_rreq(rng)
    b = dataclasses.replace(a)
    b.request_id = bytes(16 - x for x in range(8))
    assert encode(a) != encode(b)


@pytest.mark.parametrize("make", [make_rreq, make_rrep, make_data])
def test_messages_are_slotted(make):
    # a mistyped field name fails loudly instead of adding an attribute
    # that no encoder, validator or handler reads
    message = make(random.Random(5))
    assert not hasattr(message, "__dict__")
    with pytest.raises(AttributeError):
        message.node_lsit = []


def test_encoding_error_names_field():
    rng = random.Random(4)
    m = make_rreq(rng)
    m.node_list = m.node_list + [m.node_list[0]]
    m.hop_tags = m.hop_tags + [rng.randbytes(16)]
    with pytest.raises(EncodingError) as exc:
        encode(m)
    assert exc.value.fieldname == "node_list"


def test_hop_tag_length_mismatch_rejected():
    rng = random.Random(5)
    m = make_rreq(rng)
    m.hop_tags = m.hop_tags[:-1]
    with pytest.raises(EncodingError) as exc:
        encode(m)
    assert exc.value.fieldname == "hop_tags"


def test_source_equals_dest_rejected():
    rng = random.Random(6)
    m = make_rreq(rng)
    m.dest_id = m.source_id
    with pytest.raises(EncodingError) as exc:
        encode(m)
    assert exc.value.fieldname == "dest_id"


@pytest.mark.parametrize("make,fieldname", [(make_rreq, "node_list"),
                                             (make_rrep, "route")])
@pytest.mark.parametrize("endpoint", ["source_id", "dest_id"])
def test_relay_list_naming_an_endpoint_rejected(make, fieldname, endpoint):
    m = make(random.Random(16))
    getattr(m, fieldname)[1] = getattr(m, endpoint)
    with pytest.raises(EncodingError) as exc:
        m.validate()
    assert exc.value.fieldname == fieldname


def test_decode_rejects_trailing_bytes():
    rng = random.Random(7)
    data = encode(make_rreq(rng))
    with pytest.raises(EncodingError):
        decode(data + b"\x00")


def test_decode_rejects_unknown_type():
    with pytest.raises(EncodingError):
        decode(b"\x7f\x00")


@pytest.mark.parametrize("message", [object(), 42, None],
                         ids=["object", "int", "none"])
def test_encode_refuses_an_unknown_type(message):
    # the type is tested before validate, which such a value does not have
    with pytest.raises(EncodingError) as exc:
        encode(message)
    assert exc.value.fieldname == "type"


@pytest.mark.parametrize("make", [make_rreq, make_rrep, make_data])
def test_decode_refuses_every_proper_prefix(make):
    # every field is present in every encoding, empty lists by their count,
    # so a cut anywhere leaves a header, a count or a list short
    for hops in (0, 3):
        data = encode(make(random.Random(17), hops=hops))
        for cut in range(len(data)):
            with pytest.raises(EncodingError):
                decode(data[:cut])


def _with(make, fieldname, value):
    message = make(random.Random(18))
    if fieldname in ("node_list", "route"):
        getattr(message, fieldname)[0] = value
    elif fieldname == "verifier":
        message.verifier = (value, message.verifier[1])
    else:
        setattr(message, fieldname, value)
    return message


def _long(make):
    """A message whose longest list holds 65,536 entries, one past what a
    u16 count holds."""
    message = make(random.Random(19))
    ids = list(range(1000, 1000 + 2 ** 16))
    if make is make_rreq:
        message.node_list, message.hop_tags = ids, [bytes(16)] * len(ids)
    elif make is make_rrep:
        message.route, message.reverse_hop_tags = ids[:-1], []
        message.dest_tags = [bytes(16)] * len(ids)
    else:
        message.route = ids
    return message


@pytest.mark.parametrize("message,fieldname", [
    (_with(make_rreq, "source_id", 2 ** 32), "source_id"),
    (_with(make_rreq, "dest_id", -1), "dest_id"),
    (_with(make_rreq, "verifier", 2 ** 32), "verifier"),
    (_with(make_rreq, "node_list", 2 ** 32), "node_list"),
    (_with(make_rreq, "node_list", -1), "node_list"),
    (_with(make_rrep, "source_id", -1), "source_id"),
    (_with(make_rrep, "dest_id", 2 ** 32), "dest_id"),
    (_with(make_rrep, "route", 2 ** 32), "route"),
    (_with(make_data, "flow_id", 2 ** 32), "flow_id"),
    (_with(make_data, "seq", -1), "seq"),
    (_with(make_data, "source_id", 2 ** 32), "source_id"),
    (_with(make_data, "payload_size", 2 ** 32), "payload_size"),
    (_with(make_data, "route", -1), "route"),
    (_long(make_rreq), "node_list"), (_long(make_rrep), "dest_tags"),
    (_long(make_data), "route"),
    # a rule between two fields, and a tag's width, names its field too
    (_with(make_rrep, "dest_tags", [bytes(16)]), "dest_tags"),
    (_with(make_rrep, "reverse_hop_tags", [bytes(16)] * 4), "reverse_hop_tags"),
    (_with(make_rrep, "reverse_hop_tags", [bytes(15)]), "reverse_hop_tags"),
    (_with(make_data, "payload_size", 0), "payload_size")],
    ids=["rreq-source", "rreq-dest", "rreq-verifier-index", "rreq-node",
         "rreq-negative-node", "rrep-source", "rrep-dest", "rrep-route",
         "data-flow", "data-seq", "data-source", "data-payload-size",
         "data-route", "rreq-65536-ids", "rrep-65536-tags", "data-65536-ids",
         "rrep-dest-tag-count", "rrep-reverse-tag-count", "rrep-15-byte-tag",
         "data-zero-payload"])
def test_an_int_or_list_the_wire_cannot_carry_is_malformed(message, fieldname):
    # each used to pass validate and then raise struct.error from its packer
    with pytest.raises(EncodingError) as exc:
        encode(message)
    assert exc.value.fieldname == fieldname


# -- hop digest -------------------------------------------------------------

def test_hop_digest_single_hop():
    rng = random.Random(8)
    m = make_rreq(rng, hops=1)
    digest = hop_digest(m, 0)
    # header plus exactly the first id
    assert digest.endswith(m.node_list[0].to_bytes(4, "big"))


def test_hop_digest_prefix_stable_under_append():
    # recompute-before/after oracle
    rng = random.Random(9)
    m = make_rreq(rng, hops=3)
    before = [hop_digest(m, k) for k in range(3)]
    m.node_list.append(99)
    m.hop_tags.append(rng.randbytes(16))
    after = [hop_digest(m, k) for k in range(3)]
    assert before == after


def test_hop_digest_changes_on_earlier_mutation():
    rng = random.Random(10)
    m = make_rreq(rng, hops=4)
    for k in range(4):
        for j in range(k + 1):
            original = hop_digest(m, k)
            saved = m.node_list[j]
            m.node_list[j] = saved + 1000
            assert hop_digest(m, k) != original
            m.node_list[j] = saved


def test_hop_digest_out_of_range():
    rng = random.Random(12)
    m = make_rreq(rng, hops=2)
    with pytest.raises(ValueError):
        hop_digest(m, 2)


def test_wire_size_data_is_payload():
    rng = random.Random(13)
    d = make_data(rng)
    assert wire_size(d) == d.payload_size
    for hops in range(6):
        m = make_rreq(rng, hops=hops)
        assert wire_size(m) == len(encode(m))
        for traversed in range(hops + 1):
            m = make_rrep(rng, hops=hops, traversed=traversed)
            assert wire_size(m) == len(encode(m))


# -- packing against the concatenating oracle --------------------------------

# The encoders as first written: one struct call and one join per node id,
# and the headers concatenated field by field.

def _u32(value):
    return struct.pack(">I", value)


def _oracle_ids(ids):
    return struct.pack(">H", len(ids)) + b"".join(_u32(i) for i in ids)


def _oracle_tags(tags):
    return struct.pack(">H", len(tags)) + b"".join(tags)


def oracle_rreq_header(r):
    idx, secret = r.verifier
    return (bytes([0x01]) + _u32(r.source_id) + _u32(r.dest_id)
            + r.request_id + r.source_tag + _u32(idx) + secret)


def oracle_hop_digest(r, k):
    return oracle_rreq_header(r) + b"".join(_u32(i)
                                            for i in r.node_list[:k + 1])


def oracle_rrep_body(r):
    return (bytes([0x02]) + _u32(r.source_id) + _u32(r.dest_id)
            + r.request_id_tag + _oracle_ids(r.route))


def oracle_reverse_tag_payload(r, hop_id):
    return oracle_rrep_body(r) + b"rev" + _u32(hop_id)


def oracle_encode(m):
    if isinstance(m, Rreq):
        return (oracle_rreq_header(m) + _oracle_ids(m.node_list)
                + _oracle_tags(m.hop_tags))
    if isinstance(m, Rrep):
        return (oracle_rrep_body(m) + _oracle_tags(m.dest_tags)
                + _oracle_tags(m.reverse_hop_tags))
    return (bytes([0x03]) + _u32(m.flow_id) + _u32(m.seq) + _u32(m.source_id)
            + _u32(m.dest_id) + _u32(m.payload_size) + _oracle_ids(m.route)
            + struct.pack(">d", m.created_at))


# the ends of the u32 range, and the band tampered routes name
U32S = st.one_of(st.sampled_from([0, 2 ** 32 - 1, 0x7FFF0000]),
                 st.integers(0x7FFF0000, 2 ** 32 - 1),
                 st.integers(0, 2 ** 32 - 1))
TAGS = st.binary(min_size=16, max_size=16)
ID_LISTS = st.lists(U32S, max_size=6, unique=True)


def relay_lists(source, dest):
    """Id lists for a request's node_list or a reply's route, which never
    name the message's own endpoints."""
    return st.lists(U32S.filter(lambda i: i not in (source, dest)),
                    max_size=6, unique=True)


@st.composite
def endpoints(draw):
    source = draw(U32S)
    return source, draw(U32S.filter(lambda d: d != source))


@st.composite
def rreqs(draw):
    source, dest = draw(endpoints())
    node_list = draw(relay_lists(source, dest))
    return Rreq(source_id=source, dest_id=dest,
                request_id=draw(st.binary(min_size=8, max_size=8)),
                source_tag=draw(TAGS), verifier=(draw(U32S), draw(TAGS)),
                node_list=node_list,
                hop_tags=draw(st.lists(TAGS, min_size=len(node_list),
                                       max_size=len(node_list))))


@st.composite
def rreps(draw):
    source, dest = draw(endpoints())
    route = draw(relay_lists(source, dest))
    return Rrep(source_id=source, dest_id=dest, request_id_tag=draw(TAGS),
                route=route,
                dest_tags=draw(st.lists(TAGS, min_size=len(route) + 1,
                                        max_size=len(route) + 1)),
                reverse_hop_tags=draw(st.lists(TAGS, max_size=len(route))))


@st.composite
def data_packets(draw):
    source, dest = draw(endpoints())
    return DataPacket(flow_id=draw(U32S), seq=draw(U32S), source_id=source,
                      dest_id=dest, payload_size=draw(U32S.filter(bool)),
                      route=draw(ID_LISTS),
                      created_at=draw(st.floats(allow_nan=False)))


@settings(max_examples=300, derandomize=True)
@given(st.one_of(rreqs(), rreps(), data_packets()), U32S)
def test_packing_equals_the_concatenating_oracle(message, hop_id):
    assert encode(message) == oracle_encode(message)
    if isinstance(message, Rreq):
        assert rreq_header(message) == oracle_rreq_header(message)
        for k in range(len(message.node_list)):
            assert hop_digest(message, k) == oracle_hop_digest(message, k)
    if isinstance(message, Rrep):
        assert rrep_body(message) == oracle_rrep_body(message)
        assert (reverse_tag_payload(message, hop_id)
                == oracle_reverse_tag_payload(message, hop_id))


@pytest.mark.parametrize("fieldname,size", [
    ("request_id", 7), ("request_id", 9), ("source_tag", 15),
    ("source_tag", 17), ("verifier", 15), ("verifier", 17)])
def test_a_wrong_length_header_field_raises(fieldname, size):
    # struct's "s" format pads or truncates a bytes field to its width; the
    # header and every digest that starts with it must refuse it instead
    m = make_rreq(random.Random(14))
    if fieldname == "verifier":
        m.verifier = (m.verifier[0], bytes(size))
    else:
        setattr(m, fieldname, bytes(size))
    for pack in (rreq_header, lambda r: hop_digest(r, 0), encode):
        with pytest.raises(EncodingError) as exc:
            pack(m)
        assert exc.value.fieldname == fieldname


@pytest.mark.parametrize("size", [15, 17])
def test_a_wrong_length_request_id_tag_raises(size):
    m = make_rrep(random.Random(15))
    m.request_id_tag = bytes(size)
    for pack in (rrep_body, lambda r: reverse_tag_payload(r, 1), encode):
        with pytest.raises(EncodingError) as exc:
            pack(m)
        assert exc.value.fieldname == "request_id_tag"
