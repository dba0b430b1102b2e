import random

import pytest
from hypothesis import given, settings, strategies as st

from lararp.messages import (DataPacket, EncodingError, Rrep, Rreq, decode,
                             encode, hop_digest, wire_size)

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
    b = Rreq(**{**a.__dict__})
    b.request_id = bytes(16 - x for x in range(8))
    assert encode(a) != encode(b)


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


def test_decode_rejects_trailing_bytes():
    rng = random.Random(7)
    data = encode(make_rreq(rng))
    with pytest.raises(EncodingError):
        decode(data + b"\x00")


def test_decode_rejects_unknown_type():
    with pytest.raises(EncodingError):
        decode(b"\x7f\x00")


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
