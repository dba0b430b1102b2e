import copy

import pytest

from conftest import World
from lararp import crypto
from lararp.crypto import verify_reveal, verify_tag
from lararp.messages import DataPacket, hop_digest
from lararp.protocol import (BAD_FIRST_HOP, BAD_HOP_TAG, BAD_SOURCE_MAC,
                             BAD_VERIFIER, DUPLICATE, FORWARDED, LINK_BREAK,
                             MALFORMED, MISBEHAVED, NOT_IN_ROUTE,
                             PROHIBITED, REPLAY)


# -- discovery construction -------------------------------------------------

def test_initiate_constructs_valid_rreq(line5):
    node = line5.nodes[0]
    rreq = node.initiate_route_discovery(4, 0.0, line5.rng)
    assert rreq.node_list == [] and rreq.hop_tags == []
    assert verify_tag(node.key(4), rreq.request_id, rreq.source_tag)
    assert verify_reveal(line5.chains[0], *rreq.verifier)
    assert 4 in node.pending


def test_distinct_request_ids(line5):
    r1 = line5.nodes[0].initiate_route_discovery(4, 0.0, line5.rng)
    line5.nodes[0].pending.clear()
    r2 = line5.nodes[0].initiate_route_discovery(4, 0.0, line5.rng)
    assert r1.request_id != r2.request_id
    assert r1.verifier != r2.verifier   # fresh reveal each time


def test_initiate_noop_with_existing_route(line5):
    out = line5.discover(0, 4, [1, 2, 3])
    assert out.get("route") == [1, 2, 3]
    assert line5.nodes[0].initiate_route_discovery(4, 1.0, line5.rng) is None


def test_keychain_rollover(line5):
    node = line5.nodes[0]
    spent = line5.chains[0]
    spent.next_index = spent.length   # exhausted
    rreq = node.initiate_route_discovery(4, 0.0, line5.rng)
    assert rreq is not None
    assert any(kind == "key-rollover" for _, kind, _ in line5.events)
    # the one shared entry now holds the new chain, whose reveals check out
    assert line5.chains[0] is not spent and node.chains is line5.chains
    assert verify_reveal(line5.chains[0], *rreq.verifier)


# -- intermediate RREQ handling ---------------------------------------------

def test_handle_rreq_forwards_and_credits(line5):
    rreq = line5.nodes[0].initiate_route_discovery(4, 0.0, line5.rng)
    result = line5.nodes[1].handle_rreq(rreq, 0, 0.0)
    assert result.drop is None
    fwd = result.send
    assert fwd.node_list == [1] and len(fwd.hop_tags) == 1
    # CC incremented by one
    assert line5.nodes[1].credits.get(0, line5.config.initial_credit) == 1
    assert verify_tag(line5.shared_keys.key(1, 4), hop_digest(fwd, 0),
                      fwd.hop_tags[0])


def test_duplicate_suppression(line5):
    rreq = line5.nodes[0].initiate_route_discovery(4, 0.0, line5.rng)
    first = line5.nodes[1].handle_rreq(rreq, 0, 0.0)
    assert first.drop is None
    second = line5.nodes[1].handle_rreq(rreq, 0, 0.0)
    assert second.drop == DUPLICATE


def test_tampered_verifier_dropped_at_first_honest_hop():
    world = World.line(3)
    rreq = world.nodes[0].initiate_route_discovery(2, 0.0, world.rng)
    idx, secret = rreq.verifier
    flipped = bytes([secret[0] ^ 1]) + secret[1:]
    rreq.verifier = (idx, flipped)
    # oracle: manual verify_reveal agrees the reveal is bogus
    assert not verify_reveal(world.chains[0], idx, flipped)
    result = world.nodes[1].handle_rreq(rreq, 0, 0.0)
    assert result.drop == BAD_VERIFIER


def test_a_chain_element_serves_one_request_id():
    # Ariadne's rule: once a node accepts a request, a copy that reveals the
    # same chain element under another request id is a bad verifier, at a
    # forwarder and at the source; a rolled-over chain's elements are new,
    # and it restarts at its own top index
    world = World.line(3)
    source = world.nodes[0]
    rreq = source.initiate_route_discovery(2, 0.0, world.rng)
    assert world.nodes[1].handle_rreq(rreq, 0, 0.0).drop is None
    forged = copy.deepcopy(rreq)
    forged.request_id = bytes([rreq.request_id[0] ^ 1]) + rreq.request_id[1:]
    assert world.nodes[1].handle_rreq(forged, 0, 0.0).drop == BAD_VERIFIER
    assert source.handle_rreq(forged, 1, 0.0).drop == BAD_VERIFIER
    world.chains[0].next_index = world.chains[0].length
    renewed = source.new_rreq(2, world.rng)
    assert renewed.verifier[0] == world.config.chain_length - 1
    assert world.nodes[1].handle_rreq(renewed, 0, 0.0).drop is None


def test_a_spent_element_under_a_fresh_id_is_a_duplicate():
    # a chain reveals from its last index down, so a node that accepted a
    # source's second request holds the first request's element as spent:
    # the first request, late, and its element under a fresh id are both
    # duplicates there
    world = World.line(3)
    source, relay = world.nodes[0], world.nodes[1]
    first = source.new_rreq(2, world.rng)
    second = source.new_rreq(2, world.rng)
    assert relay.handle_rreq(second, 0, 0.0).drop is None
    respent = copy.deepcopy(first)
    respent.request_id = world.rng.randbytes(len(first.request_id))
    assert relay.handle_rreq(respent, 0, 0.0).drop == DUPLICATE
    assert relay.handle_rreq(first, 0, 0.0).drop == DUPLICATE


@pytest.mark.parametrize("chain_length", [1, 2, 256])
def test_a_node_keeps_one_record_per_source_across_rollovers(chain_length):
    # many discoveries from one source leave one record at a relay, and a
    # record of an old chain does not hold back a rolled-over one, whose
    # first index is the same (a 1-element chain) or higher than the last
    # one accepted
    world = World.line(3, chain_length=chain_length)
    source, relay = world.nodes[0], world.nodes[1]
    for _ in range(world.chains[0].length + 2 * chain_length + 1):
        rreq = source.new_rreq(2, world.rng)
        assert relay.handle_rreq(rreq, 0, 0.0).drop is None
    assert any(kind == "key-rollover" for _, kind, _ in world.events)
    assert relay.latest == {0: (world.chains[0], rreq.verifier[0],
                                rreq.request_id, rreq.verifier[1])}


def test_a_check_hashes_forward_to_the_newest_element_held(monkeypatch):
    # a relay that accepted a source's request checks the next one with one
    # chain step, to the element it holds; a node with no record of the
    # source walks from index i to the anchor, chain length - i steps
    world = World(3)
    source, relay, stranger = world.nodes[0], world.nodes[1], world.nodes[2]
    length = world.chains[0].length
    requests = [source.new_rreq(2, world.rng) for _ in range(length)]
    real_owf = crypto.owf
    labels = []
    monkeypatch.setattr(crypto, "owf", lambda label, data: (
        labels.append(label) or real_owf(label, data)))
    for rreq in requests:
        index = rreq.verifier[0]
        labels.clear()
        assert stranger._admit(rreq) is None
        assert labels == [b"chain"] * (length - index)
        labels.clear()
        assert relay._admit(rreq) is None
        assert labels == [b"chain"]
        relay._accept(rreq)
    assert index == 0


# -- destination pipeline ---------------------------------------------------

def test_honest_discovery_skips_hop_tag_checks(line5):
    out = line5.discover(0, 4, [1, 2, 3])
    assert out["route"] == [1, 2, 3]
    # all CC >= C_t, full_verification off: zero hop-tag verifications
    assert line5.nodes[4].hop_tag_checks_as_dest == 0


def test_forged_hop_tag_from_distrusted_node_punished():
    world = World.line(4)
    # start the forger low enough that the +1 credit for delivering the
    # RREQ still leaves it below threshold, so its tag gets verified
    world.nodes[3].credits[2] = -2

    def forge(msg):
        msg.hop_tags[-1] = bytes(16)

    out = world.discover(0, 3, [1, 2], mutate_rreq=(1, forge))
    assert out["drop"] == BAD_HOP_TAG
    assert out["dropped_at"] == 3
    # oracle: -2, +1 on arrival, then punished by punish_delta
    assert (world.nodes[3].credits.get(2, world.config.initial_credit)
            == -2 + 1 - world.config.punish_delta)


def test_prohibited_node_with_valid_tag_dropped():
    world = World.line(4)
    world.nodes[3].credits[2] = -5
    out = world.discover(0, 3, [1, 2])
    assert out["drop"] == PROHIBITED


def test_source_mac_mismatch_dropped():
    world = World.line(3)

    def corrupt(msg):
        msg.request_id = bytes(8)

    out = world.discover(0, 2, [1], mutate_rreq=(0, corrupt))
    assert out["drop"] == BAD_SOURCE_MAC


def test_full_verification_checks_every_hop():
    world = World.line(5, full_verification=True)
    out = world.discover(0, 4, [1, 2, 3])
    assert out["route"] == [1, 2, 3]
    assert world.nodes[4].hop_tag_checks_as_dest == 3


# -- reverse path -----------------------------------------------------------

def test_reverse_tags_grow_per_hop(line5):
    out = line5.discover(0, 4, [1, 2, 3])
    results = out["reverse_results"]
    for i, result in enumerate(results):
        assert len(result.send.reverse_hop_tags) == i + 1


def test_tampered_rrep_route_dropped():
    world = World.line(5)

    def edit(msg):
        msg.route[0] = 77

    out = world.discover(0, 4, [1, 2, 3], mutate_rrep=(0, edit))
    assert out["drop"] in (NOT_IN_ROUTE, "bad-dest-tag")

    def unknown_dest(msg):
        msg.dest_id = 99

    world = World.line(5)
    out = world.discover(0, 4, [1, 2, 3], mutate_rrep=(0, unknown_dest))
    assert (out["dropped_at"], out["drop"]) == (2, MALFORMED)


def test_rrep_to_node_not_in_route(line5):
    out = line5.discover(0, 4, [1, 2, 3])
    # replay a fresh rrep at an uninvolved node: id not in route
    world = World.line(5)
    out = world.discover(0, 4, [1, 2, 3])
    rreq = world.nodes[0].initiate_route_discovery(3, 0.0, world.rng)
    result = world.nodes[1].handle_rreq(rreq, 0, 0.0)
    fwd = result.send
    dresult = world.nodes[3].handle_rreq_at_destination(fwd, 1, 0.0)
    rrep = dresult.send
    assert world.nodes[2].handle_rrep(rrep, 3, 0.0).drop == NOT_IN_ROUTE


# -- source acceptance ------------------------------------------------------

def test_accept_and_replay_rejection(line5):
    out = line5.discover(0, 4, [1, 2, 3])
    assert out["route"] == [1, 2, 3]
    # capture the final rrep by rebuilding it from the reverse walk
    final = out["reverse_results"][-1].send
    again = line5.nodes[0].handle_rrep_at_source(final, 1, 1.0)
    assert again.drop == REPLAY    # pending cleared on accept


def test_first_hop_must_be_neighbor():
    adjacency = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
    world = World(4, adjacency=adjacency)
    rreq = world.nodes[0].initiate_route_discovery(3, 0.0, world.rng)
    r1 = world.nodes[1].handle_rreq(rreq, 0, 0.0)
    r2 = world.nodes[2].handle_rreq(r1.send, 1, 0.0)
    d = world.nodes[3].handle_rreq_at_destination(r2.send, 2, 0.0)
    rrep = d.send
    r = world.nodes[2].handle_rrep(rrep, 3, 0.0)
    rrep2 = r.send
    r = world.nodes[1].handle_rrep(rrep2, 2, 0.0)
    rrep3 = r.send
    # sever the 0-1 link before the reply lands
    world.adjacency[0] = []
    result = world.nodes[0].handle_rrep_at_source(rrep3, 1, 0.0)
    assert result.drop == BAD_FIRST_HOP


# -- credits ----------------------------------------------------------------

def test_credit_arithmetic():
    node = World.line(2, initial_credit=0).nodes[0]
    node._credit(1, FORWARDED)
    assert node.credits[1] == 1
    node2 = World.line(2, initial_credit=0, punish_delta=2).nodes[0]
    node2._credit(1, MISBEHAVED)
    assert node2.credits[1] == -2


def test_credit_matches_event_log_count(line5):
    # forward k RREQs through node 1; its credit for node 0 equals the
    # brute-force count of credit events in the log
    for dest in (2, 3, 4):
        line5.nodes[0].pending.clear()
        rreq = line5.nodes[0].initiate_route_discovery(dest, 0.0, line5.rng)
        line5.nodes[1].handle_rreq(rreq, 0, 0.0)
    logged = sum(1 for node, kind, d in line5.events
                 if node == 1 and kind == "credit" and d["neighbor"] == 0
                 and d["event"] == FORWARDED)
    assert (line5.nodes[1].credits.get(0, line5.config.initial_credit)
            == line5.config.initial_credit + logged)
    assert logged == 3


# -- timers -----------------------------------------------------------------

def test_timer_boundaries(line5):
    node = line5.nodes[0]
    node.initiate_route_discovery(4, 0.0, line5.rng)
    first_id = node.pending[4].request_id
    assert node.on_timer(0.999, line5.rng) == []         # aged t - eps
    expired = node.on_timer(1.0, line5.rng)              # aged exactly t
    (retry,) = [rreq for _, rreq in expired if rreq is not None]
    assert retry.request_id != first_id                  # fresh id
    assert node.pending[4].retries_remaining == node.config.rreq_retries - 1


def test_timer_retries_exhausted(line5):
    node = line5.nodes[0]
    node.initiate_route_discovery(4, 0.0, line5.rng)
    node.pending[4].retries_remaining = 0
    expired = node.on_timer(5.0, line5.rng)
    assert expired == [(4, None)]
    assert 4 not in node.pending
    assert any(kind == "unroutable" for _, kind, _ in line5.events)


# -- data forwarding --------------------------------------------------------

def packet(route, src=0, dst=4, seq=0):
    return DataPacket(flow_id=0, seq=seq, source_id=src, dest_id=dst,
                      payload_size=512, route=route, created_at=0.0)


def test_forward_data_midroute(line5):
    assert line5.nodes[2].forward_data(packet([1, 2, 3]), 1, 0.0) == 3
    # prev hop credited
    assert line5.nodes[2].credits.get(1, line5.config.initial_credit) == 1


def test_forward_data_delivery(line5):
    assert line5.nodes[4].forward_data(packet([1, 2, 3]), 3, 0.0) is None


def test_forward_data_not_in_route(line5):
    # node 2 is neither an endpoint nor on the packet's route
    assert line5.nodes[2].forward_data(packet([1, 3]), 1, 0.0) == NOT_IN_ROUTE


def test_forward_data_link_break(line5):
    out = line5.discover(2, 4, [3])
    assert out["route"] == [3]
    line5.adjacency[2] = [1]   # node 3 moved out of range
    # a drop names no next hop, only its reason
    assert line5.nodes[2].forward_data(packet([3], src=2), None,
                                       0.0) == LINK_BREAK
    assert 4 not in line5.nodes[2].routes


# -- baseline ---------------------------------------------------------------

def test_baseline_verifies_everything_lararp_does_not():
    honest = World.line(7)
    base = World.line(7, mode="baseline")
    out_h = honest.discover(0, 6, [1, 2, 3, 4, 5])
    out_b = base.discover(0, 6, [1, 2, 3, 4, 5])
    assert out_h["route"] == out_b["route"] == [1, 2, 3, 4, 5]
    assert honest.nodes[6].hop_tag_checks_as_dest == 0
    assert base.nodes[6].hop_tag_checks_as_dest == 5


def test_baseline_forwarder_counts_the_checks_it_makes():
    # the forged first tag fails the first check, so node 3 stops there
    def forge(msg):
        msg.hop_tags[0] = bytes(16)

    base = World.line(5, mode="baseline")
    out = base.discover(0, 4, [1, 2, 3], mutate_rreq=(1, forge))
    assert (out["dropped_at"], out["drop"]) == (3, BAD_HOP_TAG)
    assert base.nodes[3].hop_tag_checks == 1


def test_baseline_has_no_trust_table():
    base = World.line(3, mode="baseline")
    out = base.discover(0, 2, [1])
    assert out["route"] == [1]
    assert base.nodes[2].credits == {}


def test_both_protocols_drop_tampered_rreq():
    def forge(msg):
        msg.hop_tags[0] = bytes(16)

    base = World.line(4, mode="baseline")
    out = base.discover(0, 3, [1, 2], mutate_rreq=(0, forge))
    assert out["drop"] == BAD_HOP_TAG

    lar = World.line(4, full_verification=True)
    out = lar.discover(0, 3, [1, 2], mutate_rreq=(0, forge))
    assert out["drop"] == BAD_HOP_TAG

    # a node with no key chain is checked even by selective verification
    def fabricate(msg):
        msg.node_list[0] = 0x7FFF0000

    lar = World.line(4)
    out = lar.discover(0, 3, [1, 2], mutate_rreq=(0, fabricate))
    assert (out["dropped_at"], out["drop"]) == (3, BAD_HOP_TAG)

    # an unknown source or destination is malformed at the first hop
    for mode in ("lararp", "baseline"):
        for fieldname in ("source_id", "dest_id"):
            world = World.line(4, mode=mode)
            rreq = world.nodes[0].initiate_route_discovery(3, 0.0, world.rng)
            setattr(rreq, fieldname, 99)
            assert world.nodes[1].handle_rreq(rreq, 0, 0.0).drop == MALFORMED


def test_selective_verification_equivalence():
    # under every protocol the accepted routes agree when nobody misbehaves;
    # only LARARP without full verification skips the vetted hops
    for mode, flag, dest_checks in (("lararp", False, 0), ("lararp", True, 4),
                                    ("baseline", False, 4),
                                    ("baseline", True, 4)):
        world = World.line(6, mode=mode, full_verification=flag)
        out = world.discover(0, 5, [1, 2, 3, 4])
        assert out["route"] == [1, 2, 3, 4]
        assert world.nodes[5].hop_tag_checks_as_dest == dest_checks


def test_unknown_protocol_is_rejected_at_the_node():
    # a name outside PROTOCOLS must not run as some hybrid
    with pytest.raises(ValueError, match="dsr"):
        World.line(2, mode="dsr")
