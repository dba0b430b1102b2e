"""Walk one authenticated route discovery hop by hop.

Five nodes on a line (0-1-2-3-4). Node 0 wants a route to node 4; we
drive the handlers directly, printing what each hop verifies and appends,
then tamper with a copy of the request to show the destination reject it.
"""

import copy
import random

from lararp.crypto import SharedKeyTable, generate_keychain
from lararp.protocol import NodeState, ProtocolConfig


def build_line(n):
    adjacency = {i: [j for j in (i - 1, i + 1) if 0 <= j < n]
                 for i in range(n)}
    shared = SharedKeyTable.derive(b"\x42" * 16, range(n))
    config = ProtocolConfig()
    chains = {}
    nodes = {}
    for i in range(n):
        chains[i] = generate_keychain(bytes([i + 1]) * 16, 32, owner=i)
        nodes[i] = NodeState(i, shared, chains, config,
                             in_range_fn=lambda a, b: b in adjacency[a],
                             log=lambda kind, **kw: None)
    return nodes


def main():
    rng = random.Random(1)
    nodes = build_line(5)

    print("== forward pass: request floods 0 -> 4 ==")
    rreq = nodes[0].initiate_route_discovery(4, now=0.0, rng=rng)
    idx, secret = rreq.verifier
    print(f"node 0 emits request {rreq.request_id.hex()}"
          f" with chain reveal (index={idx}, secret={secret.hex()[:16]}...)")

    msg, prev = rreq, 0
    for hop in (1, 2, 3):
        result = nodes[hop].handle_rreq(msg, prev, now=0.0)
        assert result.send is not None and result.to is None
        msg, prev = result.send, hop
        print(f"node {hop} verified the reveal, credited node {hop - 1},"
              f" appended itself: node_list={msg.node_list}")

    print("\n== destination pipeline at node 4 ==")
    result = nodes[4].handle_rreq_at_destination(msg, prev, now=0.0)
    assert result.send is not None and result.to is not None
    rrep = result.send
    print(f"node 4 checked the source MAC and issued a reply for route"
          f" {rrep.route} with {len(rrep.dest_tags)} destination tags"
          f" ({result.charged} hop tags individually verified:"
          " every listed hop is already trusted)")

    print("\n== reverse pass: reply unicast 4 -> 0 ==")
    prev = 4
    while result.to != 0:
        hop = result.to
        result = nodes[hop].handle_rrep(rrep, prev, now=0.0)
        rrep, prev = result.send, hop
        print(f"node {hop} verified its destination tag and appended a"
              f" reverse tag ({len(rrep.reverse_hop_tags)} so far)")

    result = nodes[0].handle_rrep_at_source(rrep, prev, now=0.0)
    print(f"node 0 verified {result.charged} tags and accepted the route:"
          f" {nodes[0].routes[4]}")

    print("\n== a tampered copy is rejected ==")
    nodes2 = build_line(5)
    rreq = nodes2[0].initiate_route_discovery(4, now=0.0, rng=rng)
    forged = copy.deepcopy(rreq)
    idx, secret = forged.verifier
    forged.verifier = (idx, bytes(16))
    result = nodes2[1].handle_rreq(forged, 0, now=0.0)
    print(f"node 1 drops the forged reveal: reason={result.drop!r}")


if __name__ == "__main__":
    main()
