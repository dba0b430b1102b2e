"""Shared scripted-topology harness for protocol-level tests.

A World wires up NodeStates over a fixed adjacency with no simulator in
the loop, so tests can walk messages hop by hop and tamper with them at
chosen points. It plays the radio: a message that is not well-formed is
dropped as malformed before any handler sees it.
"""

import random

import pytest

from lararp.crypto import SharedKeyTable, generate_keychain
from lararp.messages import wellformed
from lararp.protocol import (DROPPED, MALFORMED, AcceptedRoute, Broadcast,
                             NodeState, ProtocolConfig, Unicast)


class World:
    """Nodes 0..n-1 over an explicit adjacency map."""

    def __init__(self, n, adjacency=None, mode="lararp", seed=7, **knobs):
        self.n = n
        self.config = ProtocolConfig(protocol=mode, **knobs)
        self.rng = random.Random(seed)
        if adjacency is None:   # fully connected
            adjacency = {i: [j for j in range(n) if j != i] for i in range(n)}
        self.adjacency = adjacency
        self.shared_keys = SharedKeyTable.derive(b"\x42" * 16, range(n))
        self.publics = {}
        self.nodes = {}
        self.events = []
        for i in range(n):
            chain = generate_keychain(bytes([i]) * 16, 32, owner=i)
            self.publics[i] = chain.publics
            self.nodes[i] = NodeState(
                i, chain, self.shared_keys, self.publics, self.config,
                in_range_fn=lambda a, b: b in self.adjacency[a],
                log=self._logger(i))

    def _logger(self, node):
        def log(kind, **details):
            self.events.append((node, kind, details))
        return log

    @staticmethod
    def hand(handler, msg, prev, now):
        """Call handler on msg as the radio would, after validating it."""
        if not wellformed(msg):
            return DROPPED[MALFORMED]
        return handler(msg, prev, now)

    @classmethod
    def line(cls, n, **kwargs):
        adjacency = {i: [j for j in (i - 1, i + 1) if 0 <= j < n]
                     for i in range(n)}
        return cls(n, adjacency=adjacency, **kwargs)

    def discover(self, src, dst, path, now=0.0, mutate_rreq=None,
                 mutate_rrep=None):
        """Walk one discovery along an explicit node path.

        mutate_rreq/mutate_rrep: optional (hop_index, fn) applied to the
        message after that hop forwards it. Returns a dict with the final
        outcome and every intermediate result.
        """
        source, dest = self.nodes[src], self.nodes[dst]
        rreq = source.initiate_route_discovery(dst, now, self.rng)
        assert rreq is not None
        outcome = {"rreq": rreq, "forward_results": []}
        msg, prev = rreq, src
        for k, hop in enumerate(path):
            result = self.hand(self.nodes[hop].handle_rreq, msg, prev, now)
            outcome["forward_results"].append(result)
            if result.drop is not None:
                outcome["dropped_at"] = hop
                outcome["drop"] = result.drop
                return outcome
            (action,) = result.actions
            assert isinstance(action, Broadcast)
            msg, prev = action.message, hop
            if mutate_rreq is not None and mutate_rreq[0] == k:
                mutate_rreq[1](msg)
        dresult = self.hand(dest.handle_rreq_at_destination, msg, prev, now)
        outcome["dest_result"] = dresult
        if dresult.drop is not None:
            outcome["dropped_at"] = dst
            outcome["drop"] = dresult.drop
            return outcome
        (action,) = dresult.actions
        assert isinstance(action, Unicast)
        msg, prev = action.message, dst
        outcome["reverse_results"] = []
        hop_index = 0
        while True:
            receiver = action.next_hop
            if receiver == src:
                sresult = self.hand(self.nodes[src].handle_rrep_at_source,
                                    msg, prev, now)
                outcome["source_result"] = sresult
                if sresult.drop is not None:
                    outcome["dropped_at"] = src
                    outcome["drop"] = sresult.drop
                else:
                    (accept,) = sresult.actions
                    assert isinstance(accept, AcceptedRoute)
                    outcome["route"] = accept.route
                return outcome
            result = self.hand(self.nodes[receiver].handle_rrep, msg, prev,
                               now)
            outcome["reverse_results"].append(result)
            if result.drop is not None:
                outcome["dropped_at"] = receiver
                outcome["drop"] = result.drop
                return outcome
            (action,) = result.actions
            msg, prev = action.message, receiver
            if mutate_rrep is not None and mutate_rrep[0] == hop_index:
                mutate_rrep[1](msg)
            hop_index += 1


@pytest.fixture
def line5():
    """Line topology 0-1-2-3-4."""
    return World.line(5)
