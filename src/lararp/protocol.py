"""One node state machine for route discovery, run under one of the
PROTOCOLS: LARARP keeps a credit counter per neighbour, and the
verify-everything baseline checks every hop tag instead. Both run the same
code path.

Handlers are synchronous and engine-agnostic: they receive the current
time. DISPATCH names the handler for each control type at a relay and at
the node the message travels to. A control handler returns a
HandlerResult: the one message it sends and its receiver, or a drop
reason, and charged, the count of every expensive tag verification it
made. The engine logs that count, and bills it as processing latency where
DISPATCH says so: for every result but a relayed request's, so a baseline
forwarder's path checks are counted and not billed. forward_data
returns a data hop's next hop id, None on delivery, or the drop reason; on
a LINK_BREAK drop the node invalidates its own route, and the engine tells
the packet's source. The engine wakes on_timer once per request sent,
naming that request; it returns the retry, NO_ROUTE or None.

A control-message handler takes only well-formed messages
(messages.wellformed): the radio validates each transmission once and
drops a malformed one at every receiver without calling a handler, and
a test harness that plays the radio must do the same. Results are
immutable; a drop with no checks returns the shared result in DROPPED,
and one with checks is HandlerResult(drop=reason, charged=charged).
"""

from dataclasses import dataclass
from typing import NamedTuple

from . import crypto, messages
from .crypto import compute_tag, reveal_next, verify_reveal, verify_tag
from .messages import DataPacket, Rrep, Rreq, hop_digest, reverse_tag_payload, rrep_body

# Drop reasons (machine-readable, consumed by metrics).
DUPLICATE = "duplicate"
BAD_VERIFIER = "bad-verifier"
BAD_SOURCE_MAC = "bad-source-mac"
BAD_HOP_TAG = "bad-hop-tag"
PROHIBITED = "prohibited-node"
NOT_IN_ROUTE = "not-in-route"
BAD_DEST_TAG = "bad-dest-tag"
BAD_FIRST_HOP = "bad-first-hop"
REPLAY = "replay"
LINK_BREAK = "link-break"
MALFORMED = "malformed"
NO_ROUTE = "no-route"

FORWARDED = "forwarded"
MISBEHAVED = "misbehaved"


PROTOCOLS = ("lararp", "baseline")


@dataclass
class ProtocolConfig:
    protocol: str = "lararp"           # one of PROTOCOLS
    credit_threshold: int = 0          # C_t
    initial_credit: int = 0
    punish_delta: int = 2
    rreq_timeout: float = 1.0          # t, seconds
    rreq_retries: int = 2
    full_verification: bool = False    # the destination checks every hop
    chain_length: int = 256


@dataclass
class PendingRequest:
    request_id: bytes
    retries_remaining: int


class HandlerResult(NamedTuple):
    """What a control handler settles on: a message to send, or a drop.
    A result with neither is the source accepting a route; only
    handle_rrep_at_source returns one."""
    send: Rreq | Rrep | None = None
    to: int | None = None    # send's one receiver; None broadcasts it
    drop: str | None = None
    charged: int = 0         # every expensive tag verification made;
                             # DISPATCH says whether the engine bills them


# The one dispatch of a well-formed control message: its type -> the field
# naming the node it travels to, then for a relay and for that node the
# (NodeState handler by name, role of its hop-tag-verify record, whether the
# engine bills its checks). The engine looks the handler up on the node at
# call time, so a patched NodeState method is the one that runs.
DISPATCH = {
    Rreq: ("dest_id", ("handle_rreq", "path", False),
           ("handle_rreq_at_destination", "dest", True)),
    Rrep: ("source_id", ("handle_rrep", "path", True),
           ("handle_rrep_at_source", "path", True)),
}

# One shared result per reason for every drop with no checks.
DROPPED = {reason: HandlerResult(drop=reason) for reason in (
    DUPLICATE, BAD_VERIFIER, BAD_SOURCE_MAC, BAD_HOP_TAG, PROHIBITED,
    NOT_IN_ROUTE, BAD_DEST_TAG, BAD_FIRST_HOP, REPLAY, MALFORMED)}


def _noop_log(kind, **details):
    pass


class NodeState:
    """One node's routing state under config.protocol. Under LARARP it
    keeps credit: credits maps a neighbour id to its counter CC, an absent
    neighbour reads as config.initial_credit, and _credit is its one
    writer. Under the baseline it keeps none, and a forwarder checks the
    tags of the whole path. As a destination it checks every hop it has
    not vetted, and under full_verification every hop."""

    def __init__(self, node_id: int, shared_keys: crypto.SharedKeyTable,
                 chains: dict[int, crypto.KeyChain], config: ProtocolConfig,
                 in_range_fn, log=_noop_log):
        if config.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {config.protocol!r}")
        self.keeps_credit = config.protocol == "lararp"
        self.id = node_id
        self.shared_keys = shared_keys
        # node id -> its current key chain, shared by every node; a node
        # reveals from its own entry, and reads another's only for its
        # length and anchor
        self.chains = chains
        self.config = config
        # (a, b) -> whether b is a's neighbour; each hop tests its one link
        self.in_range_fn = in_range_fn
        self.log = log
        self.credits: dict[int, int] = {}          # neighbour -> CC
        self.routes: dict[int, list[int]] = {}     # dest -> valid route
        # source -> (its chain, chain index, request id, secret) of the
        # newest request accepted from it; a chain reveals from its last
        # index down, so a newer request has a lower index, and the chain
        # is the generation, which a rollover replaces
        self.latest: dict[int, tuple[crypto.KeyChain, int, bytes, bytes]] = {}
        self.pending: dict[int, PendingRequest] = {}

    # -- helpers -----------------------------------------------------------

    def key(self, other: int) -> bytes:
        return self.shared_keys.key(self.id, other)

    def _tag_matches(self, a: int, b: int, payload: bytes, tag: bytes) -> bool:
        """Verify a tag under key(a, b); unknown ids (a tampered list can
        name nodes that do not exist) simply fail verification."""
        try:
            key = self.shared_keys.key(a, b)
        except KeyError:
            return False
        return verify_tag(key, payload, tag)

    def invalidate_route(self, dest: int):
        if self.routes.pop(dest, None) is not None:
            self.log("route-invalidated", dest=dest, reason=LINK_BREAK)

    def _credit(self, neighbor: int, event: str):
        """The one writer of credits: reward a FORWARDED with +1, punish a
        MISBEHAVED with -punish_delta. Ids outside the network (a tampered
        node_list can name them) have no credit to reward or punish."""
        if not self.keeps_credit or neighbor not in self.chains:
            return
        cc = self.credits.get(neighbor, self.config.initial_credit)
        cc = cc + 1 if event == FORWARDED else cc - self.config.punish_delta
        self.credits[neighbor] = cc
        if self.log is not _noop_log:    # a log is kept
            self.log("credit", neighbor=neighbor, event=event, cc=cc)

    # -- route discovery ---------------------------------------------------

    def initiate_route_discovery(self, dest: int, now: float, rng,
                                 retries: int | None = None) -> Rreq | None:
        """Construct and register a fresh RREQ, or None if a valid route
        already exists."""
        if dest in self.routes:
            return None
        rreq = self.new_rreq(dest, rng)
        if retries is None:
            retries = self.config.rreq_retries
        self.pending[dest] = PendingRequest(rreq.request_id, retries)
        self.log("discovery-start", dest=dest,
                 request_id=rreq.request_id.hex())
        return rreq

    def new_rreq(self, dest: int, rng) -> Rreq:
        """Build an RREQ to dest under a fresh request id and mark it seen;
        a spent key chain is rolled over first."""
        chain = self.chains[self.id]
        if chain.remaining() == 0:
            chain = self.chains[self.id] = crypto.generate_keychain(
                rng.randbytes(crypto.SECRET_LEN), self.config.chain_length,
                owner=self.id)
            self.log("key-rollover")
        request_id = rng.randbytes(messages.REQUEST_ID_LEN)
        rreq = Rreq(source_id=self.id, dest_id=dest, request_id=request_id,
                    source_tag=compute_tag(self.key(dest), request_id),
                    verifier=reveal_next(chain))
        self._accept(rreq)
        return rreq

    def _accept(self, rreq: Rreq):
        """Record rreq as the newest request accepted from its source."""
        index, secret = rreq.verifier
        self.latest[rreq.source_id] = (self.chains[rreq.source_id], index,
                                       rreq.request_id, secret)

    def _admit(self, rreq: Rreq) -> HandlerResult | None:
        """The shared drop for a well-formed RREQ every receiver must refuse,
        or None. Under the source's current chain, an index above its latest
        record, or that request again, is a duplicate, and that index under
        another request id a bad verifier (Ariadne's rule); any other element
        must hash forward to the recorded one, or with no record of the
        current chain to its anchor. Only _accept records, once a handler's
        checks pass, so a recorded element has been verified. The radio
        makes the duplicate test itself at every receiver in range but a
        replay attacker, so in a run a duplicate reaches a handler only
        there; a test harness that plays the radio may hand one in."""
        chain = self.chains.get(rreq.source_id)
        if chain is None:
            return DROPPED[MALFORMED]
        index, secret = rreq.verifier
        held = None
        latest = self.latest.get(rreq.source_id)
        if latest is not None and latest[0] is chain:
            if index >= latest[1]:
                if index > latest[1] or rreq.request_id == latest[2]:
                    return DROPPED[DUPLICATE]
                return DROPPED[BAD_VERIFIER]
            held = latest[1], latest[3]
        if not verify_reveal(chain, index, secret, held):
            return DROPPED[BAD_VERIFIER]
        return None

    def handle_rreq(self, rreq: Rreq, prev_hop: int, now: float) -> HandlerResult:
        """Intermediate-node RREQ processing of a well-formed rreq: verify,
        credit, append, forward. A baseline forwarder first checks every
        accumulated hop tag, and the result counts those checks."""
        if (dropped := self._admit(rreq)) is not None:
            return dropped
        charged = 0
        if not self.keeps_credit:
            reason, charged = self._check_hops(rreq)
            if reason is not None:
                return HandlerResult(drop=reason, charged=charged)
        if rreq.dest_id not in self.chains:
            return HandlerResult(drop=MALFORMED, charged=charged)
        self._credit(prev_hop, FORWARDED)
        forwarded = Rreq(source_id=rreq.source_id, dest_id=rreq.dest_id,
                         request_id=rreq.request_id, source_tag=rreq.source_tag,
                         verifier=rreq.verifier,
                         node_list=rreq.node_list + [self.id],
                         hop_tags=list(rreq.hop_tags))
        own_pos = len(forwarded.node_list) - 1
        forwarded.hop_tags.append(
            compute_tag(self.key(rreq.dest_id), hop_digest(forwarded, own_pos)))
        self._accept(rreq)
        return HandlerResult(forwarded, charged=charged)

    def handle_rreq_at_destination(self, rreq: Rreq, prev_hop: int,
                                   now: float) -> HandlerResult:
        """Destination pipeline for a well-formed rreq: the source's verifier
        and MAC, the previous hop's credit, then _check_hops."""
        if (dropped := self._admit(rreq)) is not None:
            return dropped
        if not verify_tag(self.key(rreq.source_id), rreq.request_id,
                          rreq.source_tag):
            return DROPPED[BAD_SOURCE_MAC]
        self._credit(prev_hop, FORWARDED)
        reason, charged = self._check_hops(rreq)
        if reason is not None:
            return HandlerResult(drop=reason, charged=charged)
        self._accept(rreq)
        rrep = Rrep(source_id=rreq.source_id, dest_id=self.id,
                    request_id_tag=compute_tag(self.key(rreq.source_id),
                                               rreq.request_id),
                    route=list(rreq.node_list), dest_tags=[])
        body = rrep_body(rrep)
        rrep.dest_tags = [compute_tag(self.key(rreq.source_id), body)]
        rrep.dest_tags += [compute_tag(self.key(n), body) for n in rrep.route]
        self.log("rrep-issued", src=rreq.source_id, route=list(rrep.route))
        next_hop = rrep.route[-1] if rrep.route else rreq.source_id
        return HandlerResult(rrep, next_hop, charged=charged)

    def _check_hops(self, rreq: Rreq) -> tuple[str | None, int]:
        """The one verifier of a well-formed rreq's hop tags, at a baseline
        forwarder or at the destination. Every hop not vetted by credit, and
        under full_verification every hop, is checked under its key with
        rreq.dest_id: a failed tag punishes the hop, and under credit a hop
        not vetted is prohibited. Returns the drop reason or None, and the
        checks made."""
        checks, reason = 0, None
        for k, node in enumerate(rreq.node_list):
            # a node with no key chain is never vetted
            vetted = (self.keeps_credit and node in self.chains
                      and self.credits.get(node, self.config.initial_credit)
                      >= self.config.credit_threshold)
            if vetted and not self.config.full_verification:
                continue
            checks += 1
            if not self._tag_matches(node, rreq.dest_id, hop_digest(rreq, k),
                                     rreq.hop_tags[k]):
                self._credit(node, MISBEHAVED)
                reason = BAD_HOP_TAG
                break
            if self.keeps_credit and not vetted:
                reason = PROHIBITED
                break
        return reason, checks

    def _check_reply(self, rrep: Rrep, pos: int,
                     check_tags: bool) -> tuple[str | None, int]:
        """The one verifier of a well-formed rrep at route position pos (-1
        at the source): the destination's tag for this node, the number of
        reverse tags the hops past pos have added, and, if check_tags, each
        of those tags. Returns the drop reason or None, and the tag checks
        made."""
        checks = 1
        reason = None
        if not verify_tag(self.key(rrep.dest_id), rrep_body(rrep),
                          rrep.dest_tags[pos + 1]):
            reason = BAD_DEST_TAG
        elif len(rrep.reverse_hop_tags) != len(rrep.route) - 1 - pos:
            reason = MALFORMED
        elif check_tags:
            for j, tag in enumerate(rrep.reverse_hop_tags):
                hop = rrep.route[-1 - j]
                checks += 1
                if not self._tag_matches(hop, rrep.source_id,
                                         reverse_tag_payload(rrep, hop), tag):
                    reason = BAD_HOP_TAG
                    break
        return reason, checks

    def handle_rrep(self, rrep: Rrep, prev_hop: int, now: float) -> HandlerResult:
        """Reverse-path processing of a well-formed rrep at an intermediate
        node."""
        if self.id not in rrep.route:
            return DROPPED[NOT_IN_ROUTE]
        pos = rrep.route.index(self.id)
        toward_dest = rrep.route[pos + 1] if pos + 1 < len(rrep.route) else rrep.dest_id
        toward_src = rrep.route[pos - 1] if pos > 0 else rrep.source_id
        if not (self.in_range_fn(self.id, toward_dest)
                and self.in_range_fn(self.id, toward_src)):
            return DROPPED[NOT_IN_ROUTE]
        if rrep.dest_id not in self.chains:
            return DROPPED[MALFORMED]
        reason, charged = self._check_reply(rrep, pos, not self.keeps_credit)
        if reason is not None:
            return HandlerResult(drop=reason, charged=charged)
        if rrep.source_id not in self.chains:
            # no destination tags a reply to a source outside the network,
            # and this node holds no key to tag one toward it
            return HandlerResult(drop=MALFORMED, charged=charged)
        forwarded = Rrep(source_id=rrep.source_id, dest_id=rrep.dest_id,
                         request_id_tag=rrep.request_id_tag,
                         route=list(rrep.route), dest_tags=list(rrep.dest_tags),
                         reverse_hop_tags=list(rrep.reverse_hop_tags))
        forwarded.reverse_hop_tags.append(
            compute_tag(self.key(rrep.source_id),
                        reverse_tag_payload(forwarded, self.id)))
        return HandlerResult(forwarded, toward_src, charged=charged)

    def handle_rrep_at_source(self, rrep: Rrep, prev_hop: int,
                              now: float) -> HandlerResult:
        """Accept or reject a well-formed route reply at the originating
        source."""
        pend = self.pending.get(rrep.dest_id)
        if pend is None:
            return DROPPED[REPLAY]
        if not verify_tag(self.key(rrep.dest_id), pend.request_id,
                          rrep.request_id_tag):
            return DROPPED[REPLAY]
        first_hop = rrep.route[0] if rrep.route else rrep.dest_id
        if not self.in_range_fn(self.id, first_hop):
            return DROPPED[BAD_FIRST_HOP]
        reason, charged = self._check_reply(rrep, -1, True)
        if reason is not None:
            return HandlerResult(drop=reason, charged=charged)
        self.routes[rrep.dest_id] = list(rrep.route)
        del self.pending[rrep.dest_id]
        self.log("route-accept", dest=rrep.dest_id, route=list(rrep.route))
        return HandlerResult(charged=charged)

    # -- timers and data ---------------------------------------------------

    def on_timer(self, dest: int, request_id: bytes, now: float,
                 rng) -> Rreq | str | None:
        """Expire the request to dest named request_id at its one wake-up:
        return its retry, or NO_ROUTE once its retries are spent; None if
        it was answered or retried since."""
        pend = self.pending.get(dest)
        if pend is None or pend.request_id != request_id:
            return None
        del self.pending[dest]
        if pend.retries_remaining > 0:
            # a pending request implies no valid route, so this builds one
            return self.initiate_route_discovery(
                dest, now, rng, retries=pend.retries_remaining - 1)
        self.log("unroutable", dest=dest)
        return NO_ROUTE

    def forward_data(self, packet: DataPacket, prev_hop: int | None,
                     now: float) -> int | str | None:
        """Credit prev_hop (None at the source) and route a data packet one
        hop: return the next hop id, None when it is delivered here, or the
        drop reason. A next hop out of range is a LINK_BREAK, which also
        invalidates this node's own route to the destination."""
        if prev_hop is not None:
            self._credit(prev_hop, FORWARDED)
        me, dest = self.id, packet.dest_id
        if me == dest:
            return None
        route = packet.route
        if me == packet.source_id:
            next_hop = route[0] if route else dest
        elif me in route:
            pos = route.index(me)
            next_hop = route[pos + 1] if pos + 1 < len(route) else dest
        else:
            return NOT_IN_ROUTE
        if not self.in_range_fn(me, next_hop):
            self.invalidate_route(dest)
            return LINK_BREAK
        return next_hop
