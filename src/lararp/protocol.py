"""Node state machines: LARARP route discovery with credit-based trust,
plus a verify-everything baseline node for comparison.

Handlers are synchronous and engine-agnostic: they receive the current
time and return a HandlerResult describing outbound actions, an optional
drop reason, and how many expensive tag verifications were charged (the
simulator converts the charge into processing latency).
"""

from dataclasses import dataclass, field

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

FORWARDED = "forwarded"
MISBEHAVED = "misbehaved"

LARARP = "lararp"
BASELINE = "baseline"


@dataclass
class ProtocolConfig:
    credit_threshold: int = 0          # C_t
    initial_credit: int = 0
    punish_delta: int = 2
    rreq_timeout: float = 1.0          # t, seconds
    rreq_retries: int = 2
    full_verification: bool = False
    credit_data_forwarding: bool = True
    chain_length: int = 256


class NeighborTrustTable:
    """Per-node map from neighbor id to credit counter CC.

    Absent neighbors read as the initial credit.
    """

    def __init__(self, initial_credit: int = 0):
        self.initial_credit = initial_credit
        self.credits: dict[int, int] = {}

    def get(self, neighbor: int) -> int:
        return self.credits.get(neighbor, self.initial_credit)

    def items(self):
        return sorted(self.credits.items())


def update_credit(ntt: NeighborTrustTable, neighbor: int, event: str,
                  punish_delta: int = 2) -> int:
    """Reward a forward with +1, punish misbehavior with -punish_delta."""
    cc = ntt.get(neighbor)
    if event == FORWARDED:
        cc += 1
    elif event == MISBEHAVED:
        cc -= punish_delta
    else:
        raise ValueError(f"unknown credit event {event!r}")
    ntt.credits[neighbor] = cc
    return cc


@dataclass
class RouteEntry:
    dest: int
    route: list[int]
    established_at: float
    valid: bool = True


@dataclass
class PendingRequest:
    request_id: bytes
    dest: int
    sent_at: float
    timeout: float
    retries_remaining: int


# Outbound actions interpreted by the simulator (or a test harness).

@dataclass
class Broadcast:
    message: object


@dataclass
class Unicast:
    next_hop: int
    message: object


@dataclass
class Deliver:
    packet: DataPacket


@dataclass
class AcceptedRoute:
    dest: int
    route: list[int]


@dataclass
class LinkBreak:
    packet: DataPacket
    dest: int


@dataclass
class Unroutable:
    dest: int


@dataclass
class HandlerResult:
    actions: list = field(default_factory=list)
    drop: str | None = None
    charged: int = 0       # expensive tag verifications to bill as latency

    @classmethod
    def dropped(cls, reason, charged=0):
        return cls(actions=[], drop=reason, charged=charged)


def _noop_log(kind, **details):
    pass


class NodeState:
    """One node's routing state. mode selects LARARP or the baseline that
    verifies every tag everywhere and keeps no trust table."""

    def __init__(self, node_id: int, keychain: crypto.KeyChain,
                 shared_keys: crypto.SharedKeyTable, publics: dict,
                 config: ProtocolConfig, neighbors_fn, log=_noop_log,
                 mode: str = LARARP):
        self.id = node_id
        self.keychain = keychain
        self.shared_keys = shared_keys
        self.publics = publics                  # node id -> public verifier list
        self.config = config
        self.neighbors_fn = neighbors_fn        # node id -> container of neighbor ids
        self.log = log
        self.mode = mode
        self.ntt = NeighborTrustTable(config.initial_credit)
        self.routes: dict[int, RouteEntry] = {}
        self.seen_requests: set[tuple[int, bytes]] = set()
        self.pending: dict[int, PendingRequest] = {}
        # Instrumentation: how many per-hop tag checks this node performed.
        self.hop_tag_checks = 0
        self.hop_tag_checks_as_dest = 0

    # -- helpers -----------------------------------------------------------

    def key(self, other: int) -> bytes:
        return self.shared_keys.key(self.id, other)

    def _tag_matches(self, a: int, b: int, payload: bytes, tag: bytes) -> bool:
        """Recompute a tag under key(a, b); unknown ids (a tampered list can
        name nodes that do not exist) simply fail verification."""
        try:
            key = self.shared_keys.key(a, b)
        except KeyError:
            return False
        return compute_tag(key, payload) == tag

    def has_route(self, dest: int) -> bool:
        entry = self.routes.get(dest)
        return entry is not None and entry.valid

    def invalidate_route(self, dest: int, reason: str = LINK_BREAK):
        entry = self.routes.get(dest)
        if entry is not None and entry.valid:
            entry.valid = False
            self.log("route-invalidated", dest=dest, reason=reason)

    def _credit(self, neighbor: int, event: str):
        # ids outside the network (a tampered node_list can name them, and
        # None is no hop at all) have no trust entry to reward or punish
        if self.mode != LARARP or neighbor not in self.publics:
            return
        cc = update_credit(self.ntt, neighbor, event, self.config.punish_delta)
        self.log("credit", neighbor=neighbor, event=event, cc=cc)

    def _count_checks(self, n: int, as_dest: bool = False):
        self.hop_tag_checks += n
        if as_dest:
            self.hop_tag_checks_as_dest += n

    # -- route discovery ---------------------------------------------------

    def initiate_route_discovery(self, dest: int, now: float, rng,
                                 retries: int | None = None) -> Rreq | None:
        """Construct and register a fresh RREQ, or None if a valid route
        already exists."""
        if self.has_route(dest):
            return None
        rreq = self.new_rreq(dest, rng)
        if retries is None:
            retries = self.config.rreq_retries
        self.pending[dest] = PendingRequest(
            request_id=rreq.request_id, dest=dest, sent_at=now,
            timeout=self.config.rreq_timeout, retries_remaining=retries)
        self.log("discovery-start", dest=dest,
                 request_id=rreq.request_id.hex())
        return rreq

    def new_rreq(self, dest: int, rng) -> Rreq:
        """Build an RREQ to dest under a fresh request id and mark it seen;
        a spent key chain is rolled over first."""
        if self.keychain.remaining() == 0:
            self.keychain = crypto.generate_keychain(
                rng.randbytes(crypto.SECRET_LEN), self.config.chain_length,
                owner=self.id)
            self.publics[self.id] = self.keychain.publics
            self.log("key-rollover")
        request_id = rng.randbytes(messages.REQUEST_ID_LEN)
        rreq = Rreq(source_id=self.id, dest_id=dest, request_id=request_id,
                    source_tag=compute_tag(self.key(dest), request_id),
                    verifier=reveal_next(self.keychain))
        self.seen_requests.add((self.id, request_id))
        return rreq

    def _admit(self, rreq: Rreq) -> str | None:
        """The drop reason for an RREQ every receiver must refuse (malformed,
        already seen, unknown source, bad verifier), or None."""
        try:
            rreq.validate()
        except messages.EncodingError:
            return MALFORMED
        if (rreq.source_id, rreq.request_id) in self.seen_requests:
            return DUPLICATE
        if rreq.source_id not in self.publics:
            return MALFORMED
        if not verify_reveal(self.publics[rreq.source_id], *rreq.verifier):
            return BAD_VERIFIER
        return None

    def handle_rreq(self, rreq: Rreq, prev_hop: int, now: float) -> HandlerResult:
        """Intermediate-node RREQ processing: verify, credit, append, forward."""
        if (drop := self._admit(rreq)) is not None:
            return HandlerResult.dropped(drop)
        if self.mode == BASELINE:
            # Signature-everywhere baseline: check every accumulated hop tag
            # at every node. Uncharged here so flood timing stays comparable;
            # the workload is still counted.
            self._count_checks(len(rreq.hop_tags))
            for k, node in enumerate(rreq.node_list):
                if not self._tag_matches(node, rreq.dest_id,
                                         hop_digest(rreq, k),
                                         rreq.hop_tags[k]):
                    return HandlerResult.dropped(BAD_HOP_TAG)
        if rreq.dest_id not in self.publics:
            return HandlerResult.dropped(MALFORMED)
        self._credit(prev_hop, FORWARDED)
        forwarded = Rreq(source_id=rreq.source_id, dest_id=rreq.dest_id,
                         request_id=rreq.request_id, source_tag=rreq.source_tag,
                         verifier=rreq.verifier,
                         node_list=rreq.node_list + [self.id],
                         hop_tags=list(rreq.hop_tags))
        own_pos = len(forwarded.node_list) - 1
        forwarded.hop_tags.append(
            compute_tag(self.key(rreq.dest_id), hop_digest(forwarded, own_pos)))
        self.seen_requests.add((rreq.source_id, rreq.request_id))
        return HandlerResult(actions=[Broadcast(forwarded)])

    def handle_rreq_at_destination(self, rreq: Rreq, prev_hop: int,
                                   now: float) -> HandlerResult:
        """Destination pipeline: source verifier and MAC always; hop tags
        selectively (LARARP) or exhaustively (baseline/full_verification)."""
        if (drop := self._admit(rreq)) is not None:
            return HandlerResult.dropped(drop)
        if not verify_tag(self.key(rreq.source_id), rreq.request_id,
                          rreq.source_tag):
            return HandlerResult.dropped(BAD_SOURCE_MAC)
        self._credit(prev_hop, FORWARDED)
        charged = 0
        cfg = self.config
        for k, node in enumerate(rreq.node_list):
            if self.mode == LARARP:
                # a node with no key chain is never trusted
                well_behaving = (node in self.publics and self.ntt.get(node)
                                 >= cfg.credit_threshold)
                if well_behaving and not cfg.full_verification:
                    continue
            else:
                well_behaving = True
            self._count_checks(1, as_dest=True)
            charged += 1
            if not self._tag_matches(node, self.id, hop_digest(rreq, k),
                                     rreq.hop_tags[k]):
                self._credit(node, MISBEHAVED)
                return HandlerResult.dropped(BAD_HOP_TAG, charged)
            if self.mode == LARARP and not well_behaving:
                return HandlerResult.dropped(PROHIBITED, charged)
        self.seen_requests.add((rreq.source_id, rreq.request_id))
        rrep = Rrep(source_id=rreq.source_id, dest_id=self.id,
                    request_id_tag=compute_tag(self.key(rreq.source_id),
                                               rreq.request_id),
                    route=list(rreq.node_list), dest_tags=[])
        body = rrep_body(rrep)
        rrep.dest_tags = [compute_tag(self.key(rreq.source_id), body)]
        rrep.dest_tags += [compute_tag(self.key(n), body) for n in rrep.route]
        self.log("rrep-issued", src=rreq.source_id, route=list(rrep.route))
        next_hop = rrep.route[-1] if rrep.route else rreq.source_id
        return HandlerResult(actions=[Unicast(next_hop, rrep)], charged=charged)

    def handle_rrep(self, rrep: Rrep, prev_hop: int, now: float) -> HandlerResult:
        """Reverse-path RREP processing at an intermediate node."""
        try:
            rrep.validate()
        except messages.EncodingError:
            return HandlerResult.dropped(MALFORMED)
        if self.id not in rrep.route:
            return HandlerResult.dropped(NOT_IN_ROUTE)
        pos = rrep.route.index(self.id)
        toward_dest = rrep.route[pos + 1] if pos + 1 < len(rrep.route) else rrep.dest_id
        toward_src = rrep.route[pos - 1] if pos > 0 else rrep.source_id
        neighbors = self.neighbors_fn(self.id)
        if toward_dest not in neighbors or toward_src not in neighbors:
            return HandlerResult.dropped(NOT_IN_ROUTE)
        if rrep.dest_id not in self.publics:
            return HandlerResult.dropped(MALFORMED)
        charged = 1
        self._count_checks(1)
        body = rrep_body(rrep)
        if not verify_tag(self.key(rrep.dest_id), body, rrep.dest_tags[1 + pos]):
            return HandlerResult.dropped(BAD_DEST_TAG, charged)
        traversed = len(rrep.route) - 1 - pos
        if len(rrep.reverse_hop_tags) != traversed:
            return HandlerResult.dropped(MALFORMED, charged)
        if self.mode == BASELINE:
            # Verify every reverse tag accumulated so far.
            for j in range(traversed):
                hop = rrep.route[len(rrep.route) - 1 - j]
                self._count_checks(1)
                charged += 1
                if not self._tag_matches(hop, rrep.source_id,
                                         reverse_tag_payload(rrep, hop),
                                         rrep.reverse_hop_tags[j]):
                    return HandlerResult.dropped(BAD_HOP_TAG, charged)
        forwarded = Rrep(source_id=rrep.source_id, dest_id=rrep.dest_id,
                         request_id_tag=rrep.request_id_tag,
                         route=list(rrep.route), dest_tags=list(rrep.dest_tags),
                         reverse_hop_tags=list(rrep.reverse_hop_tags))
        forwarded.reverse_hop_tags.append(
            compute_tag(self.key(rrep.source_id),
                        reverse_tag_payload(forwarded, self.id)))
        return HandlerResult(actions=[Unicast(toward_src, forwarded)],
                             charged=charged)

    def handle_rrep_at_source(self, rrep: Rrep, prev_hop: int,
                              now: float) -> HandlerResult:
        """Accept or reject a route reply at the originating source."""
        try:
            rrep.validate()
        except messages.EncodingError:
            return HandlerResult.dropped(MALFORMED)
        pend = self.pending.get(rrep.dest_id)
        if pend is None:
            return HandlerResult.dropped(REPLAY)
        if not verify_tag(self.key(rrep.dest_id), pend.request_id,
                          rrep.request_id_tag):
            return HandlerResult.dropped(REPLAY)
        first_hop = rrep.route[0] if rrep.route else rrep.dest_id
        if first_hop not in self.neighbors_fn(self.id):
            return HandlerResult.dropped(BAD_FIRST_HOP)
        charged = 1
        self._count_checks(1)
        body = rrep_body(rrep)
        if not verify_tag(self.key(rrep.dest_id), body, rrep.dest_tags[0]):
            return HandlerResult.dropped(BAD_DEST_TAG, charged)
        if len(rrep.reverse_hop_tags) != len(rrep.route):
            return HandlerResult.dropped(MALFORMED, charged)
        for j, tag in enumerate(rrep.reverse_hop_tags):
            hop = rrep.route[len(rrep.route) - 1 - j]
            self._count_checks(1)
            charged += 1
            if not self._tag_matches(hop, self.id,
                                     reverse_tag_payload(rrep, hop), tag):
                return HandlerResult.dropped(BAD_HOP_TAG, charged)
        self.routes[rrep.dest_id] = RouteEntry(dest=rrep.dest_id,
                                               route=list(rrep.route),
                                               established_at=now)
        del self.pending[rrep.dest_id]
        self.log("route-accept", dest=rrep.dest_id, route=list(rrep.route))
        return HandlerResult(actions=[AcceptedRoute(rrep.dest_id,
                                                    list(rrep.route))],
                             charged=charged)

    # -- timers and data ---------------------------------------------------

    def on_timer(self, now: float, rng) -> list:
        """Re-discover every timed-out pending request; give up when
        retries are exhausted."""
        actions = []
        for dest in list(self.pending):
            pend = self.pending[dest]
            # small slack absorbs float rounding in timer scheduling
            if now - pend.sent_at < pend.timeout - 1e-9:
                continue
            if pend.retries_remaining > 0:
                del self.pending[dest]
                rreq = self.initiate_route_discovery(
                    dest, now, rng, retries=pend.retries_remaining - 1)
                if rreq is not None:
                    actions.append(Broadcast(rreq))
            else:
                del self.pending[dest]
                self.log("unroutable", dest=dest)
                actions.append(Unroutable(dest))
        return actions

    def forward_data(self, packet: DataPacket, prev_hop: int | None,
                     now: float) -> HandlerResult:
        """Source-route a data packet one hop, deliver it, or report a
        broken link back to the source."""
        if self.config.credit_data_forwarding:
            self._credit(prev_hop, FORWARDED)
        if self.id == packet.dest_id:
            return HandlerResult(actions=[Deliver(packet)])
        route = packet.route
        if self.id == packet.source_id:
            next_hop = route[0] if route else packet.dest_id
        elif self.id in route:
            pos = route.index(self.id)
            next_hop = route[pos + 1] if pos + 1 < len(route) else packet.dest_id
        else:
            return HandlerResult.dropped(NOT_IN_ROUTE)
        if next_hop not in self.neighbors_fn(self.id):
            self.invalidate_route(packet.dest_id)
            return HandlerResult(actions=[LinkBreak(packet, packet.dest_id)],
                                 drop=LINK_BREAK)
        return HandlerResult(actions=[Unicast(next_hop, packet)])
