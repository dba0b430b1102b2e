"""Deterministic discrete-event engine: random-waypoint mobility, unit-disk
radio with bandwidth-delay timing, CBR traffic, and the event loop that
drives protocol handlers and attacker shims.

An event is a handler call: a heap entry is ``(time, ordinal, handler,
args)``, and the loop calls ``handler(*args, time)``. The ordinal breaks
time ties in push order. _send puts each message on the air as one event:
a data hop is the event ``_hop``, which is the data arrival, and a control
broadcast or unicast is one ``_transmission`` naming its receivers, and one
validation. A neighbour row is the receiver set of a broadcast, taken at
send time, and nothing else builds one: a unicast hop tests its one link
with MobilityState.in_range. The transmission decides once whether a
control message is well-formed, then hands it to each receiver in turn, in
ascending id order; every receiver drops a malformed one as it arrives,
without a handler call. That verdict holds for every receiver because they
all get the same object and nothing changes a message once it is on the
air. Every receiver is in range when a message is sent, and an arrival
re-tests the range only if a node has moved since. A receiver in range
drops a duplicate request at the radio, with one lookup of its record of
the source and no handler call, so no duplicate reaches a handler except at
a replay attacker, whose shim captures every copy it is handed. _hop settles
a data hop, at an arrival or at the source: it logs a loss, a delivery or a
drop, reports a relay's link break to the source at once, and lets a black
or gray hole drop what it would forward. _arrival settles a control
handler's result: it logs a drop, or sends the one message, or, at a source
that accepted a route, sends the packets buffered for it. Node records
(credits, route changes) are built, and a data hop calls a node's logger,
only when a log is kept: the live metrics fold none of them. So are a data
packet's send and delivery records, which the engine counts in place; every
other engine record goes through _emit, which folds it live.

All randomness flows from named streams derived from the scenario seed, so
identical (config, seed) pairs produce bit-identical event logs. Mobility,
traffic, and attacker placement draw from streams independent of the
protocol choice, which makes paired LARARP/baseline runs comparable.
"""

import heapq
import math
import random
from dataclasses import dataclass, field, fields

import numpy as np

from . import crypto, protocol
from .adversary import (AttackConfig, Attacker, CONTROL_FLOOD, KINDS, REPLAY,
                        TAMPER_FIELDS)
from .eventlog import Record
from .messages import DataPacket, Rrep, Rreq, wellformed, wire_size
from .metrics import MetricsCollector, MetricsReport
from .protocol import NodeState, ProtocolConfig


class ScenarioError(ValueError):
    pass


# the name of a control message's kind in the event log
_MSG_KIND = {Rreq: "rreq", Rrep: "rrep"}

# The most timer work a config may schedule before sim_time, in units of
# one node-step of a mobility tick, one CBR packet, or one hop of a flood
# request or of a discovery retry (each reaches every node); far past it a
# run never ends in practice. Not a knob: the largest config in the tests,
# the demos, the default sweeps and the benchmark workloads schedules
# 202,000 (a 200-node, 50 s build in the tests; scale-1000 schedules
# 200,400), about 50 times less.
MAX_TIMER_EVENTS = 10_000_000

# The most nodes a config may ask for: set-up keeps about 2 KB per node
# (38 MB for 20,000 nodes), whatever sim_time is, so far past it the build
# alone exhausts memory. Not a knob: the largest network in the tests, the
# demos, the default sweeps and the benchmark workloads has 1,000 nodes,
# 100 times fewer.
MAX_NODES = 100_000

# The longest key chain a config may ask for. A first reveal hashes and keeps
# a whole chain, about 57 B a secret, and one check of a revealed secret
# hashes up to chain_length steps (a request naming index 0 at a node that
# holds no record of its source), so this also caps one check at 4,096
# hashes. Not a knob: 16 times the longest in the tests, the demos, the
# default sweeps and the benchmark workloads (256).
MAX_CHAIN_LENGTH = 4_096


@dataclass
class ScenarioConfig(ProtocolConfig, AttackConfig):
    """A run's settings; the protocol's own knobs are those of
    ProtocolConfig and the attack settings those of AttackConfig, and
    every node and attacker reads them from this config. validate is
    the one check of every setting."""
    node_count: int = 100
    area_width: float = 1000.0
    area_height: float = 1000.0
    radio_range: float = 250.0
    bandwidth: float = 2_000_000.0
    sim_time: float = 50.0
    speed_min: float = 5.0
    speed_max: float = 10.0
    pause_time: float = 10.0
    packet_size: int = 512
    flow_count: int = 10
    flow_rate: float = 4.0
    attacker_count: int = 0
    seed: int = 1
    processing_delay: float = 0.001
    tag_verify_cost: float = 0.002
    mobility_tick: float = 0.1
    flows: list | None = None        # explicit (src, dst) pairs; API-only override
    positions: list | None = None    # explicit (x, y) placement; API-only override

    def validate(self):
        if self.node_count < 2:
            raise ScenarioError("node_count must be at least 2")
        if self.node_count > MAX_NODES:
            raise ScenarioError(f"node_count must be at most {MAX_NODES:,}")
        # each range test is written so that NaN fails it too; an infinite
        # time or rate never ends a run
        for name in ("area_width", "area_height", "radio_range", "bandwidth",
                     "sim_time", "flow_rate", "mobility_tick", "flood_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ScenarioError(f"{name} must be positive and finite")
        for name in ("speed_min", "speed_max", "pause_time",
                     "processing_delay", "tag_verify_cost", "rreq_timeout",
                     "replay_delay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ScenarioError(f"{name} must be nonnegative and finite")
        if self.packet_size <= 0:
            raise ScenarioError("packet_size must be positive")
        if self.speed_min > self.speed_max:
            raise ScenarioError("speed_min exceeds speed_max")
        if not 0 <= self.attacker_count < self.node_count:
            raise ScenarioError("attacker_count must be below node_count")
        if self.attacker_kind not in KINDS:
            raise ScenarioError(f"unknown attacker_kind {self.attacker_kind!r}")
        if not 0 <= self.grayhole_drop_prob <= 1:
            raise ScenarioError("grayhole_drop_prob must be in [0, 1]")
        if self.tamper_field not in TAMPER_FIELDS:
            raise ScenarioError(f"unknown tamper_field {self.tamper_field!r}")
        if self.protocol not in protocol.PROTOCOLS:
            raise ScenarioError(f"unknown protocol {self.protocol!r}")
        if self.flow_count < 1:
            raise ScenarioError("flow_count must be at least 1")
        if not 1 <= self.chain_length <= MAX_CHAIN_LENGTH:
            raise ScenarioError(
                f"chain_length must be in [1, {MAX_CHAIN_LENGTH:,}]")
        if self.rreq_retries < 0:
            raise ScenarioError("rreq_retries must be nonnegative")
        nodes = range(self.node_count)
        for src, dst in self.flows or ():
            if src == dst or src not in nodes or dst not in nodes:
                raise ScenarioError(f"flow ({src}, {dst}) needs two distinct "
                                    f"ids in range(node_count)")
        if self.positions is not None and len(self.positions) != len(nodes):
            raise ScenarioError("positions must cover every node")
        flows = self.flow_count if self.flows is None else len(self.flows)
        if self.flows is None and flows > len(nodes) * (len(nodes) - 1):
            raise ScenarioError("flow_count exceeds the ordered node pairs")
        # attackers are drawn from the nodes no flow uses; drawn flows use at
        # least two, and Simulation checks the nodes they do use
        endpoints = 2 if self.flows is None else len(set().union(*self.flows))
        if self.attacker_count > len(nodes) - endpoints:
            raise ScenarioError("attacker_count exceeds the non-endpoint nodes")
        floods = (self.attacker_count if self.attacker_kind == CONTROL_FLOOD
                  else 0)
        # a flow retries each discovery it starts at most rreq_retries
        # times, and its one pending discovery at most once per rreq_timeout
        retry_rate = 1 / self.rreq_timeout if self.rreq_timeout else math.inf
        # work per second; a tick, a flood request and a retry reach every node
        timers = {"mobility_tick": self.node_count / self.mobility_tick,
                  "flow_rate": flows * self.flow_rate,
                  "flood_rate": self.node_count * floods * self.flood_rate,
                  "rreq_retries": self.node_count * flows * min(
                      self.flow_rate * self.rreq_retries, retry_rate)}
        total = sum(timers.values()) * self.sim_time
        if total > MAX_TIMER_EVENTS:
            key = max(timers, key=timers.get)
            raise ScenarioError(
                f"{key} schedules too much timer work: {total:.3g} node-steps, "
                f"packets, flood hops and retry hops before sim_time, above "
                f"{MAX_TIMER_EVENTS:,}")


_SCENARIO_FIELDS = {f.name: f.type for f in fields(ScenarioConfig)
                    if f.name not in ("flows", "positions")}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse the flat key=value scenario format; unknown keys rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SCENARIO_FIELDS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        ftype = _SCENARIO_FIELDS[key]
        try:
            if ftype is bool:
                if value not in ("true", "false"):
                    raise ValueError("expected true or false")
                values[key] = value == "true"
            else:
                values[key] = ftype(value)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: key {key!r}: {exc}") from exc
    config = ScenarioConfig(**values)
    config.validate()
    return config


def load_scenario(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# -- mobility ---------------------------------------------------------------

class MobilityState:
    """Random-waypoint state for every node. Nodes start paused at their
    initial placement, so pause_time >= sim_time yields a static network.

    A neighbour row is the receiver set of a broadcast; a unicast hop asks
    in_range about its one link and builds no row. Rows are computed
    lazily, one per queried node, against numpy copies of the positions
    taken once per change, and are kept until step_mobility moves a node.
    ``_nbr_cache = None`` marks them stale, and whatever moves a node must
    set it: the radio takes rows that are still current to mean that no
    node has moved."""

    def __init__(self, config: ScenarioConfig, rng: random.Random):
        self.config = config
        self.now = 0.0
        n = config.node_count
        if config.positions is not None:
            self.x = [float(p[0]) for p in config.positions]
            self.y = [float(p[1]) for p in config.positions]
        else:
            self.x = [rng.uniform(0.0, config.area_width) for _ in range(n)]
            self.y = [rng.uniform(0.0, config.area_height) for _ in range(n)]
        self.waypoint: list[tuple[float, float] | None] = [None] * n
        self.speed = [0.0] * n
        self.paused_until = [config.pause_time] * n
        self._nbr_cache: dict[int, list[int]] | None = None
        self._node_count = n
        self._range_sq = config.radio_range ** 2

    def in_range(self, a: int, b: int) -> bool:
        """Whether b is in neighbors(a), without building the row: False for
        a == b and for an id outside the network. It rounds as the numpy
        rows do and compares against the same squared range, so the two
        agree at the boundary."""
        if a == b or not 0 <= b < self._node_count:
            return False
        dx, dy = self.x[a] - self.x[b], self.y[a] - self.y[b]
        return dx * dx + dy * dy <= self._range_sq

    def neighbors(self, node: int) -> list[int]:
        """Ids within radio range of node, ascending (hence deterministic).
        A returned row is never mutated; queued transmissions hold it."""
        if self._nbr_cache is None:
            self._nbr_cache = {}
            self._xs = np.array(self.x)
            self._ys = np.array(self.y)
        row = self._nbr_cache.get(node)
        if row is None:
            xs, ys = self._xs, self._ys
            within = ((xs - xs[node]) ** 2 + (ys - ys[node]) ** 2
                      <= self._range_sq)
            within[node] = False
            row = self._nbr_cache[node] = np.flatnonzero(within).tolist()
        return row


def step_mobility(mobility: MobilityState, dt: float, rng: random.Random):
    """Advance every node by dt seconds of random-waypoint motion; neighbour
    rows go stale only if some node was unpaused."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    cfg = mobility.config
    mobility.now += dt
    now = mobility.now
    moved = False
    for i in range(cfg.node_count):
        if mobility.paused_until[i] > now:
            continue
        moved = True
        if mobility.waypoint[i] is None:
            mobility.waypoint[i] = (rng.uniform(0.0, cfg.area_width),
                                    rng.uniform(0.0, cfg.area_height))
            mobility.speed[i] = rng.uniform(cfg.speed_min, cfg.speed_max)
        wx, wy = mobility.waypoint[i]
        dx, dy = wx - mobility.x[i], wy - mobility.y[i]
        dist = math.hypot(dx, dy)
        step = mobility.speed[i] * dt
        if step >= dist or dist == 0.0:
            mobility.x[i], mobility.y[i] = wx, wy
            mobility.waypoint[i] = None
            mobility.paused_until[i] = now + cfg.pause_time
        else:
            mobility.x[i] += dx / dist * step
            mobility.y[i] += dy / dist * step
    if moved:
        mobility._nbr_cache = None


# -- engine -----------------------------------------------------------------

@dataclass
class _Flow:
    index: int
    src: int
    dst: int
    next_seq: int = 0


class Simulation:
    """One deterministic run of a scenario."""

    def __init__(self, config: ScenarioConfig, keep_log: bool = False):
        config.validate()
        self.config = config
        self.keep_log = keep_log
        self.records: list[Record] = []
        self.collector = MetricsCollector()
        self._heap: list = []
        self._ordinal = 0
        self.now = 0.0

        seed = config.seed
        self.rng_setup = random.Random(f"{seed}:setup")
        self.rng_mobility = random.Random(f"{seed}:mobility")
        self.rng_traffic = random.Random(f"{seed}:traffic")
        self.rng_protocol = random.Random(f"{seed}:protocol")

        self.mobility = MobilityState(config, self.rng_mobility)
        self.flows = self._make_flows()
        endpoints = {f.src for f in self.flows} | {f.dst for f in self.flows}
        candidates = [n for n in range(config.node_count) if n not in endpoints]
        if config.attacker_count > len(candidates):
            raise ScenarioError("not enough non-endpoint nodes for attackers")
        attacker_ids = sorted(self.rng_setup.sample(candidates,
                                                    config.attacker_count))

        master = self.rng_setup.randbytes(crypto.SECRET_LEN)
        node_ids = list(range(config.node_count))
        shared_keys = crypto.SharedKeyTable.derive(master, node_ids)
        self.chains: dict[int, crypto.KeyChain] = {}
        self.nodes: dict[int, NodeState] = {}
        for i in node_ids:
            self.chains[i] = crypto.generate_keychain(
                self.rng_setup.randbytes(16), config.chain_length, owner=i)
            self.nodes[i] = NodeState(
                i, shared_keys, self.chains, config,
                in_range_fn=self.mobility.in_range,
                log=self._node_logger(i))

        self.attackers: dict[int, Attacker] = {
            i: Attacker(config, self.nodes[i],
                        random.Random(f"{seed}:attack:{i}"))
            for i in attacker_ids}
        # the only attackers whose shim keeps a copy it is handed
        self._replayers = {i for i, a in self.attackers.items()
                           if a.kind == REPLAY}

        # engine-owned send buffers: node -> dest -> packets awaiting a route
        self.buffers: dict[int, dict[int, list[DataPacket]]] = {
            i: {} for i in node_ids}

        self._emit(0.0, -1, "run-start", protocol=config.protocol,
                   seed=seed, nodes=config.node_count,
                   attackers=config.attacker_count,
                   attacker_kind=config.attacker_kind,
                   pause_time=config.pause_time)
        for f in self.flows:
            self._emit(0.0, f.src, "flow", index=f.index, dst=f.dst)

    # -- setup helpers ----------------------------------------------------

    def _make_flows(self) -> list[_Flow]:
        cfg = self.config
        if cfg.flows is not None:
            pairs = [tuple(p) for p in cfg.flows]
        else:
            pairs = []
            seen = set()
            guard = 0
            while len(pairs) < cfg.flow_count:
                guard += 1
                if guard > 10000:
                    raise ScenarioError("cannot draw enough distinct flows")
                src = self.rng_traffic.randrange(cfg.node_count)
                dst = self.rng_traffic.randrange(cfg.node_count)
                if src == dst or (src, dst) in seen:
                    continue
                seen.add((src, dst))
                pairs.append((src, dst))
        return [_Flow(index=i, src=s, dst=d) for i, (s, d) in enumerate(pairs)]

    def _node_logger(self, node: int):
        # MetricsCollector.observe folds no kind a node logs, so without a
        # kept log a node's records go nowhere
        if not self.keep_log:
            return protocol._noop_log

        def log(kind, **details):
            self._emit(self.now, node, kind, **details)
        return log

    def _emit(self, time, node, kind, **details):
        self.collector.observe(kind, details)
        if self.keep_log:
            self.records.append(Record(time=time, node=node, kind=kind,
                                       details=details))

    def _push(self, time, handler, *args):
        """Schedule handler(*args, time); (time, ordinal) is unique, so the
        handler is never compared."""
        heapq.heappush(self._heap, (time, self._ordinal, handler, args))
        self._ordinal += 1

    # -- run --------------------------------------------------------------

    def run(self) -> MetricsReport:
        cfg = self.config
        self._push(cfg.mobility_tick, self._mobility_tick)
        interval = 1.0 / cfg.flow_rate
        for f in self.flows:
            self._push(self.rng_traffic.uniform(0.0, interval),
                       self._flow_tick, f)
        for i, attacker in sorted(self.attackers.items()):
            if attacker.kind == CONTROL_FLOOD:
                self._push(self.rng_traffic.uniform(0.0, 1.0 / cfg.flood_rate),
                           self._flood_tick, i)

        while self._heap:
            time, _, handler, args = heapq.heappop(self._heap)
            if time > cfg.sim_time:
                break
            self.now = time
            handler(*args, time)

        self._finalize()
        return self.collector.report()

    def _mobility_tick(self, now: float):
        # called through the module global, which the traced benchmark patches
        step_mobility(self.mobility, self.config.mobility_tick,
                      self.rng_mobility)
        self._push(now + self.config.mobility_tick, self._mobility_tick)

    # -- traffic ----------------------------------------------------------

    def _flow_tick(self, flow: _Flow, now: float):
        cfg = self.config
        packet = DataPacket(flow_id=flow.index, seq=flow.next_seq,
                            source_id=flow.src, dest_id=flow.dst,
                            payload_size=cfg.packet_size, route=[],
                            created_at=now)
        flow.next_seq += 1
        self.collector.data_sent += 1
        if self.keep_log:
            self.records.append(Record(now, flow.src, "data-sent", {
                "flow": flow.index, "seq": packet.seq, "dst": flow.dst}))
        self._originate(flow.src, packet, now)
        self._push(now + 1.0 / cfg.flow_rate, self._flow_tick, flow)

    def _originate(self, src: int, packet: DataPacket, now: float):
        node = self.nodes[src]
        dest = packet.dest_id
        if dest in node.routes:
            # a valid route always has an empty buffer (every accepted route
            # flushes it at once), so the packet goes out alone
            self._source_route(node, packet, now)
            return
        self.buffers[src].setdefault(dest, []).append(packet)
        if dest not in node.pending:
            self._request(src, node.initiate_route_discovery(
                dest, now, self.rng_protocol), now)

    def _request(self, node_id: int, rreq: Rreq, now: float):
        """Send node_id's own request and wake its timer when it expires."""
        self._broadcast(node_id, rreq, now)
        self._push(now + self.config.rreq_timeout, self._timer, node_id)

    def _flood_tick(self, node_id: int, now: float):
        attacker = self.attackers[node_id]
        dest = attacker.rng.randrange(self.config.node_count - 1)
        if dest >= node_id:
            dest += 1
        rreq = self.nodes[node_id].new_rreq(dest, attacker.rng)
        self._broadcast(node_id, rreq, now)
        self._push(now + 1.0 / self.config.flood_rate, self._flood_tick,
                   node_id)

    # -- radio ------------------------------------------------------------

    def _send(self, sender: int, to, message, now: float):
        """Put message on the air at now with one heap push: after airtime
        and processing delay, a data packet's one receiver to gets the event
        _hop, a control message's receivers to one _transmission. Every
        receiver is in range now: a broadcast names the sender's row, a data
        packet goes to a hop that forward_data found in range, and a control
        unicast passed in_range. The event keeps the neighbour rows current
        now, so the arrival knows whether any node moved since. Airtime is
        the size on the channel: a data packet's payload_size, which is what
        wire_size gives for it, and wire_size of a control message."""
        if type(message) is DataPacket:
            event, size = self._hop, message.payload_size
        else:
            event, size = self._transmission, wire_size(message)
            self._emit(self.now, sender, "control-send",
                       msg=_MSG_KIND[type(message)],
                       src=message.source_id, dst=message.dest_id)
        delay = self.config.processing_delay
        attacker = self.attackers.get(sender)
        if attacker is not None:
            delay = attacker.processing_delay(delay)
        heapq.heappush(self._heap, (
            now + size * 8.0 / self.config.bandwidth + delay,
            self._ordinal, event, (sender, to, message,
                                   self.mobility._nbr_cache)))
        self._ordinal += 1

    def _broadcast(self, sender: int, message, now: float):
        self._send(sender, self.mobility.neighbors(sender), message, now)

    def _unicast(self, sender: int, receiver: int, message, now: float):
        if not self.mobility.in_range(sender, receiver):
            self._emit(now, sender, "control-lost",
                       msg=_MSG_KIND[type(message)])
            return
        self._send(sender, (receiver,), message, now)

    # -- event handling ---------------------------------------------------

    def _transmission(self, sender: int, receivers, message, rows,
                      now: float):
        """Hand one control transmission to each receiver in turn. A
        receiver in range whose record shows a valid request to be a
        duplicate drops it here, without a handler call: _admit would drop
        it and do nothing else, and an attacker's shim would pass that drop
        through unchanged. Only a replay attacker still gets every copy,
        since its shim captures what it is handed."""
        valid = wellformed(message)
        # positions change only where the rows are dropped, so while the
        # send's rows are current every receiver is still in range
        still = rows is not None and rows is self.mobility._nbr_cache
        request = None
        if valid and type(message) is Rreq:    # the record it would leave
            source = message.source_id
            index, secret = message.verifier
            request = (self.chains.get(source), index, message.request_id,
                       secret)
        nodes, replayers = self.nodes, self._replayers
        duplicates = 0
        for receiver in receivers:
            # tested at the receiver's own turn, against the record its
            # handler would test, which no other handler changes; an older
            # request of the same chain has a higher index. The range is
            # tested last and only after a move, so a fresh request never
            # pays for it; _arrival logs a copy out of range lost
            if (request is not None
                    and ((latest := nodes[receiver].latest.get(source))
                         == request
                         or latest is not None and latest[0] is request[0]
                         and latest[1] < request[1])
                    and receiver not in replayers
                    and (still or self.mobility.in_range(sender, receiver))):
                duplicates += 1
                if self.keep_log:
                    self.records.append(Record(
                        time=now, node=receiver, kind="drop",
                        details={"msg": "rreq",
                                 "reason": protocol.DUPLICATE}))
                continue
            self._arrival(sender, receiver, message, valid, now, still)
        if duplicates:
            self.collector.count_drops(protocol.DUPLICATE, duplicates)

    def _arrival(self, sender: int, receiver: int, message, valid: bool,
                 now: float, still: bool = False):
        """Hand one copy of a control message to its receiver's handler,
        whose result is settled here. valid is the transmission's verdict on
        it, and still says that no node has moved since it was sent, so the
        range test is skipped."""
        kind = type(message)
        if not (still or self.mobility.in_range(sender, receiver)):
            self._emit(now, receiver, "control-lost", msg=_MSG_KIND[kind])
            return
        node = self.nodes[receiver]
        attacker = self.attackers.get(receiver)
        if attacker is not None:
            for inject_at, copy_msg in attacker.capture(message, now):
                self._push(inject_at, self._broadcast, receiver, copy_msg)

        before = node.hop_tag_checks
        before_dest = node.hop_tag_checks_as_dest
        if not valid:
            result = protocol.DROPPED[protocol.MALFORMED]
        elif kind is Rreq:
            if receiver == message.dest_id:
                result = node.handle_rreq_at_destination(message, sender, now)
            else:
                result = node.handle_rreq(message, sender, now)
        else:   # an Rrep, the only other kind on the air
            if receiver == message.source_id:
                result = node.handle_rrep_at_source(message, sender, now)
            else:
                result = node.handle_rrep(message, sender, now)

        if node.hop_tag_checks != before:
            # a destination's checks move hop_tag_checks_as_dest as well
            role = ("dest" if node.hop_tag_checks_as_dest != before_dest
                    else "path")
            self._emit(now, receiver, "hop-tag-verify",
                       n=node.hop_tag_checks - before, role=role)

        if attacker is not None:
            result = attacker.transform(result)
        if result.drop is not None:
            self._emit(now, receiver, "drop", msg=_MSG_KIND[kind],
                       reason=result.drop)
            return
        # charged tag checks delay whatever the node sends in response
        t_eff = now + result.charged * self.config.tag_verify_cost
        if result.send is None:
            # the source accepted a route whose first hop it just found in
            # range: every packet buffered for it goes out
            for packet in self.buffers[receiver].pop(message.dest_id, []):
                self._source_route(node, packet, t_eff)
        elif result.to is None:
            self._broadcast(receiver, result.send, t_eff)
        else:
            self._unicast(receiver, result.to, result.send, t_eff)

    def _source_route(self, node: NodeState, packet: DataPacket, now: float):
        """Send a packet from its source along the node's valid route."""
        packet.route = list(node.routes[packet.dest_id])
        self._hop(None, node.id, packet, None, now)

    def _hop(self, prev_hop: int | None, node_id: int, packet: DataPacket,
             rows, now: float):
        """The data arrival: settle packet at node_id from prev_hop, lost if
        node_id left range since the rows went stale. The source calls it
        with prev_hop None and no rows; forward_data drops its broken route."""
        if ((rows is None or rows is not self.mobility._nbr_cache)
                and prev_hop is not None
                and not self.mobility.in_range(prev_hop, node_id)):
            self._emit(now, node_id, "data-lost", flow=packet.flow_id,
                       seq=packet.seq)
            return
        node = self.nodes[node_id]
        hop = node.forward_data(packet, prev_hop, now)
        if hop is None:
            delay = now - packet.created_at
            self.collector.data_delivered += 1
            self.collector.delay_sum += delay
            if self.keep_log:
                self.records.append(Record(now, node_id, "data-delivered", {
                    "flow": packet.flow_id, "seq": packet.seq, "delay": delay}))
        elif type(hop) is str:
            self._emit(now, node_id, "data-dropped", flow=packet.flow_id,
                       seq=packet.seq, reason=hop)
            if hop == protocol.LINK_BREAK and packet.source_id != node_id:
                self.nodes[packet.source_id].invalidate_route(packet.dest_id)
        else:
            attacker = self.attackers.get(node_id)
            if attacker is not None and attacker.drops_data(packet):
                self._emit(now, node_id, "data-dropped", flow=packet.flow_id,
                           seq=packet.seq, reason=attacker.kind)
            else:
                self._send(node_id, hop, packet, now)

    def _timer(self, node_id: int, now: float):
        """Retry or give up each timed-out request of node_id; giving up
        drops the packets buffered for it. Every request sent, by _originate
        or by a retry here, pushes its own wake-up for its expiry in
        _request, so no other wake-up is needed."""
        for dest, rreq in self.nodes[node_id].on_timer(now, self.rng_protocol):
            if rreq is not None:
                self._request(node_id, rreq, now)
                continue
            for packet in self.buffers[node_id].pop(dest, []):
                self._emit(now, node_id, "data-dropped", flow=packet.flow_id,
                           seq=packet.seq, reason="no-route")

    def _finalize(self):
        end = self.config.sim_time
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            for neighbor, cc in sorted(node.credits.items()):
                self._emit(end, node_id, "ntt-final", neighbor=neighbor, cc=cc)
            self._emit(end, node_id, "verify-final",
                       hop_tag_checks=node.hop_tag_checks,
                       at_dest=node.hop_tag_checks_as_dest)
        self._emit(end, -1, "run-end")


def run(config: ScenarioConfig, keep_log: bool = False):
    """Execute one scenario; returns (MetricsReport, records-or-None)."""
    sim = Simulation(config, keep_log=keep_log)
    report = sim.run()
    return report, (sim.records if keep_log else None)
