"""Deterministic discrete-event engine: random-waypoint mobility, unit-disk
radio with bandwidth-delay timing, CBR traffic, and the event loop that
drives protocol handlers and attacker shims.

An event is a handler call: a heap entry is ``(time, ordinal, handler,
args)``, and the loop calls ``handler(*args, time)``. The ordinal breaks
time ties in push order. One transmission is one event: a broadcast or
unicast pushes a single ``_transmission`` naming its receivers (the
sender's neighbour row at send time, or the one unicast receiver), which
hands the message to each receiver in turn, in ascending id order.

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
from .adversary import (Attacker, AttackerProfile, CONTROL_FLOOD, KINDS,
                        TAMPER_FIELDS)
from .eventlog import Record
from .messages import DataPacket, Rrep, Rreq, wire_size
from .metrics import MetricsCollector, MetricsReport
from .protocol import (AcceptedRoute, Broadcast, Deliver, HandlerResult,
                       LinkBreak, NodeState, ProtocolConfig, Unicast,
                       Unroutable)

PROTOCOLS = (protocol.LARARP, protocol.BASELINE)


class ScenarioError(ValueError):
    pass


@dataclass
class ScenarioConfig:
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
    attacker_kind: str = "blackhole"
    grayhole_drop_prob: float = 0.5
    tamper_field: str = "node_list"
    replay_delay: float = 0.5
    flood_rate: float = 2.0
    protocol: str = "lararp"
    seed: int = 1
    credit_threshold: int = 0
    initial_credit: int = 0
    punish_delta: int = 2
    rreq_timeout: float = 1.0
    rreq_retries: int = 2
    full_verification: bool = False
    credit_data_forwarding: bool = True
    chain_length: int = 256
    processing_delay: float = 0.001
    tag_verify_cost: float = 0.002
    mobility_tick: float = 0.1
    flows: list | None = None        # explicit (src, dst) pairs; API-only override
    positions: list | None = None    # explicit (x, y) placement; API-only override

    def validate(self):
        if self.node_count < 2:
            raise ScenarioError("node_count must be at least 2")
        for name in ("area_width", "area_height", "radio_range", "bandwidth",
                     "sim_time", "flow_rate", "mobility_tick"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"{name} must be positive")
        for name in ("speed_min", "speed_max", "pause_time",
                     "processing_delay", "tag_verify_cost", "rreq_timeout"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"{name} must be nonnegative")
        if self.packet_size <= 0:
            raise ScenarioError("packet_size must be positive")
        if self.speed_min > self.speed_max:
            raise ScenarioError("speed_min exceeds speed_max")
        if not 0 <= self.attacker_count < self.node_count:
            raise ScenarioError("attacker_count must be below node_count")
        if self.attacker_kind not in KINDS:
            raise ScenarioError(f"unknown attacker_kind {self.attacker_kind!r}")
        if self.tamper_field not in TAMPER_FIELDS:
            raise ScenarioError(f"unknown tamper_field {self.tamper_field!r}")
        if self.protocol not in PROTOCOLS:
            raise ScenarioError(f"unknown protocol {self.protocol!r}")
        if self.flow_count < 1:
            raise ScenarioError("flow_count must be at least 1")
        if self.chain_length < 1:
            raise ScenarioError("chain_length must be at least 1")
        if self.rreq_retries < 0:
            raise ScenarioError("rreq_retries must be nonnegative")

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(**{f.name: getattr(self, f.name)
                                 for f in fields(ProtocolConfig)})


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

    Neighbour rows are computed lazily, one per queried node, against numpy
    copies of the positions taken once per change, and are kept until
    step_mobility moves a node. ``_nbr_cache = None`` marks them stale."""

    def __init__(self, config: ScenarioConfig, rng: random.Random):
        self.config = config
        self.now = 0.0
        n = config.node_count
        if config.positions is not None:
            if len(config.positions) != n:
                raise ScenarioError("positions must cover every node")
            self.x = [float(p[0]) for p in config.positions]
            self.y = [float(p[1]) for p in config.positions]
        else:
            self.x = [rng.uniform(0.0, config.area_width) for _ in range(n)]
            self.y = [rng.uniform(0.0, config.area_height) for _ in range(n)]
        self.waypoint: list[tuple[float, float] | None] = [None] * n
        self.speed = [0.0] * n
        self.paused_until = [config.pause_time] * n
        self._nbr_cache: dict[int, list[int]] | None = None

    def in_range(self, a: int, b: int) -> bool:
        """Whether a and b are within radio range; rounds as the numpy
        neighbour rows do, so it agrees with neighbors() at the boundary."""
        dx, dy = self.x[a] - self.x[b], self.y[a] - self.y[b]
        return dx * dx + dy * dy <= self.config.radio_range ** 2

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
                      <= self.config.radio_range ** 2)
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
        publics: dict[int, list[bytes]] = {}
        pconfig = config.protocol_config()
        self.nodes: dict[int, NodeState] = {}
        for i in node_ids:
            chain = crypto.generate_keychain(self.rng_setup.randbytes(16),
                                             config.chain_length, owner=i)
            publics[i] = chain.publics
            self.nodes[i] = NodeState(
                i, chain, shared_keys, publics, pconfig,
                neighbors_fn=self.mobility.neighbors,
                log=self._node_logger(i), mode=config.protocol)

        self.attackers: dict[int, Attacker] = {}
        profile = AttackerProfile(kind=config.attacker_kind,
                                  drop_prob=config.grayhole_drop_prob,
                                  tamper_field=config.tamper_field,
                                  replay_delay=config.replay_delay,
                                  flood_rate=config.flood_rate)
        for i in attacker_ids:
            self.attackers[i] = Attacker(
                profile, self.nodes[i], random.Random(f"{seed}:attack:{i}"))

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
            if attacker.profile.kind == CONTROL_FLOOD:
                self._push(self.rng_traffic.uniform(
                    0.0, 1.0 / attacker.profile.flood_rate),
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
        self._emit(now, flow.src, "data-sent", flow=flow.index,
                   seq=packet.seq, dst=flow.dst)
        self._originate(flow.src, packet, now)
        self._push(now + 1.0 / cfg.flow_rate, self._flow_tick, flow)

    def _originate(self, src: int, packet: DataPacket, now: float):
        # a valid route always has an empty buffer (every accepted route
        # flushes it at once), so the flush sends just this packet
        node = self.nodes[src]
        dest = packet.dest_id
        self.buffers[src].setdefault(dest, []).append(packet)
        if node.has_route(dest):
            self._flush_buffer(src, dest, now)
        elif dest not in node.pending:
            rreq = node.initiate_route_discovery(dest, now, self.rng_protocol)
            if rreq is not None:
                self._broadcast(src, rreq, now)
                self._push(now + node.config.rreq_timeout, self._timer, src)

    def _flood_tick(self, node_id: int, now: float):
        attacker = self.attackers[node_id]
        dest = attacker.rng.randrange(self.config.node_count - 1)
        if dest >= node_id:
            dest += 1
        rreq = self.nodes[node_id].new_rreq(dest, attacker.rng)
        self._broadcast(node_id, rreq, now)
        self._push(now + 1.0 / attacker.profile.flood_rate, self._flood_tick,
                   node_id)

    # -- radio ------------------------------------------------------------

    def _send(self, sender: int, receivers, message, now: float):
        """Put message on the air at now: one event reaches every receiver
        after serialization plus the sender's processing delay."""
        if not isinstance(message, DataPacket):
            self._emit(self.now, sender, "control-send",
                       msg=type(message).__name__.lower(),
                       src=message.source_id, dst=message.dest_id)
        delay = self.config.processing_delay
        attacker = self.attackers.get(sender)
        if attacker is not None:
            delay = attacker.processing_delay(delay)
        self._push(now + wire_size(message) * 8.0 / self.config.bandwidth
                   + delay, self._transmission, sender, receivers, message)

    def _broadcast(self, sender: int, message, now: float):
        self._send(sender, self.mobility.neighbors(sender), message, now)

    def _unicast(self, sender: int, receiver: int, message, now: float):
        if (not isinstance(message, DataPacket)
                and not self.mobility.in_range(sender, receiver)):
            self._emit(self.now, sender, "control-lost",
                       msg=type(message).__name__.lower())
            return
        self._send(sender, (receiver,), message, now)

    # -- event handling ---------------------------------------------------

    def _transmission(self, sender: int, receivers, message, now: float):
        for receiver in receivers:
            self._arrival(sender, receiver, message, now)

    def _arrival(self, sender: int, receiver: int, message, now: float):
        if not self.mobility.in_range(sender, receiver):
            if isinstance(message, DataPacket):
                self._emit(now, receiver, "data-lost", flow=message.flow_id,
                           seq=message.seq)
            else:
                self._emit(now, receiver, "control-lost",
                           msg=type(message).__name__.lower())
            return
        node = self.nodes[receiver]
        attacker = self.attackers.get(receiver)
        if attacker is not None:
            for inject_at, copy_msg in attacker.capture(message, now):
                self._push(inject_at, self._broadcast, receiver, copy_msg)

        before_total = node.hop_tag_checks
        before_dest = node.hop_tag_checks_as_dest
        if isinstance(message, Rreq):
            if receiver == message.dest_id:
                result = node.handle_rreq_at_destination(message, sender, now)
            else:
                result = node.handle_rreq(message, sender, now)
        elif isinstance(message, Rrep):
            if receiver == message.source_id:
                result = node.handle_rrep_at_source(message, sender, now)
            else:
                result = node.handle_rrep(message, sender, now)
        elif isinstance(message, DataPacket):
            result = node.forward_data(message, sender, now)
        else:
            return

        dest_delta = node.hop_tag_checks_as_dest - before_dest
        other_delta = node.hop_tag_checks - before_total - dest_delta
        if dest_delta:
            self._emit(now, receiver, "hop-tag-verify", n=dest_delta,
                       role="dest")
        if other_delta:
            self._emit(now, receiver, "hop-tag-verify", n=other_delta,
                       role="path")

        if attacker is not None:
            result, dropped = attacker.transform(message, result)
            for pkt in dropped:
                self._emit(now, receiver, "data-dropped", flow=pkt.flow_id,
                           seq=pkt.seq, reason=attacker.profile.kind)

        if result.drop is not None:
            if isinstance(message, DataPacket):
                if result.drop != protocol.LINK_BREAK:
                    # link-break drops are logged via the LinkBreak action
                    self._emit(now, receiver, "data-dropped",
                               flow=message.flow_id, seq=message.seq,
                               reason=result.drop)
            else:
                self._emit(now, receiver, "drop",
                           msg=type(message).__name__.lower(),
                           reason=result.drop)
        if result.actions:
            self._apply(receiver, result, now)

    def _apply(self, node_id: int, result: HandlerResult, now: float):
        # charged tag checks delay whatever the node sends in response
        t_eff = now + result.charged * self.config.tag_verify_cost
        for action in result.actions:
            if isinstance(action, Broadcast):
                self._broadcast(node_id, action.message, t_eff)
            elif isinstance(action, Unicast):
                self._unicast(node_id, action.next_hop, action.message, t_eff)
            elif isinstance(action, Deliver):
                pkt = action.packet
                self._emit(now, node_id, "data-delivered", flow=pkt.flow_id,
                           seq=pkt.seq, delay=now - pkt.created_at)
            elif isinstance(action, AcceptedRoute):
                self._flush_buffer(node_id, action.dest, t_eff)
            elif isinstance(action, LinkBreak):
                pkt = action.packet
                self._emit(now, node_id, "data-dropped", flow=pkt.flow_id,
                           seq=pkt.seq, reason=protocol.LINK_BREAK)
                # immediate route-invalidation notification at the source
                if pkt.source_id != node_id:
                    self.nodes[pkt.source_id].invalidate_route(action.dest)
            elif isinstance(action, Unroutable):
                self._drop_buffer(node_id, action.dest, now)

    def _flush_buffer(self, node_id: int, dest: int, now: float):
        packets = self.buffers[node_id].pop(dest, [])
        node = self.nodes[node_id]
        for packet in packets:
            if not node.has_route(dest):
                self.buffers[node_id].setdefault(dest, []).append(packet)
                continue
            packet.route = list(node.routes[dest].route)
            result = node.forward_data(packet, None, now)
            self._apply(node_id, result, now)

    def _drop_buffer(self, node_id: int, dest: int, now: float):
        for packet in self.buffers[node_id].pop(dest, []):
            self._emit(now, node_id, "data-dropped", flow=packet.flow_id,
                       seq=packet.seq, reason="no-route")

    def _timer(self, node_id: int, now: float):
        node = self.nodes[node_id]
        actions = node.on_timer(now, self.rng_protocol)
        for action in actions:
            if isinstance(action, Broadcast):
                self._broadcast(node_id, action.message, now)
                self._push(now + node.config.rreq_timeout, self._timer,
                           node_id)
            elif isinstance(action, Unroutable):
                self._drop_buffer(node_id, action.dest, now)
        if node.pending and not any(isinstance(a, Broadcast) for a in actions):
            # keep a wake-up alive for requests that have not timed out yet
            nxt = min(p.sent_at + p.timeout for p in node.pending.values())
            self._push(max(nxt, now + 1e-6), self._timer, node_id)

    def _finalize(self):
        end = self.config.sim_time
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            for neighbor, cc in node.ntt.items():
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
