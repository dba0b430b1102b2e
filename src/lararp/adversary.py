"""Attacker behaviors layered over an otherwise honest node.

Attackers are insiders: they hold valid shared keys and key chains, so
their misbehavior is only observable through the protocol's defenses.
They never crash a run. The attack settings are the fields of
AttackConfig; an Attacker reads them from the scenario's config, which
ScenarioConfig.validate has already checked.
"""

import copy
from dataclasses import dataclass

from .messages import DataPacket
from .protocol import HandlerResult

BLACK_HOLE = "blackhole"
GRAY_HOLE = "grayhole"
TAMPER = "tamper"
REPLAY = "replay"
RUSHING = "rushing"
CONTROL_FLOOD = "controlflood"

KINDS = (BLACK_HOLE, GRAY_HOLE, TAMPER, REPLAY, RUSHING, CONTROL_FLOOD)

# message fields mutate_field can corrupt
TAMPER_FIELDS = ("source_id", "dest_id", "request_id", "source_tag",
                 "request_id_tag", "verifier_index", "verifier_secret",
                 "node_list", "route", "hop_tags", "dest_tags",
                 "reverse_hop_tags")


# control messages a replay attacker captures for re-injection, at most
REPLAY_BUFFER = 8


@dataclass
class AttackConfig:
    """The attack settings; ScenarioConfig inherits them as scenario keys,
    and its validate is their one check."""
    attacker_kind: str = BLACK_HOLE    # one of KINDS
    grayhole_drop_prob: float = 0.5    # gray hole selectivity
    tamper_field: str = "node_list"    # one of TAMPER_FIELDS
    replay_delay: float = 0.5          # seconds before re-injection
    flood_rate: float = 2.0            # spurious RREQs per second


def mutate_field(message, fieldname: str, rng):
    """Corrupt one field in place without recomputing any tag."""

    def flip(data: bytes) -> bytes:
        bit = rng.randrange(len(data) * 8)
        out = bytearray(data)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)

    if fieldname in ("source_id", "dest_id"):
        setattr(message, fieldname, getattr(message, fieldname) + 1)
    elif fieldname in ("request_id", "source_tag", "request_id_tag"):
        setattr(message, fieldname, flip(getattr(message, fieldname)))
    elif fieldname == "verifier_index":
        idx, secret = message.verifier
        message.verifier = (idx + 1, secret)
    elif fieldname == "verifier_secret":
        idx, secret = message.verifier
        message.verifier = (idx, flip(secret))
    elif fieldname in ("node_list", "route"):
        ids = getattr(message, fieldname)
        if ids:
            ids[rng.randrange(len(ids))] = 0x7FFF0000 + rng.randrange(1 << 15)
    elif fieldname in ("hop_tags", "dest_tags", "reverse_hop_tags"):
        tags = getattr(message, fieldname)
        if tags:
            i = rng.randrange(len(tags))
            tags[i] = flip(tags[i])
    else:
        raise ValueError(f"unknown tamper target {fieldname!r}")
    return message


class Attacker:
    """Wraps one node; the simulator routes events through this shim."""

    def __init__(self, config: AttackConfig, node, rng):
        self.config = config
        self.kind = config.attacker_kind
        self.node = node
        self.rng = rng
        self._replayed: list = []   # messages captured for re-injection

    def processing_delay(self, default: float) -> float:
        if self.kind == RUSHING:
            return 0.0
        return default

    def capture(self, message, now: float):
        """Replay attacker: remember control messages for later re-injection.

        The radio hands this shim every control message that reaches the
        attacker's handler, and no data packet. Returns a list of
        (inject_at, message_copy) pairs; every other kind keeps nothing and
        returns []. So only a replay attacker needs each copy it is sent:
        the radio drops a request any other receiver has seen without
        calling this shim.
        """
        if self.kind != REPLAY or len(self._replayed) >= REPLAY_BUFFER:
            return []
        stored = copy.deepcopy(message)
        self._replayed.append(stored)
        return [(now + self.config.replay_delay, copy.deepcopy(stored))]

    def transform(self, result: HandlerResult) -> HandlerResult:
        """Apply the attack to an honest control handler's result and return
        the result to settle: a tamperer corrupts the message it sends
        before it goes on the air. A result that sends nothing, such as the
        duplicate drop DROPPED[DUPLICATE], comes back as it is, with no
        draw from rng, for every kind; the radio relies on that when it
        drops a seen request at an attacker without calling the shim.
        """
        if self.kind == TAMPER and result.send is not None:
            try:
                mutate_field(result.send, self.config.tamper_field, self.rng)
            except (ValueError, AttributeError):
                pass   # field not present on this message type
        return result

    def drops_data(self, packet: DataPacket) -> bool:
        """Whether this node drops a data packet it would forward: a black
        hole every one, a gray hole each with grayhole_drop_prob, drawn once
        per packet. Its own packets are never dropped, with no draw."""
        if self.node.id == packet.source_id:
            return False
        if self.kind == BLACK_HOLE:
            return True
        return (self.kind == GRAY_HOLE
                and self.rng.random() < self.config.grayhole_drop_prob)
