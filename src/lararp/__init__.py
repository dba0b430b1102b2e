"""Authenticated on-demand MANET routing (LARARP): protocol library,
deterministic discrete-event simulator, adversary models, and metrics."""

from .crypto import (ChainExhausted, KeyChain, SharedKeyTable, compute_tag,
                     generate_keychain, reveal_next, verify_reveal, verify_tag)
from .messages import (DataPacket, EncodingError, Rrep, Rreq, decode, encode,
                       hop_digest)
from .protocol import NodeState, ProtocolConfig
from .adversary import AttackConfig, Attacker
from .simnet import (MobilityState, ScenarioConfig, ScenarioError, Simulation,
                     load_scenario, parse_scenario, run, step_mobility)
from .metrics import MetricsReport, fold

__version__ = "0.1.0"
