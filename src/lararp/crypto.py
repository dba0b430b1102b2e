"""Key chains, one-way verification tokens, and keyed authentication tags.

All primitives produce 16-byte outputs. The one-way function is BLAKE2s
truncated to 128 bits with a personalization label, so the chain-step
function and the public-verifier function are distinct: revealing a chain
secret never discloses the next verifier's preimage.
"""

import hashlib
import hmac
from dataclasses import dataclass

SECRET_LEN = 16
TAG_LEN = 16


class ChainExhausted(Exception):
    """Raised when a key chain has no unrevealed secrets left."""


def owf(label: bytes, data: bytes) -> bytes:
    """Domain-separated one-way function; 16-byte output."""
    if len(label) > 8:
        raise ValueError("label too long for personalization")
    return hashlib.blake2s(data, digest_size=SECRET_LEN,
                           person=label.ljust(8, b"\x00")).digest()


@dataclass
class KeyChain:
    """A source's ordered secret list with its hashed public verifier list."""
    owner: int
    secrets: list[bytes]
    publics: list[bytes]
    next_index: int = 0

    def remaining(self) -> int:
        return len(self.secrets) - self.next_index


def generate_keychain(seed: bytes, n: int, owner: int = 0) -> KeyChain:
    """Build an n-element chain: secrets are hash-chained from the seed,
    publics are one-way images of each secret under a separate label."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    if len(seed) != SECRET_LEN:
        raise ValueError("seed must be 16 bytes")
    secrets = [owf(b"chain", seed)]
    for _ in range(n - 1):
        secrets.append(owf(b"chain", secrets[-1]))
    publics = [owf(b"public", s) for s in secrets]
    return KeyChain(owner=owner, secrets=secrets, publics=publics)


def reveal_next(chain: KeyChain) -> tuple[int, bytes]:
    """Consume and return the next unrevealed (index, secret) pair."""
    if chain.next_index >= len(chain.secrets):
        raise ChainExhausted(f"chain of node {chain.owner} exhausted")
    i = chain.next_index
    chain.next_index += 1
    return i, chain.secrets[i]


def verify_reveal(publics: list[bytes], index: int, secret: bytes) -> bool:
    """Check a revealed secret against the public verifier list.

    Out-of-range indices are a forgery, not a bug: returns False.
    """
    if not publics:
        raise ValueError("empty public verifier list")
    if not 0 <= index < len(publics):
        return False
    return hmac.compare_digest(owf(b"public", secret), publics[index])


def compute_tag(key: bytes, message: bytes) -> bytes:
    """Keyed 16-byte authentication tag over canonical message bytes."""
    if not message:
        raise ValueError("empty message")
    return hashlib.blake2s(message, digest_size=TAG_LEN, key=key,
                           person=b"authtag\x00").digest()


def verify_tag(key: bytes, message: bytes, tag: bytes) -> bool:
    if not message:
        return False
    return hmac.compare_digest(compute_tag(key, message), tag)


class SharedKeyTable:
    """Pairwise symmetric keys for every pair of a fixed node set, each
    derived from the master secret on first use.

    Lookup is symmetric: key(a, b) == key(b, a). A self-pair or an id
    outside the set raises KeyError.
    """

    def __init__(self, master: bytes, node_ids):
        self._master = master
        self._ids = frozenset(node_ids)
        self._keys: dict[tuple[int, int], bytes] = {}

    @classmethod
    def derive(cls, master: bytes, node_ids) -> "SharedKeyTable":
        return cls(master, node_ids)

    def key(self, a: int, b: int) -> bytes:
        pair = (a, b) if a < b else (b, a)
        key = self._keys.get(pair)
        if key is None:
            if a == b or a not in self._ids or b not in self._ids:
                raise KeyError(f"no key for pair {pair}")
            material = (self._master + pair[0].to_bytes(4, "big")
                        + pair[1].to_bytes(4, "big"))
            key = self._keys[pair] = owf(b"pair", material)
        return key

    def __len__(self):
        n = len(self._ids)
        return n * (n - 1) // 2
