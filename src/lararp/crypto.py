"""Key chains, one-way verification tokens, and keyed authentication tags.

All primitives produce 16-byte outputs. The one-way function is BLAKE2s
truncated to 128 bits with a personalization label. Secret i+1 is the
chain step of secret i, and the step of the last secret is the chain's
anchor. A chain reveals from its last index down (Lamport, CACM 1981), so a
revealed secret gives away only secrets already spent, never the one its
chain reveals next.

A revealed secret is checked by hashing it forward, as in TESLA and
Ariadne: to an element of the same chain at a higher index that the
checker already holds, or else to the anchor. A chain is hashed from its
seed in full, once, the first time any element or the anchor is read.
"""

import hashlib
import hmac
from functools import cached_property

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


class KeyChain:
    """A source's chain of ``length`` secrets, hash-chained from its seed.

    ``elements`` lists secrets 0 … length−1 and then the anchor, the chain
    step of the last secret; it is hashed on first read."""

    def __init__(self, owner: int, seed: bytes, length: int):
        self.owner = owner
        self.seed = seed
        self.length = length
        self.next_index = 0

    @cached_property
    def elements(self) -> list[bytes]:
        element, elements = self.seed, []
        for _ in range(self.length + 1):
            element = owf(b"chain", element)
            elements.append(element)
        return elements

    @property
    def anchor(self) -> bytes:
        return self.elements[self.length]

    def remaining(self) -> int:
        return self.length - self.next_index


def generate_keychain(seed: bytes, n: int, owner: int = 0) -> KeyChain:
    """An n-element chain hash-chained from the seed; nothing is hashed
    until an element is read. The benchmark's traced run times the key
    chains' set-up through this entry point, so the simulator builds every
    chain with it."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    if len(seed) != SECRET_LEN:
        raise ValueError("seed must be 16 bytes")
    return KeyChain(owner, seed, n)


def reveal_next(chain: KeyChain) -> tuple[int, bytes]:
    """Consume and return the unrevealed (index, secret) of highest index."""
    if chain.next_index >= chain.length:
        raise ChainExhausted(f"chain of node {chain.owner} exhausted")
    i = chain.length - 1 - chain.next_index
    chain.next_index += 1
    return i, chain.elements[i]


def verify_reveal(chain: KeyChain, index: int, secret: bytes,
                  held: tuple[int, bytes] | None = None) -> bool:
    """Check that secret is element index of chain by hashing it forward to
    held, an (index, secret) of the same chain at a higher index that the
    caller has verified, or else to (chain.length, chain.anchor).

    An index outside [0, held index) is a forgery, not a bug: returns False.
    """
    top, target = held if held is not None else (chain.length, chain.anchor)
    if not 0 <= index < top:
        return False
    for _ in range(top - index):
        secret = owf(b"chain", secret)
    return hmac.compare_digest(secret, target)


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
        """The table's one constructor in the simulator: the benchmark's
        traced run times the pairwise keys' set-up through this entry
        point."""
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
