"""Key chains, one-way verification tokens, and keyed authentication tags.

All primitives produce 16-byte outputs. The one-way function is BLAKE2s
truncated to 128 bits with a personalization label, so the chain-step
function and the public-verifier function are distinct. Secret i+1 is the
chain step of secret i, and a chain reveals from its last index down
(Lamport, CACM 1981), so a revealed secret gives away only secrets already
spent, never the one its chain reveals next.

Chain elements are hashed on first use: the first reveal hashes the chain
from its seed and keeps every secret, and a verifier is hashed from its
secret when something asks for it. Every index in range(length) stays
derivable, because a tampered request can name a verifier index that its
source never revealed, and the check must still compare against the true
verifier.
"""

import hashlib
import hmac
from collections.abc import Sequence

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


class ChainElements(Sequence):
    """A read-only sequence of ``length`` chain elements; element i is
    ``element(i)``, which derives it on first use."""

    def __init__(self, length: int, element):
        self._length = length
        self._element = element

    def __len__(self):
        return self._length

    def __getitem__(self, index):
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("chain index out of range")
        return self._element(index)


class KeyChain:
    """A source's ordered secret list with its hashed public verifier list.

    ``secrets`` and ``publics`` are read-only sequences of the chain's
    length. Secrets are hash-chained from the seed in order, up to the
    highest index asked for; a verifier is hashed from its secret the first
    time it is read. Both are memoised, so the secrets memo holds the whole
    chain once the first secret is revealed."""

    def __init__(self, owner: int, seed: bytes, length: int):
        self.owner = owner
        self.next_index = 0
        self._hashed = [seed]            # the seed, then secrets 0, 1, ...
        self._publics: dict[int, bytes] = {}
        self.secrets = ChainElements(length, self._secret)
        self.publics = ChainElements(length, self._public)

    def _secret(self, index: int) -> bytes:
        hashed = self._hashed
        while len(hashed) <= index + 1:
            hashed.append(owf(b"chain", hashed[-1]))
        return hashed[index + 1]

    def _public(self, index: int) -> bytes:
        public = self._publics.get(index)
        if public is None:
            public = self._publics[index] = owf(b"public", self._secret(index))
        return public

    def remaining(self) -> int:
        return len(self.secrets) - self.next_index


def generate_keychain(seed: bytes, n: int, owner: int = 0) -> KeyChain:
    """An n-element chain: secrets are hash-chained from the seed,
    publics are one-way images of each secret under a separate label.
    Nothing is hashed until an element is read."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    if len(seed) != SECRET_LEN:
        raise ValueError("seed must be 16 bytes")
    return KeyChain(owner, seed, n)


def reveal_next(chain: KeyChain) -> tuple[int, bytes]:
    """Consume and return the unrevealed (index, secret) of highest index."""
    if chain.next_index >= len(chain.secrets):
        raise ChainExhausted(f"chain of node {chain.owner} exhausted")
    i = len(chain.secrets) - 1 - chain.next_index
    chain.next_index += 1
    return i, chain.secrets[i]


def verify_reveal(publics: Sequence[bytes], index: int, secret: bytes) -> bool:
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
