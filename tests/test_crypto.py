import copy
import random

import pytest

from conftest import World
from lararp import crypto
from lararp.crypto import (ChainExhausted, SharedKeyTable, compute_tag,
                           generate_keychain, owf, reveal_next, verify_reveal,
                           verify_tag)
from lararp.simnet import MAX_CHAIN_LENGTH

SEED = b"\x01" * 16


def test_length_one_chain():
    chain = generate_keychain(SEED, 1)
    assert len(chain.secrets) == 1
    assert chain.publics[0] == owf(b"public", chain.secrets[0])


def test_zero_length_rejected():
    with pytest.raises(ValueError):
        generate_keychain(SEED, 0)


def test_chain_soundness_recompute_oracle():
    # independently rebuild the chain and check every reveal verifies
    chain = generate_keychain(SEED, 4)
    expected = [owf(b"chain", SEED)]
    for _ in range(3):
        expected.append(owf(b"chain", expected[-1]))
    assert list(chain.secrets) == expected
    for i in range(4):
        assert verify_reveal(chain.publics, i, chain.secrets[i])


def eager_chain(seed, n):
    """The chain computed in full: secret i+1 = owf(chain, secret i)."""
    secrets = [owf(b"chain", seed)]
    while len(secrets) < n:
        secrets.append(owf(b"chain", secrets[-1]))
    return secrets, [owf(b"public", s) for s in secrets]


@pytest.mark.parametrize("n", [1, 2, 7, 64, 256])
@pytest.mark.parametrize("order", ["reverse", "random"])
def test_lazy_chain_matches_eager_oracle(n, order):
    secrets, publics = eager_chain(SEED, n)
    indices = list(range(n))
    if order == "reverse":
        indices.reverse()
    else:
        random.Random(n).shuffle(indices)
    for attr, expected in (("publics", publics), ("secrets", secrets)):
        chain = generate_keychain(SEED, n)
        assert len(getattr(chain, attr)) == n
        for i in indices:
            assert getattr(chain, attr)[i] == expected[i]
            assert getattr(chain, attr)[i - n] == expected[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                getattr(chain, attr)[i]
    # a chain walked by reveals hands out the oracle's secrets from the
    # last down
    chain = generate_keychain(SEED, n)
    assert ([reveal_next(chain) for _ in range(n)]
            == list(enumerate(secrets))[::-1])


@pytest.mark.parametrize("n", [2, 7, 256])
def test_a_reveal_gives_away_nothing_ahead(n):
    # secret i+1 is the chain step of secret i; revealed from the last
    # index down, a secret's step is a spent secret, never the one its
    # chain reveals next
    chain = generate_keychain(SEED, n)
    for _ in range(n - 1):
        _, secret = reveal_next(chain)
        upcoming, _ = reveal_next(copy.deepcopy(chain))
        assert not verify_reveal(chain.publics, upcoming,
                                 owf(b"chain", secret))


def test_unrevealed_index_verifies_only_with_its_true_secret():
    # a tampered verifier_index names an unrevealed index below the revealed
    # one, which a revealed secret does not verify at
    secrets, _ = eager_chain(SEED, 16)
    chain = generate_keychain(SEED, 16)
    index, secret = reveal_next(chain)
    assert not verify_reveal(chain.publics, index - 1, secret)
    assert verify_reveal(chain.publics, 9, secrets[9])
    assert not verify_reveal(chain.publics, 9, secrets[8])
    assert chain.next_index == 1


def test_rollover_chain_matches_oracle():
    world = World.line(3, chain_length=5)
    node = world.nodes[0]
    node.keychain.next_index = len(node.keychain.secrets)   # exhausted
    seed = copy.deepcopy(world.rng).randbytes(16)
    rreq = node.new_rreq(2, world.rng)
    secrets, publics = eager_chain(seed, 5)
    assert rreq.verifier == (4, secrets[4])
    assert world.publics[0] is node.keychain.publics
    assert verify_reveal(world.publics[0], *rreq.verifier)
    assert list(world.publics[0]) == publics


def test_huge_chain_is_built_at_once(monkeypatch):
    # the longest chain a scenario may ask for: the build hashes nothing,
    # and the first reveal hashes the chain once, from the seed to its last
    # secret; later reveals and reads of secrets hash nothing more
    real_owf = crypto.owf
    calls = []

    def counting_owf(label, data):
        calls.append(label)
        return real_owf(label, data)

    monkeypatch.setattr(crypto, "owf", counting_owf)
    n = MAX_CHAIN_LENGTH
    chain = generate_keychain(SEED, n)
    assert calls == []
    assert len(chain.secrets) == len(chain.publics) == n
    assert chain.remaining() == n
    revealed = [reveal_next(chain) for _ in range(3)]
    secrets, publics = eager_chain(SEED, 3)
    assert chain.secrets[2] == secrets[2]
    assert calls == [b"chain"] * n
    assert chain.publics[1] == publics[1]
    assert all(verify_reveal(chain.publics, *r) for r in revealed)


def test_no_public_collisions_across_chains():
    seen = set()
    rng = random.Random(0)
    for _ in range(200):
        chain = generate_keychain(rng.randbytes(16), 50)
        seen.update(chain.publics)
    assert len(seen) == 200 * 50   # 10^4 entries, zero collisions


def test_reveal_order_and_exhaustion():
    chain = generate_keychain(SEED, 3)
    assert reveal_next(chain)[0] == 2
    assert reveal_next(chain)[0] == 1
    assert reveal_next(chain)[0] == 0
    with pytest.raises(ChainExhausted):
        reveal_next(chain)


def test_reveal_returns_matching_secret():
    chain = generate_keychain(SEED, 3)
    index, secret = reveal_next(chain)
    assert secret == chain.secrets[index]
    assert chain.next_index == 1


def test_verify_reveal_bit_flips():
    chain = generate_keychain(SEED, 2)
    secret = chain.secrets[1]
    for bit in range(len(secret) * 8):   # exhaustive single-bit flips
        forged = bytearray(secret)
        forged[bit // 8] ^= 1 << (bit % 8)
        assert not verify_reveal(chain.publics, 1, bytes(forged))


def test_verify_reveal_out_of_range_index():
    chain = generate_keychain(SEED, 2)
    assert not verify_reveal(chain.publics, 2, chain.secrets[0])
    assert not verify_reveal(chain.publics, -1, chain.secrets[0])


def test_verify_reveal_empty_publics():
    with pytest.raises(ValueError):
        verify_reveal([], 0, SEED)


def test_random_forgeries_never_verify():
    chain = generate_keychain(SEED, 4)
    rng = random.Random(1)
    passes = 0
    for _ in range(10_000):
        i = rng.randrange(4)
        forged = rng.randbytes(16)
        if forged != chain.secrets[i] and verify_reveal(chain.publics, i, forged):
            passes += 1
    assert passes == 0


def test_no_wrong_direction_chain_walk():
    # the verifier function differs from the chain step on sampled inputs,
    # so publics[i] never equals secrets[i+1]
    rng = random.Random(2)
    for _ in range(100):
        x = rng.randbytes(16)
        assert owf(b"public", x) != owf(b"chain", x)
    chain = generate_keychain(SEED, 8)
    for i in range(7):
        assert chain.publics[i] != chain.secrets[i + 1]


def test_tag_determinism_and_round_trip():
    key = b"\x07" * 16
    msg = b"canonical bytes"
    tag = compute_tag(key, msg)
    assert tag == compute_tag(key, msg)
    assert len(tag) == 16
    assert verify_tag(key, msg, tag)


def test_tag_rejects_empty_message():
    with pytest.raises(ValueError):
        compute_tag(b"\x07" * 16, b"")


def test_tag_message_bit_flips():
    key = b"\x07" * 16
    msg = bytes(range(64))
    tag = compute_tag(key, msg)
    for bit in range(len(msg) * 8):
        flipped = bytearray(msg)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert not verify_tag(key, bytes(flipped), tag)


def test_tag_never_verifies_under_other_key():
    rng = random.Random(3)
    passes = 0
    for _ in range(10_000):
        k1, k2 = rng.randbytes(16), rng.randbytes(16)
        if k1 == k2:
            continue
        msg = rng.randbytes(32)
        if verify_tag(k2, msg, compute_tag(k1, msg)):
            passes += 1
    assert passes == 0


def test_shared_key_table_symmetry_and_coverage():
    master = b"\x09" * 16
    table = SharedKeyTable.derive(master, range(6))
    assert len(table) == 15
    for a in range(6):
        for b in range(6):
            if a != b:
                assert table.key(a, b) == table.key(b, a)
                lo, hi = min(a, b), max(a, b)
                assert table.key(a, b) == owf(
                    b"pair", master + lo.to_bytes(4, "big")
                    + hi.to_bytes(4, "big"))
    with pytest.raises(KeyError):
        table.key(2, 2)
    for outsider in (6, -1, 0x7FFF0000):
        with pytest.raises(KeyError):
            table.key(0, outsider)
