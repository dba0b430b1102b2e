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
    assert chain.length == 1
    secret = owf(b"chain", SEED)
    assert chain.elements == [secret, owf(b"chain", secret)]
    assert chain.anchor == owf(b"chain", secret)


def test_zero_length_rejected():
    with pytest.raises(ValueError):
        generate_keychain(SEED, 0)


@pytest.mark.parametrize("seed", [SEED[:-1], SEED + b"\x00", b""],
                         ids=["15-bytes", "17-bytes", "empty"])
def test_a_seed_of_the_wrong_length_is_rejected(seed):
    with pytest.raises(ValueError, match="seed must be 16 bytes"):
        generate_keychain(seed, 4)


def test_owf_rejects_a_label_past_eight_bytes():
    assert len(owf(b"12345678", SEED)) == crypto.SECRET_LEN
    with pytest.raises(ValueError, match="label too long"):
        owf(b"123456789", SEED)


def test_chain_soundness_recompute_oracle():
    # independently rebuild the chain and check every reveal verifies
    chain = generate_keychain(SEED, 4)
    expected = [owf(b"chain", SEED)]
    for _ in range(3):
        expected.append(owf(b"chain", expected[-1]))
    assert chain.elements[:4] == expected
    assert chain.anchor == owf(b"chain", expected[-1])
    for i in range(4):
        assert verify_reveal(chain, i, chain.elements[i])


def eager_chain(seed, n):
    """The chain computed in full: secret i+1 = owf(chain, secret i), and
    the anchor is the chain step of the last secret."""
    secrets = [owf(b"chain", seed)]
    while len(secrets) < n:
        secrets.append(owf(b"chain", secrets[-1]))
    return secrets, owf(b"chain", secrets[-1])


@pytest.mark.parametrize("n", [1, 2, 7, 64, 256])
@pytest.mark.parametrize("order", ["reverse", "random"])
def test_lazy_chain_matches_eager_oracle(n, order):
    secrets, anchor = eager_chain(SEED, n)
    indices = list(range(n))
    if order == "reverse":
        indices.reverse()
    else:
        random.Random(n).shuffle(indices)
    chain = generate_keychain(SEED, n)
    assert chain.length == n
    for i in indices:
        assert chain.elements[i] == secrets[i]
        assert verify_reveal(chain, i, secrets[i])
    assert chain.elements == secrets + [anchor]
    assert chain.anchor == anchor
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
        assert not verify_reveal(chain, upcoming, owf(b"chain", secret))


def flip(secret, bit):
    forged = bytearray(secret)
    forged[bit // 8] ^= 1 << (bit % 8)
    return bytes(forged)


@pytest.mark.parametrize("n", [1, 2, 7, 256])
def test_a_held_check_agrees_with_an_anchor_check(n):
    # hashed forward to any higher element of the same chain, or to the
    # anchor, a candidate for index i verifies exactly when it is secret i:
    # the true secret does, and a single-bit flip of it or a neighbouring
    # element does not. Up to 7 elements every held index and every flip is
    # checked; at 256 a sample of each keeps the walks short
    chain = generate_keychain(SEED, n)
    elements = chain.elements
    bits = range(128) if n <= 7 else range(0, 128, 9)
    for i in range(n):
        helds = range(i + 1, n) if n <= 7 else sorted(
            {i + 1, i + 2, n - 1} & set(range(i + 1, n)))
        candidates = [elements[i], elements[i + 1]]
        candidates += [elements[i - 1]] if i else []
        candidates += [flip(elements[i], bit) for bit in bits]
        for secret in candidates:
            truth = secret == elements[i]
            assert verify_reveal(chain, i, secret) == truth
            for j in helds:
                assert verify_reveal(chain, i, secret,
                                     (j, elements[j])) == truth


def test_unrevealed_index_verifies_only_with_its_true_secret():
    # a tampered verifier_index names an unrevealed index below the revealed
    # one, which a revealed secret does not verify at
    secrets, _ = eager_chain(SEED, 16)
    chain = generate_keychain(SEED, 16)
    index, secret = reveal_next(chain)
    assert not verify_reveal(chain, index - 1, secret)
    assert verify_reveal(chain, 9, secrets[9])
    assert not verify_reveal(chain, 9, secrets[8])
    assert verify_reveal(chain, 9, secrets[9], (index, secret))
    assert not verify_reveal(chain, 9, secrets[8], (index, secret))
    assert chain.next_index == 1


def test_rollover_chain_matches_oracle():
    world = World.line(3, chain_length=5)
    spent = world.chains[0]
    spent.next_index = spent.length   # exhausted
    seed = copy.deepcopy(world.rng).randbytes(16)
    rreq = world.nodes[0].new_rreq(2, world.rng)
    secrets, anchor = eager_chain(seed, 5)
    assert rreq.verifier == (4, secrets[4])
    assert world.chains[0] is not spent
    assert world.chains[0].anchor == anchor
    assert verify_reveal(world.chains[0], *rreq.verifier)


def test_huge_chain_is_built_at_once(monkeypatch):
    # the longest chain a scenario may ask for: the build hashes nothing,
    # and the first reveal hashes the chain once, from the seed to its
    # anchor; later reveals, reads of elements and the anchor, and checks
    # against a held element one step up hash nothing more than the walk
    real_owf = crypto.owf
    calls = []

    def counting_owf(label, data):
        calls.append(label)
        return real_owf(label, data)

    monkeypatch.setattr(crypto, "owf", counting_owf)
    n = MAX_CHAIN_LENGTH
    chain = generate_keychain(SEED, n)
    assert calls == []
    assert chain.length == n
    assert chain.remaining() == n
    revealed = [reveal_next(chain) for _ in range(3)]
    secrets, _ = eager_chain(SEED, 3)
    assert chain.elements[2] == secrets[2]
    assert len(chain.anchor) == crypto.SECRET_LEN
    assert calls == [b"chain"] * (n + 1)
    calls.clear()
    assert all(verify_reveal(chain, *r, held)
               for r, held in zip(revealed[1:], revealed))
    assert calls == [b"chain"] * 2


def test_no_element_collisions_across_chains():
    seen = set()
    rng = random.Random(0)
    for _ in range(200):
        chain = generate_keychain(rng.randbytes(16), 50)
        seen.update(chain.elements)
    assert len(seen) == 200 * 51   # 10,200 elements, zero collisions


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
    assert secret == chain.elements[index]
    assert chain.next_index == 1


def test_verify_reveal_bit_flips():
    chain = generate_keychain(SEED, 2)
    secret = chain.elements[1]
    for bit in range(len(secret) * 8):   # exhaustive single-bit flips
        assert not verify_reveal(chain, 1, flip(secret, bit))


def test_verify_reveal_out_of_range_index():
    chain = generate_keychain(SEED, 2)
    assert not verify_reveal(chain, 2, chain.elements[0])
    assert not verify_reveal(chain, -1, chain.elements[0])
    # a held element bounds the range from above
    assert not verify_reveal(chain, 1, chain.elements[1],
                             (1, chain.elements[1]))


def test_random_forgeries_never_verify():
    chain = generate_keychain(SEED, 4)
    rng = random.Random(1)
    passes = 0
    for _ in range(10_000):
        i = rng.randrange(4)
        forged = rng.randbytes(16)
        if forged != chain.elements[i] and verify_reveal(chain, i, forged):
            passes += 1
    assert passes == 0


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


def test_verify_tag_refuses_an_empty_message():
    key = b"\x07" * 16
    assert not verify_tag(key, b"", compute_tag(key, b"\x00"))


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
