"""Host speed probe: a fixed CPU task that does not use the simulator.

On a shared host the same work takes more or less CPU time depending on
what other tenants run on the same cores and caches, and such spells last
minutes, longer than one benchmark run. The benchmark runs ``probe()``
between scenario runs and scales its host times by
``REFERENCE_S / mean(probe times)``: the times read as if the host ran
at the speed it had when ``REFERENCE_S`` was measured. The probe mixes the
simulator's kinds of work (an event heap, dict and attribute traffic on
small objects, sha256 of short messages, numpy pairwise distances over 100
points, and once over 1000 points, whose arrays outgrow the caches), so
that contention slows both alike. It tracks the workloads whose working set
is a few MB; run.py's WORKLOADS says which workloads it scales.
"""

import hashlib
import heapq
import random
import time

import numpy as np

# Mean CPU seconds of probe() on the reference machine (see reference.json).
REFERENCE_S = 0.14

EVENTS = 45_000
POINTS = 100
DISTANCE_ROUNDS = 100
LARGE_POINTS = 1000


class _Node:
    __slots__ = ("seen", "count")

    def __init__(self):
        self.seen = {}
        self.count = 0


def _links(points, block=25):
    """Pairs of points within 250 m, over blocks of `block` rows so that the
    probe adds little to the benchmark's peak RSS."""
    links = 0
    for start in range(0, len(points), block):
        diff = points[start:start + block, None, :] - points[None, :, :]
        links += int(np.count_nonzero((diff * diff).sum(-1) < 250.0 ** 2))
    return links


def _work():
    rng = random.Random(12345)
    nodes = [_Node() for _ in range(POINTS)]
    heap = [(rng.random(), i, i % POINTS) for i in range(200)]
    heapq.heapify(heap)
    digest = b""
    for seq in range(EVENTS):
        now, _, target = heapq.heappop(heap)
        node = nodes[target]
        key = (seq % 31, target)
        if key not in node.seen:
            node.seen[key] = now
            node.count += 1
        if seq % 8 == 0:
            digest = hashlib.sha256(digest + key[0].to_bytes(2, "big")).digest()
        heapq.heappush(heap, (now + rng.random(), seq, (target * 31 + seq)
                              % POINTS))
    # numpy.random is not imported: it would add 2.6 MB to peak RSS.
    points = np.array([[rng.random(), rng.random()]
                       for _ in range(LARGE_POINTS)])
    small = points[:POINTS] * 1000.0
    links = 0
    for _ in range(DISTANCE_ROUNDS):
        links += _links(small)
        small += 1.0
    links += _links(points * 3162.0)
    return sum(n.count for n in nodes) + links + digest[0]


def probe():
    """CPU seconds of one run of the fixed task."""
    t0 = time.process_time()
    _work()
    return time.process_time() - t0
