"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the package: while a traced scenario runs,
the functions listed in ``_PATCHES`` are replaced by wrappers that record
one span per call (layer name, parent span, start, end) into flat arrays.
Each name is patched where the simulator looks it up: ``from``-imported
names in the module that imported them, module-object names in the module
that owns them, and methods on their class. Classes are patched before the
``Simulation`` is built, because ``NodeState`` keeps ``mobility.neighbors``
as a bound method from construction on.

A span's self time is its duration minus the durations of its direct
children. Spans under ``Simulation.__init__`` form the set-up tree and
spans under ``Simulation.run`` the run tree; both are totalled per layer
when the scenario run ends.
"""

import time
from array import array

import numpy as np

SETUP_ROOT = "simnet.setup"
RUN_ROOT = "simnet.engine.run"


def _patches():
    """(owner, attribute, span name, result hook) for every traced call."""
    from lararp import adversary, crypto, messages, metrics, protocol, simnet

    def rreq_hook(counters, result):
        counters["protocol.charged"] += result.charged
        if result.drop is None:
            counters["protocol.rreq_useful"] += 1

    def rrep_hook(counters, result):
        counters["protocol.charged"] += result.charged

    def keytable_hook(counters, table):
        counters["crypto.keytable_entries"] += len(table)

    return [
        (simnet.Simulation, "__init__", SETUP_ROOT, None),
        (simnet.Simulation, "run", RUN_ROOT, None),
        (simnet.Simulation, "_arrival", "simnet.engine.arrival", None),
        (simnet, "step_mobility", "simnet.mobility.step", None),
        (simnet.MobilityState, "neighbors", "simnet.mobility.neighbors", None),
        (simnet, "wire_size", "messages.wire_size", None),
        (messages.Rreq, "validate", "messages.validate", None),
        (messages.Rrep, "validate", "messages.validate", None),
        (messages.DataPacket, "validate", "messages.validate", None),
        (protocol, "hop_digest", "messages.digest", None),
        (protocol, "rrep_body", "messages.digest", None),
        (protocol, "reverse_tag_payload", "messages.digest", None),
        (protocol, "compute_tag", "crypto.tag", None),
        (protocol, "verify_tag", "crypto.tag", None),
        (protocol, "verify_reveal", "crypto.reveal", None),
        (crypto, "generate_keychain", "crypto.keychain", None),
        (crypto.SharedKeyTable, "derive", "crypto.keytable", keytable_hook),
        (protocol.NodeState, "handle_rreq", "protocol.rreq", rreq_hook),
        (protocol.NodeState, "handle_rreq_at_destination", "protocol.rreq",
         rreq_hook),
        (protocol.NodeState, "handle_rrep", "protocol.rrep", rrep_hook),
        (protocol.NodeState, "handle_rrep_at_source", "protocol.rrep",
         rrep_hook),
        (protocol.NodeState, "forward_data", "protocol.data", None),
        (protocol.NodeState, "initiate_route_discovery", "protocol.discovery",
         None),
        (adversary.Attacker, "transform", "adversary", None),
        (adversary.Attacker, "capture", "adversary", None),
        (metrics.MetricsCollector, "observe", "metrics.observe", None),
    ]


COUNTERS = ("protocol.charged", "protocol.rreq_useful",
            "crypto.keytable_entries")


class Tracer:
    """Records the spans of one scenario run at a time: ``install`` the
    wrappers, build and run the Simulation, ``uninstall``, read ``summary``
    (and ``spans``), then ``clear``."""

    def __init__(self):
        self.patches = _patches()
        self.names = sorted({span for _, _, span, _ in self.patches})
        self._name_a = array("i")
        self._parent_a = array("i")
        self._start_a = array("d")
        self._end_a = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, fn, span, hook):
        name_id = self.names.index(span)
        name_a, parent_a = self._name_a, self._parent_a
        start_a, end_a, stack = self._start_a, self._end_a, self._stack
        counters, clock = self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start_a)
            name_a.append(name_id)
            parent_a.append(stack[-1])
            start_a.append(0.0)
            end_a.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                start_a[idx] = t0
                stack.pop()
            if hook is not None:
                hook(counters, result)
            return result

        return traced

    def install(self):
        originals = []
        for owner, attr, span, hook in self.patches:
            orig = vars(owner)[attr]
            if isinstance(orig, classmethod):
                new = classmethod(self._wrap(orig.__func__, span, hook))
            else:
                new = self._wrap(orig, span, hook)
            originals.append((owner, attr, orig))
            setattr(owner, attr, new)
        return originals

    @staticmethod
    def uninstall(originals):
        for owner, attr, orig in reversed(originals):
            setattr(owner, attr, orig)

    def spans(self):
        """The recorded spans as numpy arrays (copies)."""
        return {"name": np.array(self._name_a, dtype=np.int32),
                "parent": np.array(self._parent_a, dtype=np.int32),
                "start": np.array(self._start_a, dtype=np.float64),
                "end": np.array(self._end_a, dtype=np.float64)}

    def clear(self):
        for a in (self._name_a, self._parent_a, self._start_a, self._end_a):
            del a[:]
        del self._stack[1:]
        for key in self.counters:
            self.counters[key] = 0

    def summary(self):
        """Per tree (set-up, run) and layer: [calls, self seconds]."""
        s = self.spans()
        n = len(s["name"])
        dur = s["end"] - s["start"]
        parent = s["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_t = dur - child
        # Pointer jumping: every round doubles how far each span has climbed,
        # so log2(depth) rounds reach the roots.
        root = np.where(has_parent, parent, np.arange(n, dtype=np.int32))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        out = {}
        for tree in (SETUP_ROOT, RUN_ROOT):
            in_tree = s["name"][root] == self.names.index(tree)
            names = s["name"][in_tree]
            calls = np.bincount(names, minlength=len(self.names))
            secs = np.bincount(names, weights=self_t[in_tree],
                               minlength=len(self.names))
            out[tree] = {name: [int(calls[i]), float(secs[i])]
                         for i, name in enumerate(self.names)}
        return out
