"""The three performance metrics, computed by folding the event log.

The simulator keeps its own live MetricsCollector; fold recomputes every
metric from (possibly re-parsed) log records so the two paths can be
checked against each other exactly. The engine counts a data packet's send
and delivery on the collector itself, so observe folds those two kinds only
for fold.
"""

from dataclasses import dataclass, field


@dataclass
class MetricsReport:
    pdr: float | None
    avg_delay: float | None
    control_overhead: float | None
    data_sent: int = 0
    data_delivered: int = 0
    data_dropped: int = 0
    data_lost: int = 0
    data_in_flight: int = 0
    control_packets: int = 0
    drops_by_reason: dict = field(default_factory=dict)
    hop_tag_checks: int = 0
    hop_tag_checks_at_dest: int = 0


class MetricsCollector:
    """Streaming fold over records; the simulator feeds it live."""

    def __init__(self):
        self.data_sent = 0
        self.data_delivered = 0
        self.data_dropped = 0
        self.data_lost = 0
        self.delay_sum = 0.0
        self.control_packets = 0
        self.drops_by_reason: dict[str, int] = {}
        self.hop_tag_checks = 0
        self.hop_tag_checks_at_dest = 0

    def observe(self, kind: str, details: dict):
        """Fold one record, given as its kind and details. The radio folds
        its duplicate drops in count_drops, and the engine counts data-sent
        and data-delivered in place, so those reach here only from fold."""
        if kind == "drop":
            reason = details["reason"]
            self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        elif kind == "data-sent":
            self.data_sent += 1
        elif kind == "data-delivered":
            self.data_delivered += 1
            self.delay_sum += details["delay"]
        elif kind == "data-dropped":
            self.data_dropped += 1
            reason = details["reason"]
            self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        elif kind == "data-lost":
            self.data_lost += 1
        elif kind == "control-send":
            self.control_packets += 1
        elif kind == "hop-tag-verify":
            n = details["n"]
            self.hop_tag_checks += n
            if details["role"] == "dest":
                self.hop_tag_checks_at_dest += n

    def count_drops(self, reason: str, n: int):
        """Fold n control-message drops for reason at once, as n records
        of kind "drop" would."""
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + n

    def report(self) -> MetricsReport:
        pdr = self.data_delivered / self.data_sent if self.data_sent else None
        delay = (self.delay_sum / self.data_delivered
                 if self.data_delivered else None)
        overhead = (self.control_packets / self.data_delivered
                    if self.data_delivered else None)
        in_flight = (self.data_sent - self.data_delivered
                     - self.data_dropped - self.data_lost)
        return MetricsReport(pdr=pdr, avg_delay=delay,
                             control_overhead=overhead,
                             data_sent=self.data_sent,
                             data_delivered=self.data_delivered,
                             data_dropped=self.data_dropped,
                             data_lost=self.data_lost,
                             data_in_flight=in_flight,
                             control_packets=self.control_packets,
                             drops_by_reason=dict(sorted(
                                 self.drops_by_reason.items())),
                             hop_tag_checks=self.hop_tag_checks,
                             hop_tag_checks_at_dest=self.hop_tag_checks_at_dest)


def fold(records) -> MetricsReport:
    collector = MetricsCollector()
    for rec in records:
        collector.observe(rec.kind, rec.details)
    return collector.report()

