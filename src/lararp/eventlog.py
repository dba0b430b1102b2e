"""Line-delimited event records emitted by the simulator.

One record per line: ``time|node|kind|key=value,key=value``. Lists are
semicolon-joined, floats use repr so serialization is bit-stable, and the
format is simple enough for independent oracle scripts to re-parse.
"""

from dataclasses import dataclass, field


@dataclass
class Record:
    time: float
    node: int
    kind: str
    details: dict = field(default_factory=dict)


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def format_record(rec: Record) -> str:
    details = ",".join(f"{k}={_format_value(v)}"
                       for k, v in rec.details.items())
    return f"{rec.time!r}|{rec.node}|{rec.kind}|{details}"


def format_log(records) -> str:
    return "\n".join(format_record(r) for r in records) + "\n"


def _parse_value(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    if ";" in text:
        return [_parse_value(x) for x in text.split(";")]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_record(line: str) -> Record:
    time_s, node_s, kind, details_s = line.split("|", 3)
    details = {}
    if details_s:
        for item in details_s.split(","):
            k, _, v = item.partition("=")
            # a request id is hex, which can read as a number
            # ("3e27941960784963" as a float), so it stays text
            details[k] = v if k == "request_id" else _parse_value(v)
    return Record(time=float(time_s), node=int(node_s), kind=kind,
                  details=details)


def parse_log(text: str):
    """Parse serialized log text back into records."""
    return [parse_record(line) for line in text.splitlines() if line]


def id_list(value) -> list:
    """Normalize a parsed detail back to a node-id list (single-element
    lists round-trip as scalars; empty ones as empty strings)."""
    if isinstance(value, list):
        return value
    if value == "":
        return []
    return [value]
