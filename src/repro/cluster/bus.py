"""The cross-shard message bus: sim-time-stamped, round-delivered.

Shards never share memory; nodes coordinate exclusively through
:class:`Message` records the kernel collects at round boundaries.  A
message emitted during round ``k`` (whether at the round-start delivery
hook or the round-end report hook) is delivered at the start of round
``k + 1`` — the bounded-lag contract that makes shard execution order
irrelevant.  Delivery order is canonical: messages are sorted by
``(time, src, seq)`` per destination, so a node sees the same inbox no
matter how the senders were partitioned over shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Message", "Outbox", "route"]


@dataclass(frozen=True)
class Message:
    """One bus datagram between nodes (picklable, canonically ordered)."""

    #: Simulated send time (a round boundary by construction).
    time: float
    #: Sender node id and its per-round emission sequence number —
    #: together with ``time`` this is the canonical total order.
    src: int
    seq: int
    dst: int
    #: Message kind: "report" / "alloc" (centralized), "borrow" /
    #: "grant" / "return" (adaptbf), or anything a plugged-in policy uses.
    kind: str
    #: Payload as a sorted tuple of ``(key, value)`` pairs so messages
    #: stay hashable and comparison-stable.
    payload: tuple = ()

    def get(self, key: str, default: float = 0.0) -> float:
        for k, v in self.payload:
            if k == key:
                return v
        return default

    @staticmethod
    def pack(**payload: float) -> tuple:
        return tuple(sorted(payload.items()))


@dataclass
class Outbox:
    """Per-node emitter handed to arbitration hooks."""

    src: int
    time: float
    messages: list[Message] = field(default_factory=list)
    _seq: int = 0

    def emit(self, dst: int, kind: str, **payload: float) -> Message:
        msg = Message(
            time=self.time,
            src=self.src,
            seq=self._seq,
            dst=int(dst),
            kind=kind,
            payload=Message.pack(**payload),
        )
        self._seq += 1
        self.messages.append(msg)
        return msg


def route(messages: list[Message]) -> dict[int, list[Message]]:
    """Group a round's traffic by destination node, canonically ordered.

    Sorting by ``(time, src, seq)`` before grouping makes the inbox a
    pure function of the message *set* — the shard layout cannot leak
    into delivery order.
    """
    inboxes: dict[int, list[Message]] = {}
    for msg in sorted(messages, key=lambda m: (m.time, m.src, m.seq)):
        inboxes.setdefault(msg.dst, []).append(msg)
    return inboxes
