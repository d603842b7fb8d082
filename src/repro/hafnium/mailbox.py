"""Inter-VM mailbox messaging (FF-A style).

Each VM owns a single-slot receive mailbox. ``send`` fails with BUSY when
the slot is occupied (the receiver must retrieve and release it first) —
the same flow-control discipline as FF-A's RX buffer. The super-secondary
uses this channel to submit job-control commands to the primary's control
task ("a secure communication channel between the super-secondary and
primary VMs", paper Section III-b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.common.errors import ConfigurationError
from repro.sim.engine import Engine, Signal

MAX_MESSAGE_BYTES = 4096  # one page, like the FF-A RX/TX buffers


@dataclass(frozen=True)
class Message:
    sender_vm_id: int
    payload: Any
    size_bytes: int
    sent_at_ps: int


class Mailbox:
    """Single-slot receive buffer of one VM."""

    def __init__(self, engine: Engine, owner_name: str):
        self.engine = engine
        self.owner_name = owner_name
        self._slot: Optional[Message] = None
        self.recv_signal = Signal(engine, f"{owner_name}.mbox")
        #: fired on ``retrieve`` — blocked senders wait on this to learn
        #: the slot freed up (FF-A's RX_RELEASE notification).
        self.space_signal = Signal(engine, f"{owner_name}.mbox.space")
        self.sent = 0
        self.delivered = 0
        self.busy_rejections = 0

    @property
    def full(self) -> bool:
        return self._slot is not None

    def deliver(self, sender_vm_id: int, payload: Any, size_bytes: int) -> bool:
        """Place a message in the slot. False = BUSY (receiver hasn't
        drained the previous message)."""
        if size_bytes > MAX_MESSAGE_BYTES:
            raise ConfigurationError(
                f"message of {size_bytes} bytes exceeds the {MAX_MESSAGE_BYTES}-byte mailbox"
            )
        if self._slot is not None:
            self.busy_rejections += 1
            return False
        self._slot = Message(sender_vm_id, payload, size_bytes, self.engine.now)
        self.sent += 1
        self.recv_signal.fire(self._slot)
        return True

    def retrieve(self) -> Optional[Message]:
        """Take the message out (releases the slot). None when empty."""
        msg, self._slot = self._slot, None
        if msg is not None:
            self.delivered += 1
            self.space_signal.fire(msg)
        return msg

