"""Structured simulation trace.

Model components emit trace records (interrupt delivered, VM exit, context
switch, detour observed, ...). Experiments and tests query the trace rather
than scraping printed output. Records are cheap tuples; analysis is done
post-run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional

if TYPE_CHECKING:
    import numpy as np

#: Records serialized per hashlib update when digesting incrementally —
#: large enough to amortize the call overhead, small enough to bound the
#: transient join buffer.
DIGEST_BATCH = 4096


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: timestamp, category, subject, free-form payload."""

    time: int
    category: str
    subject: str
    data: Dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.data[key]


def record_bytes(record) -> bytes:
    """Canonical byte serialization of one record for digesting.

    Any reordering, retiming, or payload drift changes the bytes; shared
    by the incremental tracer digest, the determinism checker, and the
    fault campaign's per-VM containment digests so they all agree on what
    "the same trace" means.
    """
    return repr(
        (record.time, record.category, record.subject, sorted(record.data.items()))
    ).encode()


class Tracer:
    """Append-only trace of every emitted record."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        # Incremental digest state: records up to `_digested` are already
        # folded into `_digest`, so repeated digest queries only hash the
        # suffix appended since the previous call.
        self._digest = hashlib.sha256()
        self._digested = 0

    def emit(self, time: int, category: str, subject: str, **data: Any) -> None:
        self.records.append(TraceRecord(time, category, subject, data))

    def digest_records(self) -> str:
        """SHA-256 over every record so far, hashed incrementally.

        Records already folded in are never re-serialized: each call
        batches only the suffix appended since the last call into
        ``DIGEST_BATCH``-record hash updates. Digesting a trace N times
        over its lifetime (per-scenario, per-sweep-entry, ...) is therefore
        O(records) total instead of O(N * records).
        """
        records = self.records
        end = len(records)
        for start in range(self._digested, end, DIGEST_BATCH):
            # Per-record terminator (not a join) so the byte stream — and
            # hence the digest — is independent of where batch boundaries
            # fall across calls.
            self._digest.update(
                b"".join(
                    record_bytes(r) + b"\x1e"
                    for r in records[start:start + DIGEST_BATCH]
                )
            )
        self._digested = end
        return self._digest.copy().hexdigest()

    # -- queries -----------------------------------------------------------

    def filter(
        self,
        category: Optional[str] = None,
        subject: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        out = []
        for r in self.records:
            if category is not None and r.category != category:
                continue
            if subject is not None and r.subject != subject:
                continue
            if predicate is not None and not predicate(r):
                continue
            out.append(r)
        return out

    def count(self, category: str) -> int:
        """Number of records of a category."""
        return sum(1 for r in self.records if r.category == category)

    def times(self, category: str, subject: Optional[str] = None) -> np.ndarray:
        """Timestamps (ps) of matching records as an array."""
        import numpy as np

        return np.array(
            [r.time for r in self.filter(category, subject)], dtype=np.int64
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)
