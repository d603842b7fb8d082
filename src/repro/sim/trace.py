"""Structured simulation trace.

Model components emit trace records (interrupt delivered, VM exit, context
switch, detour observed, ...). Experiments and tests query the trace rather
than scraping printed output. Records are cheap tuples; analysis is done
post-run.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Records serialized per hashlib update when digesting — large enough to
#: amortize the call overhead, small enough to bound the transient join
#: buffer.
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

    Any reordering, retiming, or payload drift changes the bytes;
    :meth:`Tracer.digest_records` is the one place that hashes them, for
    whole-trace and per-subject digests alike.
    """
    return repr(
        (record.time, record.category, record.subject, sorted(record.data.items()))
    ).encode()


class Tracer:
    """Append-only trace of every emitted record."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def emit(self, time: int, category: str, subject: str, **data: Any) -> None:
        self.records.append(TraceRecord(time, category, subject, data))

    def digest_records(self, subject: Optional[str] = None) -> str:
        """SHA-256 over every record so far, or only over those whose
        subject is ``subject`` or starts with ``subject + "."``.

        Each record is serialized with a terminator and hashed in
        ``DIGEST_BATCH``-record updates, so the join buffer stays bounded
        and the digest does not depend on where batches fall.
        """
        records = self.records
        if subject is not None:
            dot_prefix = subject + "."
            records = [
                r for r in records
                if r.subject == subject or r.subject.startswith(dot_prefix)
            ]
        h = hashlib.sha256()
        for start in range(0, len(records), DIGEST_BATCH):
            h.update(
                b"".join(
                    record_bytes(r) + b"\x1e"
                    for r in records[start:start + DIGEST_BATCH]
                )
            )
        return h.hexdigest()

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

    def times(self, category: str, subject: Optional[str] = None) -> array:
        """Timestamps (ps) of matching records as an int64 ``array('q')``."""
        return array("q", [r.time for r in self.filter(category, subject)])

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)
