"""Span-based trace recording.

The observability tools (§5 of the paper) consume *spans*: named intervals
with a rank, a stream (e.g. ``forward``, ``reduce_scatter``), and free-form
attributes.  :class:`TraceRecorder` is the in-simulation analogue of the
paper's CUDA-event timer: cheap to record, queryable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    """A closed interval of simulated time attributed to one rank."""

    name: str
    rank: int
    start: float
    end: float
    stream: str = "default"
    attrs: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str, default: Any = None) -> Any:
        for k, v in self.attrs:
            if k == key:
                return v
        return default


class TraceRecorder:
    """Collects spans; supports per-rank and per-name queries."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._by_rank: Dict[int, List[Span]] = {}

    def record(
        self,
        name: str,
        rank: int,
        start: float,
        end: float,
        stream: str = "default",
        **attrs: Any,
    ) -> Span:
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts ({start} > {end})")
        span = Span(name, rank, start, end, stream, tuple(sorted(attrs.items())))
        self._spans.append(span)
        self._by_rank.setdefault(rank, []).append(span)
        return span

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def spans(
        self,
        rank: Optional[int] = None,
        name: Optional[str] = None,
        stream: Optional[str] = None,
    ) -> List[Span]:
        source: Iterable[Span]
        source = self._by_rank.get(rank, []) if rank is not None else self._spans
        return [
            s
            for s in source
            if (name is None or s.name == name) and (stream is None or s.stream == stream)
        ]

    def ranks(self) -> List[int]:
        return sorted(self._by_rank)

    def total_time(self, rank: int, name: Optional[str] = None) -> float:
        return sum(s.duration for s in self.spans(rank=rank, name=name))

    def merge(self, other: Iterable[Span]) -> None:
        for span in other:
            self._spans.append(span)
            self._by_rank.setdefault(span.rank, []).append(span)


@dataclass
class Counter:
    """A monotonically increasing named counter (e.g. RDMA bytes)."""

    name: str
    value: float = 0.0
    samples: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, now: float, amount: float) -> None:
        if amount < 0:
            raise ValueError("counters are monotone; use a Gauge for decrements")
        self.value += amount
        self.samples.append((now, self.value))

    def rate(self, window: float, now: float) -> float:
        """Average increase per second over the trailing ``window`` seconds."""
        if not self.samples or window <= 0:
            return 0.0
        cutoff = now - window
        base = 0.0
        for t, v in reversed(self.samples):
            if t <= cutoff:
                base = v
                break
        return (self.value - base) / window
