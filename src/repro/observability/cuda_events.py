"""CUDA-event-style segment timing (§5.1).

The paper's tool times critical code segments per rank using CUDA events
(avoiding synchronization overhead), writes records line-by-line to a
local file, streams them through Kafka into an analytical database, and
feeds the heat-map / timeline visualizations.

Here a timed segment is a :class:`~repro.sim.trace.Span` named after the
segment, with a ``step`` attribute, recorded on a
:class:`~repro.sim.trace.TraceRecorder` (or a hub's ``training`` lane);
:class:`EventStreamer` models the file -> queue -> database pipeline so
the analysis layer reads from the "database" exactly like the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..sim.trace import Span, TraceRecorder

# The critical segments the paper's timer instruments.
SEGMENTS = ("forward", "backward", "optimizer", "reduce_scatter", "all_gather", "data_wait")


@dataclass
class EventStreamer:
    """Local log file -> Kafka queue -> analytical database (§5.1).

    Deliberately structural: each hop is a list with a cursor, so tests
    can verify no spans are lost or reordered and analysis reads only
    what reached the database.
    """

    log_file: List[Span] = field(default_factory=list)
    kafka_queue: List[Span] = field(default_factory=list)
    database: List[Span] = field(default_factory=list)
    _file_cursor: int = 0
    _queue_cursor: int = 0

    def write_log(self, spans: Iterable[Span]) -> None:
        """The training process appends spans line-by-line."""
        self.log_file.extend(spans)

    def sync_to_kafka(self, max_records: Optional[int] = None) -> int:
        """The streamer process tails the file into the queue."""
        pending = self.log_file[self._file_cursor :]
        if max_records is not None:
            pending = pending[:max_records]
        self.kafka_queue.extend(pending)
        self._file_cursor += len(pending)
        return len(pending)

    def consume_to_database(self, max_records: Optional[int] = None) -> int:
        pending = self.kafka_queue[self._queue_cursor :]
        if max_records is not None:
            pending = pending[:max_records]
        self.database.extend(pending)
        self._queue_cursor += len(pending)
        return len(pending)

    def pump(self) -> int:
        """Drain everything end-to-end; returns spans landed in the DB."""
        self.sync_to_kafka()
        return self.consume_to_database()

    def recorder_from_database(self) -> TraceRecorder:
        """An analysis-side recorder over the database contents."""
        recorder = TraceRecorder()
        recorder.merge(self.database)
        return recorder
