"""Link flapping injection (§3.6, §6.3).

A flapping link goes down for a few seconds, dropping all in-flight
packets, then comes back.  The paper's lessons: (1) NCCL's retransmit
timeout must exceed the flap duration or the job dies with a completion
error; (2) the NIC's ``adap_retrans`` feature retries on a short interval
and recovers quickly when the flap is brief.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..sim import Process, Simulator
from .link import LinkTable


@dataclass
class FlapEvent:
    down_at: float
    up_at: float

    @property
    def duration(self) -> float:
        return self.up_at - self.down_at


@dataclass
class LinkFlapper:
    """Drives a duplex link through down/up cycles on the simulation clock.

    ``link`` is a ``(table, (forward_id, reverse_id))`` pair, and a flap
    takes both directions down together.  With a
    :class:`~repro.observability.TelemetryHub` as ``hub`` every flap
    lands as a pair of instant events (``link-down`` / ``link-up``) on
    the ``network`` lane at the simulated instants they fired.
    """

    sim: Simulator
    link: Tuple[LinkTable, Tuple[int, int]]
    mean_interval: float  # mean seconds between flap starts
    mean_down_time: float  # mean seconds a flap lasts
    rng: object  # numpy Generator
    events: List[FlapEvent] = field(default_factory=list)
    hub: object = None  # optional TelemetryHub
    _proc: Process = field(default=None, repr=False)  # type: ignore[assignment]

    def _set(self, up: bool) -> None:
        table, ids = self.link
        table.up[list(ids)] = up

    def start(self) -> None:
        self._proc = Process(self.sim, self._run(), name="link-flapper")

    def _run(self):
        while True:
            wait = float(self.rng.exponential(self.mean_interval))
            yield self.sim.timeout(wait)
            down_at = self.sim.now
            self._set(False)
            if self.hub is not None:
                self.hub.instant("network", "link-down", down_at)
            down_for = float(self.rng.exponential(self.mean_down_time))
            yield self.sim.timeout(down_for)
            self._set(True)
            self.events.append(FlapEvent(down_at, self.sim.now))
            if self.hub is not None:
                self.hub.instant(
                    "network", "link-up", self.sim.now, duration=self.sim.now - down_at
                )
                self.hub.count("network", "flaps", 1)

    def stop(self) -> None:
        """Halt injection; a flap in progress is cut short (link restored)."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")
        self._set(True)


def flap_downtime_in_window(events: List[FlapEvent], start: float, end: float) -> float:
    """Total link-down seconds overlapping [start, end]."""
    if end < start:
        raise ValueError("window end before start")
    total = 0.0
    for ev in events:
        lo = max(start, ev.down_at)
        hi = min(end, ev.up_at)
        total += max(0.0, hi - lo)
    return total


def reduced_flap_rate(base_interval: float, quality_factor: float) -> float:
    """Mean flap interval after link-quality hardening.

    The paper reduced flapping "to a satisfactory level" by tightening
    signal-strength and AOC-cable quality control; we expose that as a
    multiplicative improvement on the mean time between flaps.
    """
    if quality_factor < 1:
        raise ValueError("quality_factor >= 1 (it lengthens the interval)")
    return base_interval * quality_factor


def flap_statistics(events: List[FlapEvent]) -> Tuple[int, float]:
    """(count, mean duration) of observed flaps."""
    if not events:
        return 0, 0.0
    return len(events), sum(e.duration for e in events) / len(events)
