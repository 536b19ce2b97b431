"""Directed network links as integer ids into one :class:`LinkTable`."""

from __future__ import annotations

from typing import Sequence

import numpy as np


class LinkTable:
    """Every directed link of a fabric; a link is its integer index here.

    Endpoint names live in the ``src``/``dst`` lists; capacity
    (bytes/s), latency (seconds), up/down state and bytes carried live
    in numpy arrays.  Taking a link down is ``table.up[i] = False``, and
    a whole-fabric health check is one ``table.up.all()`` — there are no
    per-link objects to observe.
    """

    def __init__(
        self,
        src: Sequence[str],
        dst: Sequence[str],
        bandwidth,
        latency=1e-6,
    ) -> None:
        """``bandwidth`` and ``latency`` are per-link sequences or one
        scalar shared by every link."""
        if len(src) != len(dst):
            raise ValueError("src and dst name lists differ in length")
        self.src = list(src)
        self.dst = list(dst)
        n = len(self.src)
        self.bandwidth = np.array(np.broadcast_to(np.asarray(bandwidth, dtype=float), (n,)))
        self.latency = np.array(np.broadcast_to(np.asarray(latency, dtype=float), (n,)))
        bad = np.flatnonzero(self.bandwidth <= 0)
        if bad.size:
            raise ValueError(f"link {self.name(int(bad[0]))} must have positive bandwidth")
        bad = np.flatnonzero(self.latency < 0)
        if bad.size:
            raise ValueError(f"link {self.name(int(bad[0]))} has negative latency")
        self.up = np.ones(n, dtype=bool)
        self.carried = np.zeros(n)  # fluid-model bytes moved per link

    def __len__(self) -> int:
        return len(self.src)

    def name(self, link: int) -> str:
        return f"{self.src[link]}->{self.dst[link]}"

    def delay(self, path: Sequence[int]) -> float:
        """Summed latency of the links along ``path`` (seconds)."""
        return sum(self.latency[list(path)].tolist())

    def carry(self, path: Sequence[int], nbytes: float) -> None:
        """Account ``nbytes`` on every link of ``path`` (a link the path
        crosses twice carries them twice)."""
        if nbytes < 0:
            raise ValueError("cannot carry negative bytes")
        np.add.at(self.carried, np.asarray(path, dtype=np.intp), nbytes)
