"""Elastic degraded-mode recovery: shrink DP instead of stalling (§4 ext).

When a fault (or a correlated rack fault) claims more nodes than the
spare pool can replace, the paper's alternative to paging an operator
and stalling the job is to *keep training smaller*: drop the dead
data-parallel replicas, re-plan to the largest DP degree the surviving
GPUs support, and resume at reduced throughput until capacity returns.

The re-plan walks :func:`repro.parallel.tuner.iter_shrink_dp_plans`
so it honours the same structural constraints as the original tuner
(model-parallel layout fixed, batch divisibility, optional memory
feasibility when the model is known).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..hardware.gpu import GpuSpec
from ..model.transformer import ModelSpec
from ..parallel.plan import ParallelPlan
from ..parallel.tuner import feasible as plan_feasible
from ..parallel.tuner import iter_shrink_dp_plans


@dataclass(frozen=True)
class ElasticDecision:
    """Outcome of one spare-exhausted re-plan."""

    old_plan: ParallelPlan
    new_plan: ParallelPlan
    available_gpus: int

    @property
    def throughput_factor(self) -> float:
        """Fraction of healthy tokens-per-iteration the new plan sustains.

        Per-replica batch is held constant, so tokens scale with DP.
        """
        return self.new_plan.dp / self.old_plan.dp

    def describe(self) -> str:
        return (
            f"dp {self.old_plan.dp} -> {self.new_plan.dp} on {self.available_gpus} GPUs "
            f"({self.throughput_factor:.0%} throughput)"
        )


@dataclass
class ElasticReplanner:
    """Picks the least-lossy shrunken plan for the surviving GPU count.

    ``model``/``gpu``/``global_batch`` are optional refinements: when the
    model is known, candidates must also fit in memory; when the global
    batch is known, it must divide into per-replica batches.  Without
    them the re-plan is structural only (the common production-run case,
    where the plan is the unit of simulation).
    """

    model: Optional[ModelSpec] = None
    gpu: Optional[GpuSpec] = None
    global_batch: Optional[int] = None

    def _acceptable(self, candidate: ParallelPlan) -> bool:
        if self.global_batch is not None:
            try:
                candidate.n_microbatches(self.global_batch)
            except ValueError:
                return False
        if self.model is not None and self.gpu is not None and self.global_batch is not None:
            return plan_feasible(self.model, candidate, self.gpu, self.global_batch)
        return True

    def replan(self, plan: ParallelPlan, available_gpus: int) -> Optional[ElasticDecision]:
        """Largest-DP feasible shrink, or ``None`` if nothing fits.

        Raises ``ValueError`` if ``available_gpus`` already covers the
        current plan (shrinking would be a no-op — the caller should
        simply replace nodes).
        """
        if available_gpus >= plan.world_size:
            raise ValueError("no shrink needed: plan already fits the available GPUs")
        for candidate in iter_shrink_dp_plans(plan, available_gpus):
            if self._acceptable(candidate):
                return ElasticDecision(
                    old_plan=plan, new_plan=candidate, available_gpus=available_gpus
                )
        return None
