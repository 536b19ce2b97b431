"""The training-iteration engine.

Executes one optimizer step of a 3D-parallel job on the simulated
substrate and returns its wall time with a full breakdown.  The pipeline
is executed task-by-task against the real interleaved-1F1B dependency
structure (bubbles, warm-up stalls and straggler effects *emerge*; they
are not closed-form estimates).  Each stage runs the integer program of
:func:`repro.parallel.pipeline.stage_program`: finish times live in one
float list indexed by task key, and a per-call table gives each (stage,
cost class) its duration and sender block, so no task objects or
dependency tuples are built.  TP/SP and DP communication exposure come
from the overlap models of :mod:`repro.training.overlap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..collectives.groups import GroupCommModel, build_comm_model
from ..collectives.primitives import validate_backend
from ..core.features import FeatureSet
from ..hardware.gpu import AMPERE, GpuSpec
from ..model.blocks import activation_bytes, block_cost, embedding_cost, logits_block_cost
from ..model.flops import iteration_model_flops
from ..model.transformer import ModelSpec
from ..parallel.pipeline import PHASES, stage_program
from ..parallel.plan import ParallelPlan
from ..parallel.zero import dp_comm_events, optimizer_step_time
from .datapipe import data_pipeline_cost, overlap_window
from .overlap import dp_exposed_time, pp_policy, tp_exposed_per_layer


@dataclass(frozen=True)
class IterationBounds:
    """Closed-form brackets on :meth:`IterationEngine.simulate` time.

    Computed without executing the pipeline task graph, so they cost
    microseconds instead of milliseconds.  The guarantees (for the
    default ``simulate`` arguments — uniform stage speeds, zero
    perturbation) are:

    * ``lower <= simulate(global_batch).iteration_time <= upper``
    * ``estimate`` is a coarse closed-form guess with **no** guarantee;
      it exists to order candidates so that a branch-and-bound search
      tightens its incumbent early.

    Component floors (``compute_floor``, ``bubble_floor``,
    ``comm_floor``) are the analytic terms the lower bound is built
    from; each is individually a valid floor on its phase of the
    iteration.
    """

    lower: float
    upper: float
    estimate: float
    compute_floor: float  # busiest stage's serial compute (pipeline phase)
    bubble_floor: float  # warm-up + cool-down dependency chains
    comm_floor: float  # exposed DP communication (alpha-beta models)

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")


@dataclass(frozen=True)
class IterationResult:
    """One simulated optimizer step."""

    iteration_time: float
    pipeline_time: float  # makespan of the pipelined fwd/bwd phase
    compute_time: float  # per-stage serial compute (no stalls), max stage
    data_stall: float
    dp_exposed: float
    dp_total_comm: float
    optimizer_time: float
    perturbation: float
    mfu: float
    tokens_per_second: float

    @property
    def bubble_fraction(self) -> float:
        """Fraction of the pipeline phase a stage spent stalled."""
        if self.pipeline_time == 0:
            return 0.0
        return max(0.0, 1.0 - self.compute_time / self.pipeline_time)

    def terms(self) -> Dict[str, float]:
        """The additive per-term breakdown of ``iteration_time``.

        These are the cost-model terms the diagnosis layer residualizes:
        ``pipeline + data_stall + dp_exposed + optimizer (+ perturbation)``
        sums to ``iteration_time`` exactly, so an observed slowdown can be
        attributed to the term that drifted.
        """
        return {
            "pipeline": self.pipeline_time,
            "data_stall": self.data_stall,
            "dp_exposed": self.dp_exposed,
            "optimizer": self.optimizer_time,
            "perturbation": self.perturbation,
        }


class IterationEngine:
    """Prices one iteration of (model, plan, features) on given hardware."""

    def __init__(
        self,
        model: ModelSpec,
        plan: ParallelPlan,
        features: FeatureSet,
        gpu: GpuSpec = AMPERE,
        comm_model: Optional[GroupCommModel] = None,
        peak_flops: Optional[float] = None,
        backend: str = "analytic",
        profile: Optional[object] = None,
    ) -> None:
        """``backend`` selects the collective cost backend ("analytic" or
        "fabric", see :mod:`repro.collectives.fabric`) for the comm model
        built here; an explicitly passed ``comm_model`` keeps its own.

        ``profile`` is an optional
        :class:`~repro.calibration.CalibratedProfile` (duck-typed to avoid
        an import cycle): its fitted constants override the ``gpu`` spec
        and — for a comm model built here — the collective parameters,
        without editing any catalog source.  ``peak_flops`` still refers
        to the *datasheet* peak for MFU accounting, so a profile changes
        predicted times, never the MFU denominator.
        """
        validate_backend(backend)
        self.base_model = model
        self.plan = plan
        self.features = features
        self.profile = profile
        if profile is not None:
            gpu = profile.apply_gpu(gpu)
        self.gpu = gpu
        self.peak_flops = peak_flops or gpu.peak_flops
        if comm_model is None:
            comm_kwargs = {"backend": backend}
            if profile is not None:
                if getattr(profile, "cc_efficiency", None) is not None:
                    comm_kwargs["cc_efficiency"] = profile.cc_efficiency
                if getattr(profile, "inter_node_latency", None) is not None:
                    comm_kwargs["inter_node_latency"] = profile.inter_node_latency
            comm_model = build_comm_model(plan, **comm_kwargs)
        self.comm = comm_model
        self.backend = self.comm.backend
        # Apply the algorithmic options to the executed model.  MFU is
        # still computed against the full-attention reference model.
        self.exec_model = model.with_options(
            parallel_block=features.parallel_block,
            attention_window=features.sliding_window,
        )
        self._build_task_times()

    # -- static per-task costs ------------------------------------------------

    def _build_task_times(self) -> None:
        plan, features = self.plan, self.features
        self.layers_per_chunk = plan.layers_per_chunk(self.base_model.n_layers)
        cost = block_cost(
            self.exec_model,
            self.gpu,
            tp=plan.tp,
            micro_batch=plan.micro_batch,
            flash_attention=features.flash_attention,
            fused_kernels=features.fused_kernels,
            sequence_parallel=plan.sequence_parallel,
        )
        exposure = tp_exposed_per_layer(cost, features)
        self.f_chunk = self.layers_per_chunk * (cost.forward_compute + exposure.forward)
        self.b_chunk = self.layers_per_chunk * (cost.backward_compute + exposure.backward)
        if plan.recompute == "full":
            # Full recomputation re-runs the layer forward inside backward.
            self.b_chunk += self.layers_per_chunk * cost.forward_compute
        self.embed_extra = embedding_cost(self.exec_model, self.gpu, plan.tp, plan.micro_batch)
        logits = logits_block_cost(self.exec_model, self.gpu, plan.tp, plan.micro_batch)
        self.logits_fwd, self.logits_bwd = logits.forward, logits.backward
        self.p2p_time = self.comm.pp_p2p_time(
            activation_bytes(self.exec_model, plan.micro_batch)
        )
        self.pp = pp_policy(features)

    def check_memory(self):
        """(fits, MemoryBreakdown) for this engine's configuration.

        Advisory, not enforced: the engine will happily price an
        infeasible config so what-if studies can quantify *how far* out
        of memory a plan is.
        """
        from ..model.memory import fits as fits_fn, memory_breakdown

        plan = self.plan
        kwargs = dict(
            tp=plan.tp,
            pp=plan.pp,
            dp=plan.dp,
            micro_batch=plan.micro_batch,
            vpp=plan.vpp,
            zero_stage=plan.zero_stage,
            recompute=plan.recompute,
        )
        return (
            fits_fn(self.base_model, self.gpu, **kwargs),
            memory_breakdown(self.base_model, **kwargs),
        )

    def task_time(self, stage: int, kind: str, chunk: int) -> float:
        """Compute (+ exposed TP comm) seconds of one pipeline task."""
        base = self.f_chunk if kind == "F" else self.b_chunk
        if stage == 0 and chunk == 0 and kind == "F":
            base += self.embed_extra
        if stage == self.plan.pp - 1 and chunk == self.plan.vpp - 1:
            base += self.logits_fwd if kind == "F" else self.logits_bwd
        return base

    # -- pipeline execution -----------------------------------------------------

    def pipeline_makespan(
        self,
        m: int,
        stage_speed: Optional[Sequence[float]] = None,
        trace: Optional[object] = None,
    ) -> Tuple[float, float]:
        """(makespan, max per-stage serial compute) for ``m`` micro-batches.

        Executes every stage's interleaved-1F1B program (see
        :func:`~repro.parallel.pipeline.stage_program`) against the
        cross-stage activation/gradient dependencies, stage by stage,
        each stage running until it blocks on an upstream task.
        ``stage_speed`` derates each stage's compute (straggler hosts).  Pass a
        :class:`~repro.sim.TraceRecorder` as ``trace`` to record every
        task as a span (rank = pipeline stage) for the Figure 8 timeline.
        """
        p, v = self.plan.pp, self.plan.vpp
        speeds = list(stage_speed) if stage_speed is not None else [1.0] * p
        if len(speeds) != p:
            raise ValueError(f"need {p} stage speed factors, got {len(speeds)}")
        if any(s <= 0 for s in speeds):
            raise ValueError("stage speed factors must be positive")

        # (stage, cost class) -> (duration, send block); classes are
        # enumerated kind-major, then chunk, then phase (see stage_program).
        p2p = self.p2p_time
        costs = []
        for s in range(p):
            row = []
            for kind in ("F", "B"):
                for chunk in range(v):
                    duration = self.task_time(s, kind, chunk) / speeds[s]
                    sends = self._task_sends(s, kind, chunk)
                    for phase in PHASES:
                        send_block = self.pp.sender_block_time(p2p, phase) if sends else 0.0
                        row.append((duration, send_block))
            costs.append(row)

        programs = [stage_program(p, v, m, s) for s in range(p)]
        per_stage = 2 * v * m
        end = [-1.0] * (p * per_stage)  # task key -> finish time; < 0 until run
        ptr = [0] * p
        clock = [0.0] * p
        busy = [0.0] * p
        remaining = p * per_stage
        while remaining:
            progressed = False
            for s in range(p):
                keys, deps, classes = programs[s]
                row = costs[s]
                i = first = ptr[s]
                t, b = clock[s], busy[s]
                while i < per_stage:
                    d = deps[i]
                    if d < 0:
                        ready = 0.0
                    else:
                        ready = end[d]
                        if ready < 0.0:
                            break  # blocked on an upstream task
                        ready += p2p
                    duration, send_block = row[classes[i]]
                    start = t if t >= ready else ready
                    finish = start + duration
                    key = keys[i]
                    end[key] = finish
                    if trace is not None:
                        trace.record(
                            "B" if key // (v * m) % 2 else "F",
                            rank=s,
                            start=start,
                            end=finish,
                            stream="compute",
                            microbatch=key % m,
                            chunk=key // m % v,
                        )
                        if send_block:
                            trace.record(
                                "send",
                                rank=s,
                                start=finish,
                                end=finish + send_block,
                                stream="comm",
                            )
                    t = finish + send_block
                    b += duration + send_block
                    i += 1
                if i > first:
                    ptr[s], clock[s], busy[s] = i, t, b
                    remaining -= i - first
                    progressed = True
            if not progressed:
                raise RuntimeError("pipeline deadlocked: invalid schedule/dependency")
        return max(clock), max(busy)

    def _task_sends(self, stage: int, kind: str, chunk: int) -> bool:
        p, v = self.plan.pp, self.plan.vpp
        if kind == "F":
            return not (stage == p - 1 and chunk == v - 1)  # loss stays local
        return not (stage == 0 and chunk == 0)  # grads of the first chunk stay

    def pp_send_counts(self, m: int) -> list:
        """Pipeline sends each stage's NIC carries per iteration.

        Derived from :meth:`_task_sends` so the accounting matches the
        executed schedule exactly: the last stage's final forward chunk
        and the first stage's first backward chunk never leave the GPU,
        so edge stages send fewer than ``2 * m * vpp`` activations.
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        p, v = self.plan.pp, self.plan.vpp
        return [
            m
            * sum(
                1
                for kind in ("F", "B")
                for chunk in range(v)
                if self._task_sends(stage, kind, chunk)
            )
            for stage in range(p)
        ]

    # -- analytic bounds (no task-graph execution) ---------------------------------

    def _dp_phase_times(self, global_batch: int):
        """(data_cost, dp_exposure, optimizer_time) — the closed-form,
        non-pipeline phases of :meth:`simulate`, priced exactly.

        DP collective times are computed first: the asynchronous data
        pipeline hides next-step preprocessing under *this* step's
        gradient synchronization (§3.4), so that phase's duration is the
        finite hide window ``data_pipeline_cost`` charges residuals
        against."""
        events = dp_comm_events(self.base_model, self.plan)
        timed = [(e, self.comm.dp_collective_time(e.kind, e.size)) for e in events]
        grad_sync = sum(
            t for e, t in timed if e.kind in ("reduce_scatter", "all_reduce")
        )
        data = data_pipeline_cost(
            self.base_model, self.plan, global_batch, self.features, hide_window=grad_sync
        )
        window = overlap_window(data, self.features)
        dp = dp_exposed_time(timed, self.features, data_load_window=window)
        optimizer = optimizer_step_time(self.base_model, self.plan, self.gpu.memory_bandwidth)
        return data, dp, optimizer

    def analytic_bounds(self, global_batch: int) -> IterationBounds:
        """Admissible lower / pessimistic upper bracket on ``simulate``.

        Everything outside the pipeline phase (data stall, exposed DP
        communication, optimizer step) is closed-form and priced exactly.
        The pipeline makespan is bracketed:

        * **Lower** — every stage's schedule begins with the forward of
          (micro-batch 0, chunk 0) and ends with the backward of (last
          micro-batch, chunk 0), so the makespan is at least the warm-up
          chain into the last stage (``(p-1)`` forwards + p2p hops), plus
          that stage's serial work (``m·v·(F+B)`` + logits extras), plus
          the cool-down chain back to stage 0 (``(p-1)`` backwards + p2p
          hops).  With ``v`` interleaved chunks the chain terms carry the
          classic ``(p-1)/(v·m)`` bubble fraction.  DP exposure is
          floored at the overlap model's value (the NIC-spill term of
          ``simulate`` can only add).
        * **Upper** — at any instant before completion some stage is
          either computing or a p2p transfer is in flight, so the
          makespan never exceeds the sum of all stages' serial work plus
          every dependency edge's transfer time; DP exposure is capped
          at the total collective time (everything spills).

        Bounds hold for the default ``simulate`` arguments (uniform
        stage speeds, no perturbation) — the configuration :func:`tune`
        prices.
        """
        plan = self.plan
        m = plan.n_microbatches(global_batch)
        p, v = plan.pp, plan.vpp
        F, B = self.f_chunk, self.b_chunk
        p2p = self.p2p_time if p > 1 else 0.0
        logits = self.logits_fwd + self.logits_bwd

        stage_work = m * v * (F + B)
        busy_last = stage_work + m * logits
        busy_first = stage_work + m * self.embed_extra + (m * logits if p == 1 else 0.0)
        compute_floor = max(busy_first, busy_last)
        bubble_floor = (p - 1) * (F + B + 2.0 * p2p)
        pipeline_lower = max(compute_floor, busy_last + bubble_floor)

        # Upper: all serial work anywhere + every edge's transfer + the
        # worst-case sender-side blocking of each actual send.
        sends = sum(self.pp_send_counts(m)) if p > 1 else 0
        total_busy = (
            p * stage_work + m * self.embed_extra + m * logits + sends * p2p
        )
        pipeline_upper = total_busy + 2.0 * m * v * p * p2p

        data, dp, optimizer = self._dp_phase_times(global_batch)
        base = data.exposed_stall + optimizer
        lower = base + pipeline_lower + dp.exposed
        upper = base + pipeline_upper + dp.total_comm
        # Coarse single-expression guess: classic bubble-augmented stage
        # work plus the exact closed-form phases.  Orders candidates
        # well; guarantees nothing.
        estimate = base + busy_last + bubble_floor + dp.exposed
        return IterationBounds(
            lower=lower,
            upper=upper,
            estimate=estimate,
            compute_floor=compute_floor,
            bubble_floor=bubble_floor,
            comm_floor=dp.exposed,
        )

    # -- full iteration ------------------------------------------------------------

    def simulate(
        self,
        global_batch: int,
        stage_speed: Optional[Sequence[float]] = None,
        perturbation: float = 0.0,
        speed_factor: float = 1.0,
    ) -> IterationResult:
        """One optimizer step at ``global_batch`` sequences.

        ``speed_factor`` derates every stage uniformly (whole-job
        straggler effect); ``stage_speed`` derates individual stages.
        """
        plan = self.plan
        m = plan.n_microbatches(global_batch)
        if not 0 < speed_factor <= 1:
            raise ValueError("speed_factor must be in (0, 1]")
        speeds = list(stage_speed) if stage_speed is not None else [1.0] * plan.pp
        speeds = [s * speed_factor for s in speeds]
        pipeline, busy = self.pipeline_makespan(m, speeds)

        data, dp, optimizer = self._dp_phase_times(global_batch)
        # Hidden DP traffic still needs NIC-seconds, and the NIC is also
        # carrying pipeline p2p transfers; if the pipeline phase is too
        # short to absorb both, the excess surfaces on the critical path.
        hidden = dp.total_comm - dp.exposed
        # Each rank's NIC carries the pp sends of its own stage, and a DP
        # collective is gated by the busiest NIC in its (per-stage) ring —
        # so budget against the stage with the most actual sends.  Not
        # every F/B task sends (see _task_sends), so this is strictly
        # fewer than the naive 2*m*vpp when pp <= 2.
        pp_sends = max(self.pp_send_counts(m)) if plan.pp > 1 else 0
        pp_nic_time = pp_sends * self.p2p_time if plan.pp > 1 else 0.0
        nic_budget = max(0.0, pipeline - pp_nic_time)
        spill = max(0.0, hidden - nic_budget)
        dp_exposed = dp.exposed + spill

        total = data.exposed_stall + pipeline + dp_exposed + optimizer + perturbation
        flops = iteration_model_flops(self.base_model, global_batch)
        mfu = flops / total / (plan.world_size * self.peak_flops)
        tokens = global_batch * self.base_model.seq_len / total
        return IterationResult(
            iteration_time=total,
            pipeline_time=pipeline,
            compute_time=busy,
            data_stall=data.exposed_stall,
            dp_exposed=dp_exposed,
            dp_total_comm=dp.total_comm,
            optimizer_time=optimizer,
            perturbation=perturbation,
            mfu=mfu,
            tokens_per_second=tokens,
        )
