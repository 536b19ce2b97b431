"""Pipeline-parallel schedules: GPipe, 1F1B, interleaved 1F1B (§2, Fig. 2).

A schedule is a per-stage ordered list of :class:`PipelineTask`, and
:func:`forward_dependency` / :func:`backward_dependency` name the
cross-stage task each one waits on.  These are the readable reference.

The engine in :mod:`repro.training.iteration` executes the same
interleaved-1F1B schedule from :func:`stage_program`: three parallel int
lists per stage (task key, dependency key, cost class) computed by
arithmetic from the warm-up count, so pricing an iteration builds no task
objects.  Bubbles still emerge from the dependency structure rather than
from a closed-form formula; the closed forms are provided for analysis
(`bubble_fraction`) and are property-tested against the executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class PipelineTask:
    """One unit of pipeline work on a stage: F or B of (micro-batch, chunk)."""

    kind: str  # "F" | "B"
    microbatch: int
    chunk: int  # virtual-stage (model chunk) index on this rank

    def __post_init__(self) -> None:
        if self.kind not in ("F", "B"):
            raise ValueError(f"task kind must be F or B, got {self.kind!r}")

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.kind, self.microbatch, self.chunk)


def gpipe_schedule(p: int, m: int, stage: int) -> List[PipelineTask]:
    """GPipe: all forwards, a flush, then all backwards."""
    _validate(p, 1, m, stage)
    forwards = [PipelineTask("F", mb, 0) for mb in range(m)]
    backwards = [PipelineTask("B", mb, 0) for mb in reversed(range(m))]
    return forwards + backwards


def one_f_one_b_schedule(p: int, m: int, stage: int) -> List[PipelineTask]:
    """PipeDream-flush 1F1B: warm-up, steady 1F1B, cool-down."""
    _validate(p, 1, m, stage)
    warmup = _warmup_count(p, 1, m, stage)
    tasks: List[PipelineTask] = []
    fwd = bwd = 0
    for _ in range(warmup):
        tasks.append(PipelineTask("F", fwd, 0))
        fwd += 1
    while fwd < m:
        tasks.append(PipelineTask("F", fwd, 0))
        fwd += 1
        tasks.append(PipelineTask("B", bwd, 0))
        bwd += 1
    while bwd < m:
        tasks.append(PipelineTask("B", bwd, 0))
        bwd += 1
    return tasks


def interleaved_schedule(p: int, v: int, m: int, stage: int) -> List[PipelineTask]:
    """Megatron-LM interleaved 1F1B with ``v`` model chunks per stage.

    Micro-batch count ``m`` must be a multiple of ``p`` (Megatron's own
    requirement); ``v == 1`` degenerates to plain 1F1B.
    """
    _validate(p, v, m, stage)
    if v == 1:
        return one_f_one_b_schedule(p, m, stage)
    if m % p != 0:
        raise ValueError(f"interleaving requires microbatches ({m}) % stages ({p}) == 0")
    total = m * v
    warmup = _warmup_count(p, v, m, stage)

    def f_task(k: int) -> PipelineTask:
        chunk = (k // p) % v
        mb = (k // (p * v)) * p + k % p
        return PipelineTask("F", mb, chunk)

    def b_task(k: int) -> PipelineTask:
        chunk = v - 1 - (k // p) % v
        mb = (k // (p * v)) * p + k % p
        return PipelineTask("B", mb, chunk)

    tasks: List[PipelineTask] = []
    fwd = bwd = 0
    for _ in range(warmup):
        tasks.append(f_task(fwd))
        fwd += 1
    while fwd < total:
        tasks.append(f_task(fwd))
        fwd += 1
        tasks.append(b_task(bwd))
        bwd += 1
    while bwd < total:
        tasks.append(b_task(bwd))
        bwd += 1
    return tasks


PHASES = ("warmup", "steady", "cooldown")


def stage_program(p: int, v: int, m: int, stage: int) -> Tuple[List[int], List[int], List[int]]:
    """One stage's interleaved-1F1B schedule as ``(keys, deps, classes)``.

    The three int lists are in schedule order, position for position the
    same tasks as :func:`interleaved_schedule`:

    * ``keys[i]`` is the task's dense key
      ``((stage * 2 + kind) * v + chunk) * m + microbatch`` with kind
      0 for F and 1 for B, so the ``2 * p * v * m`` tasks of a whole
      pipeline index one flat list;
    * ``deps[i]`` is the key of the task named by
      :func:`forward_dependency` / :func:`backward_dependency`, or -1;
    * ``classes[i]`` is the cost class ``(kind * v + chunk) * 3 + phase``,
      with ``phase`` indexing :data:`PHASES` (the warm-up ends at the
      first backward, the cool-down starts after the last forward).

    With ``w`` warm-up forwards and ``total = m * v`` tasks of each kind,
    forward ``k`` sits at position ``k`` if ``k < w``, else
    ``w + 2 * (k - w)``; backward ``k`` sits at ``w + 2 * k + 1`` if
    ``k < total - w``, else ``total + k``.
    """
    _validate(p, v, m, stage)
    if v > 1 and m % p != 0:
        raise ValueError(f"interleaving requires microbatches ({m}) % stages ({p}) == 0")
    total = m * v
    warmup = _warmup_count(p, v, m, stage)
    steady = total - warmup

    # Forward k runs chunk c = (k // p) % v of micro-batch
    # (k // (p v)) p + k % p, backward k the same micro-batch on chunk
    # v - 1 - c: a cycle of p * v tasks that advances p micro-batches per
    # round (1F1B's last round may be partial, hence the [:total] cuts).
    rounds = -(-total // (p * v))
    f_order = [c for c in range(v) for _ in range(p)]
    b_order = f_order[::-1]
    stride = 2 * v * m  # key distance between neighbouring stages
    f_base = stage * stride
    b_base = f_base + v * m

    def cycle_keys(base: int, chunks: range) -> List[int]:
        cell = [c * m + r for c in chunks for r in range(p)]
        return [shift + x for shift in range(base, base + rounds * p, p) for x in cell][:total]

    f_keys = cycle_keys(f_base, range(v))
    b_keys = cycle_keys(b_base, range(v - 1, -1, -1))
    if stage > 0:
        f_deps = [key - stride for key in f_keys]
    else:  # chunk c > 0 reads the last stage's chunk c - 1
        wrap = (p - 1) * stride - m
        f_deps = [key + wrap if c else -1 for key, c in zip(f_keys, f_order * rounds)]
    if stage < p - 1:
        b_deps = [key + stride for key in b_keys]
    else:  # chunk c < v - 1 reads the first stage's chunk c + 1
        wrap = m - (p - 1) * stride
        b_deps = [key + wrap if c < v - 1 else -1 for key, c in zip(b_keys, b_order * rounds)]

    # Forwards 0..warmup run before the first backward (warm-up), the
    # rest in steady state; backwards from steady - 1 on run after the
    # last forward (cool-down).
    f_cut, b_cut = min(warmup + 1, total), max(steady - 1, 0)
    f_class = [3 * c for c in f_order] * rounds
    b_class = [3 * (v + c) for c in b_order] * rounds
    f_classes = f_class[:f_cut] + [c + 1 for c in f_class[f_cut:total]]
    b_classes = [c + 1 for c in b_class[:b_cut]] + [c + 2 for c in b_class[b_cut:total]]

    def interleave(f: List[int], b: List[int]) -> List[int]:
        out = f[:warmup] + [0] * (2 * steady) + b[steady:]
        out[warmup : warmup + 2 * steady : 2] = f[warmup:]
        out[warmup + 1 : warmup + 2 * steady : 2] = b[:steady]
        return out

    keys = interleave(f_keys, b_keys)
    deps = interleave(f_deps, b_deps)
    classes = interleave(f_classes, b_classes)
    return keys, deps, classes


def forward_dependency(
    p: int, v: int, stage: int, task: PipelineTask
) -> Optional[Tuple[int, PipelineTask]]:
    """The (stage, task) whose output this forward consumes, or None.

    The virtual-stage order walks stages 0..p-1 within a chunk, then wraps
    to chunk+1 on stage 0.
    """
    if task.kind != "F":
        raise ValueError("forward_dependency takes an F task")
    if stage > 0:
        return (stage - 1, PipelineTask("F", task.microbatch, task.chunk))
    if task.chunk > 0:
        return (p - 1, PipelineTask("F", task.microbatch, task.chunk - 1))
    return None  # first virtual stage reads input data


def backward_dependency(
    p: int, v: int, stage: int, task: PipelineTask
) -> Optional[Tuple[int, PipelineTask]]:
    """The (stage, task) whose gradient this backward consumes, or None."""
    if task.kind != "B":
        raise ValueError("backward_dependency takes a B task")
    if stage < p - 1:
        return (stage + 1, PipelineTask("B", task.microbatch, task.chunk))
    if task.chunk < v - 1:
        return (0, PipelineTask("B", task.microbatch, task.chunk + 1))
    return None  # last virtual stage starts from the loss


def bubble_fraction(p: int, v: int, m: int) -> float:
    """Paper's §3.1 bubble ratio for interleaved 1F1B: (p-1)/(v*m)."""
    _validate(p, v, m, 0)
    return (p - 1) / (v * m)


def lamb_bubble_reduction(v: int, p: int, m: int, batch_scale: int = 4) -> float:
    """Fractional bubble saving from scaling batch by ``batch_scale`` (§3.1).

    Training ``batch_scale`` steps at 1x batch costs ``batch_scale * (p-1)/(v*m)``
    bubbles; one step at ``batch_scale``x costs ``(p-1)/(v*batch_scale*m)``.
    The paper's instance (4x) yields 1 - 1/16 = 93.75%... measured against
    total bubble time of the four steps: 1 - 1/(batch_scale**2).
    """
    if batch_scale < 1:
        raise ValueError("batch_scale must be >= 1")
    before = batch_scale * bubble_fraction(p, v, m)
    after = bubble_fraction(p, v, m * batch_scale)
    return 1.0 - after / before


def schedule_for(p: int, v: int, m: int, stage: int, kind: str = "interleaved") -> List[PipelineTask]:
    """Dispatch on schedule name: gpipe | 1f1b | interleaved."""
    if kind == "gpipe":
        return gpipe_schedule(p, m, stage)
    if kind == "1f1b":
        return one_f_one_b_schedule(p, m, stage)
    if kind == "interleaved":
        return interleaved_schedule(p, v, m, stage)
    raise ValueError(f"unknown schedule kind {kind!r}")


def _warmup_count(p: int, v: int, m: int, stage: int) -> int:
    """Forwards a stage runs before its first backward (1F1B when v == 1)."""
    if v == 1:
        return min(p - stage - 1, m)
    return min((p - stage - 1) * 2 + (v - 1) * p, m * v)


def _validate(p: int, v: int, m: int, stage: int) -> None:
    if p < 1 or v < 1 or m < 1:
        raise ValueError("p, v and m must all be >= 1")
    if not 0 <= stage < p:
        raise ValueError(f"stage {stage} out of range for p={p}")
