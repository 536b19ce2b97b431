"""The integer-program pipeline executor against the per-task interpreter.

``reference_makespan`` is the readable executor: it walks each stage's
:func:`interleaved_schedule` task list, asks :func:`forward_dependency`
/ :func:`backward_dependency` what every task waits on, and keys finish
times by ``(stage, kind, microbatch, chunk)``.
:meth:`IterationEngine.pipeline_makespan` runs the same recurrence over
:func:`stage_program`'s int lists and must agree with it exactly: same
floats, same trace records in the same order.
"""

from dataclasses import replace
from typing import Dict, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.features import MEGASCALE, MEGATRON_LM
from repro.model import GPT_13B
from repro.parallel import (
    ParallelPlan,
    backward_dependency,
    forward_dependency,
    interleaved_schedule,
)
from repro.parallel.pipeline import PHASES, stage_program
from repro.sim import TraceRecorder
from repro.training import IterationEngine


def reference_makespan(engine, m, stage_speed=None, trace=None):
    """Per-task interpreter for ``engine.pipeline_makespan``."""
    p, v = engine.plan.pp, engine.plan.vpp
    speeds = list(stage_speed) if stage_speed is not None else [1.0] * p
    schedules = [interleaved_schedule(p, v, m, s) for s in range(p)]
    warmup_end = [next((i for i, t in enumerate(sch) if t.kind == "B"), len(sch)) for sch in schedules]
    cooldown_start = [
        max((i for i, t in enumerate(sch) if t.kind == "F"), default=-1) + 1
        for sch in schedules
    ]

    done: Dict[Tuple[int, str, int, int], float] = {}
    ptr = [0] * p
    clock = [0.0] * p
    busy = [0.0] * p
    total_tasks = sum(len(s) for s in schedules)
    completed = 0
    while completed < total_tasks:
        progressed = False
        for s in range(p):
            while ptr[s] < len(schedules[s]):
                task = schedules[s][ptr[s]]
                if task.kind == "F":
                    dep = forward_dependency(p, v, s, task)
                else:
                    dep = backward_dependency(p, v, s, task)
                ready = 0.0
                if dep is not None:
                    dep_stage, dep_task = dep
                    key = (dep_stage,) + dep_task.key
                    if key not in done:
                        break  # blocked on an upstream task
                    ready = done[key] + engine.p2p_time
                duration = engine.task_time(s, task.kind, task.chunk) / speeds[s]
                index = ptr[s]
                if index < warmup_end[s]:
                    phase = "warmup"
                elif index >= cooldown_start[s]:
                    phase = "cooldown"
                else:
                    phase = "steady"
                send_block = (
                    engine.pp.sender_block_time(engine.p2p_time, phase)
                    if engine._task_sends(s, task.kind, task.chunk)
                    else 0.0
                )
                start = max(clock[s], ready)
                end = start + duration
                done[(s,) + task.key] = end
                if trace is not None:
                    trace.record(
                        task.kind,
                        rank=s,
                        start=start,
                        end=end,
                        stream="compute",
                        microbatch=task.microbatch,
                        chunk=task.chunk,
                    )
                    if send_block:
                        trace.record("send", rank=s, start=end, end=end + send_block, stream="comm")
                clock[s] = end + send_block
                busy[s] += duration + send_block
                ptr[s] += 1
                completed += 1
                progressed = True
        if not progressed:
            raise RuntimeError("pipeline deadlocked: invalid schedule/dependency")
    return max(clock), max(busy)


def make_engine(p, v, pp_overlap):
    """A small engine with one layer per model chunk, so any (p, v) is valid."""
    model = replace(GPT_13B, n_layers=p * v)
    features = MEGASCALE.with_options(pp_overlap=pp_overlap)
    return IterationEngine(model, ParallelPlan(dp=1, tp=8, pp=p, vpp=v), features)


@st.composite
def pipeline_cases(draw):
    p = draw(st.integers(min_value=1, max_value=12))
    v = 1 if p == 1 else draw(st.integers(min_value=1, max_value=4))
    if v > 1:
        m = p * draw(st.integers(min_value=1, max_value=64 // p))
    else:
        m = draw(st.integers(min_value=1, max_value=64))
    speeds = draw(st.lists(st.floats(min_value=0.2, max_value=1.0), min_size=p, max_size=p))
    return p, v, m, speeds, draw(st.booleans())


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pipeline_cases())
def test_pipeline_makespan_equals_reference_interpreter(case):
    p, v, m, speeds, pp_overlap = case
    engine = make_engine(p, v, pp_overlap)
    assert engine.p2p_time > 0.0
    fast_trace, slow_trace = TraceRecorder(), TraceRecorder()
    assert engine.pipeline_makespan(m, speeds, trace=fast_trace) == reference_makespan(
        engine, m, speeds, trace=slow_trace
    )
    assert fast_trace.spans() == slow_trace.spans()
    assert engine.pipeline_makespan(m) == reference_makespan(engine, m)


# ``busy`` sums ``duration + send`` per task while the clock adds them one
# at a time, so on a stall-free stage the two differ by rounding alone.
BUSY_ROUNDING = 1e-12


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pipeline_cases(), st.data())
def test_stage_slowdown_never_lowers_makespan(case, data):
    p, v, m, speeds, pp_overlap = case
    engine = make_engine(p, v, pp_overlap)
    makespan, busy = engine.pipeline_makespan(m, speeds)
    assert busy <= makespan * (1 + BUSY_ROUNDING)
    stage = data.draw(st.integers(min_value=0, max_value=p - 1))
    factor = data.draw(st.floats(min_value=0.1, max_value=1.0))
    slower = list(speeds)
    slower[stage] *= factor
    slow_makespan, slow_busy = engine.pipeline_makespan(m, slower)
    assert slow_busy <= slow_makespan * (1 + BUSY_ROUNDING)
    assert slow_makespan >= makespan


def _dense_key(p, v, m, stage, task):
    return ((stage * 2 + (task.kind == "B")) * v + task.chunk) * m + task.microbatch


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=64),
    st.data(),
)
def test_stage_program_matches_reference_schedule(p, v, m, data):
    if v > 1:
        m = p * max(1, m // p)
    stage = data.draw(st.integers(min_value=0, max_value=p - 1))
    schedule = interleaved_schedule(p, v, m, stage)
    keys, deps, classes = stage_program(p, v, m, stage)
    assert len(keys) == len(deps) == len(classes) == len(schedule)
    warmup_end = next((i for i, t in enumerate(schedule) if t.kind == "B"), len(schedule))
    cooldown_start = max(i for i, t in enumerate(schedule) if t.kind == "F") + 1
    for i, task in enumerate(schedule):
        assert keys[i] == _dense_key(p, v, m, stage, task)
        if task.kind == "F":
            dep = forward_dependency(p, v, stage, task)
        else:
            dep = backward_dependency(p, v, stage, task)
        assert deps[i] == (-1 if dep is None else _dense_key(p, v, m, dep[0], dep[1]))
        phase = 0 if i < warmup_end else 2 if i >= cooldown_start else 1
        assert classes[i] == ((task.kind == "B") * v + task.chunk) * len(PHASES) + phase


def test_stage_program_rejects_what_the_schedule_rejects():
    for args in [(4, 2, 6, 0), (0, 1, 4, 0), (4, 1, 0, 0), (4, 0, 4, 0), (4, 1, 4, 4)]:
        with pytest.raises(ValueError) as reference:
            interleaved_schedule(*args)
        with pytest.raises(ValueError) as program:
            stage_program(*args)
        assert str(program.value) == str(reference.value)


def test_pipeline_makespan_input_rejection():
    engine = IterationEngine(GPT_13B, ParallelPlan(dp=1, tp=8, pp=4, vpp=2), MEGATRON_LM)
    with pytest.raises(ValueError, match=r"^p, v and m must all be >= 1$"):
        engine.pipeline_makespan(0)
    with pytest.raises(ValueError, match=r"^interleaving requires microbatches \(6\) % stages \(4\) == 0$"):
        engine.pipeline_makespan(6)
    with pytest.raises(ValueError, match=r"^need 4 stage speed factors, got 3$"):
        engine.pipeline_makespan(8, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=r"^stage speed factors must be positive$"):
        engine.pipeline_makespan(8, [1.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=r"^stage speed factors must be positive$"):
        engine.pipeline_makespan(8, [1.0, 1.0, -0.5, 1.0])
