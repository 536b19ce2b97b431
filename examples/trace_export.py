#!/usr/bin/env python
"""Export a pipeline execution trace to Chrome trace-event format.

Runs one iteration's pipeline phase with span recording on a telemetry
hub's ``training`` lane and writes the hub's ``chrome://tracing`` /
Perfetto-loadable JSON document — the practical version of the paper's
Figure 8 timeline UI.

    python examples/trace_export.py [output.json]
"""

import json
import sys

from repro.core.features import MEGASCALE_ISO_BATCH
from repro.model import GPT_175B
from repro.observability import DistributedTimeline, TelemetryHub
from repro.parallel import plan_for_gpus
from repro.training import IterationEngine


def main() -> None:
    output = sys.argv[1] if len(sys.argv) > 1 else "pipeline_trace.json"
    plan = plan_for_gpus(256, tp=8, pp=8, vpp=2, micro_batch=1)
    engine = IterationEngine(GPT_175B, plan, MEGASCALE_ISO_BATCH)
    hub = TelemetryHub(job_name="175B pipeline (16 micro-batches)")
    trace = hub.recorder("training")
    makespan, busy = engine.pipeline_makespan(m=16, trace=trace)

    document = hub.to_chrome_trace()
    with open(output, "w") as handle:
        json.dump(document, handle)
    timeline = DistributedTimeline.from_trace(trace)
    print(f"pipeline makespan {makespan * 1e3:.0f} ms, busiest stage {busy * 1e3:.0f} ms")
    print(f"wrote {len(document['traceEvents'])} trace events to {output}")
    print("open chrome://tracing (or https://ui.perfetto.dev) and load the file.")
    print("\nASCII preview:")
    print(timeline.render_ascii(width=72))


if __name__ == "__main__":
    main()
