#!/usr/bin/env python3
"""Trace one FINRA invocation and render its timeline.

Runs a small FINRA invocation under RMMAP through the
:func:`repro.api.run` façade with telemetry on, prints a text Gantt chart
— the two fetch functions overlap, the audit fan-out runs as one parallel
band, and the merge waits for it all — then exports the full cross-layer
Chrome trace for chrome://tracing or https://ui.perfetto.dev.

Run:  python examples/trace_workflow.py
"""

from repro import obs
from repro.api import run


def main() -> None:
    result = run("finra", transport="rmmap-prefetch", scale=0.1, telemetry=True)
    record = result.record
    print(f"FINRA invocation: {record.latency_ns / 1e6:.2f} ms, "
          f"{record.result['total_violations']} violations\n")
    # the hub also holds the pre-warm invocation; chart the measured one
    print(obs.render_gantt(result.telemetry, trace_id=result.trace_id))
    print("\nNote how the audit instances form one parallel band: "
          "their (de)serialization-free receives all map the same "
          "registered producer memory.")

    out = "/tmp/finra_trace.json"
    result.write_trace(out)
    print(f"\nChrome trace with spans + per-layer counters: {out}")


if __name__ == "__main__":
    main()
