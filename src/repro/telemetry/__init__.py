"""Live telemetry: stream, watch, and steer a running simulation.

The package is an *execution-side* observability layer (DESIGN.md
section 12): :class:`ProbeTap` publishes commit-boundary probe samples
to in-process consumers, :class:`TelemetryServer` streams them as
length-prefixed JSON frames to socket clients and accepts pause /
inspect / knob-write / checkpoint / resume commands, and
:class:`TelemetryClient` + the sinks/display helpers power the
``repro watch`` CLI.  Nothing in here is simulated state — attaching,
watching, pausing, and detaching never change a single observable.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "client": ("TelemetryClient", "TelemetryClientError", "parse_target"),
    "display": ("Dashboard", "sparkline"),
    "sinks": ("CsvSink", "JsonlSink", "MemorySink", "open_sink"),
    "server": ("TelemetryError", "TelemetryServer"),
    "tap": ("ProbeTap", "TapError", "TapFrame", "TapSubscription"),
    "wire": ("MAX_MESSAGE", "MessageDecoder", "WireError", "encode_message",
             "encode_payload", "recv_message", "send_message"),
})
