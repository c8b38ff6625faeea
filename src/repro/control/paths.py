"""The control-plane path grammar: one importable source of truth.

Every dotted probe/knob path a built system publishes follows a small
grammar (see :mod:`repro.control.wiring`, which registers them)::

    port.<mgr>.<aw|w|b|ar|r>.<sent|recv|busy_cycles|occupancy>
    realm.<mgr>.<status field>
    realm.<mgr>.ctrl.<regulation|isolate|throttle|splitter>
    realm.<mgr>.granularity
    realm.<mgr>.region<N>.<bookkeeping or budget field>
    xbar.<aw_forwarded|ar_forwarded|decode_errors>   xbar.<mgr>.qos
    noc.<flits|flits_injected>    noc.r<X>c<Y>.<occupancy|flits_routed>
    mem.<name>.<service counter>  cache.<name>.<hit/miss counter>
    traffic.<mgr>.<generator counter or knob>
    driver.<mgr>.<completed|pending>

This module owns (a) the *segment charset* shared by
:class:`~repro.control.probes.ProbeRegistry` and
:class:`~repro.control.knobs.KnobRegistry` path validation, and (b) the
*path templates* above, so the registries, the telemetry tooling, and
the ``probe-path-literal`` lint rule (:mod:`repro.lint.rules.probe_paths`)
all validate against the same grammar instead of duplicated literals.

The templates are deliberately *structural*: manager/memory names are
free identifiers (scenario files invent them), but the root, the fixed
middle segments (``ctrl``, ``region<N>``, ``r<X>c<Y>``, the five AXI
channel names), and the leaf field names are closed sets, which is what
catches typos like ``realm.dma.regoin0.total_bytes`` statically.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

#: Characters legal inside one dotted-path segment (shared with the
#: scenario manager-name check and both registries).
SEGMENT_CHARS = "_-"


def is_path_segment(segment: str) -> bool:
    """True when *segment* is a legal dotted-path segment."""
    return bool(segment) and all(
        c.isalnum() or c in SEGMENT_CHARS for c in segment
    )


def check_dotted_path(path: str, error: type, what: str) -> str:
    """Shared dotted-path charset check for probe and knob registries."""
    if not path or not all(is_path_segment(seg) for seg in path.split(".")):
        raise error(f"malformed {what} path {path!r}")
    return path


# ----------------------------------------------------------------------
# structural templates
# ----------------------------------------------------------------------
class _Slot:
    """A template slot matching one path segment by shape."""

    def __init__(self, kind: str, label: str) -> None:
        self.kind = kind
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<slot {self.label}>"

    def matches(self, segment: str) -> bool:
        if self.kind == "name":
            return is_path_segment(segment)
        if self.kind == "region":
            return (
                segment.startswith("region")
                and segment[len("region"):].isdigit()
            )
        # router: r<X>c<Y>
        if not segment.startswith("r") or "c" not in segment[1:]:
            return False
        x, _, y = segment[1:].partition("c")
        return x.isdigit() and y.isdigit()


#: Any component/manager/memory name (scenario files invent these).
NAME = _Slot("name", "<name>")
#: ``region<N>`` — a REALM unit's numbered reservation region.
REGION = _Slot("region", "region<N>")
#: ``r<X>c<Y>`` — a NoC router's mesh coordinate.
ROUTER = _Slot("router", "r<X>c<Y>")

#: The five AXI channels a manager port publishes.
PORT_CHANNELS = frozenset(("aw", "w", "b", "ar", "r"))
PORT_FIELDS = frozenset(("sent", "recv", "busy_cycles", "occupancy"))

REALM_UNIT_FIELDS = frozenset((
    "isolated", "outstanding", "denied_by_budget", "denied_by_throttle",
    "blocked_aw", "blocked_ar", "granularity",
))
REALM_CTRL_FIELDS = frozenset((
    "regulation", "isolate", "throttle", "splitter",
))
REALM_REGION_FIELDS = frozenset((
    # bookkeeping probes
    "bytes_this_period", "total_bytes", "read_bytes", "write_bytes",
    "txn_count", "latency_sum", "latency_max", "stall_cycles",
    "bandwidth_milli", "budget_remaining",
    # register-file knobs
    "budget_bytes", "period_cycles", "base", "size",
))

XBAR_FIELDS = frozenset(("aw_forwarded", "ar_forwarded", "decode_errors"))
NOC_FIELDS = frozenset(("flits_injected", "flits"))
NOC_ROUTER_FIELDS = frozenset(("occupancy", "flits_routed"))

MEM_FIELDS = frozenset((
    "reads_served", "writes_served", "read_beats", "write_beats",
    "atomics_served", "row_hits", "row_misses",
))
CACHE_FIELDS = frozenset((
    "hits", "misses", "writebacks", "refills",
    "reads_served", "writes_served",
))

TRAFFIC_FIELDS = frozenset((
    # core model
    "progress", "done", "worst_latency",
    # dma
    "bytes_read", "bytes_written", "read_bursts", "write_bursts",
    "enabled", "inter_burst_gap",
    # hog / staller / trickler
    "bytes_stolen", "max_outstanding", "aws_sent", "repeat",
    "bursts_completed", "gap",
))
DRIVER_FIELDS = frozenset(("completed", "pending"))

Segment = Union[_Slot, frozenset]

#: Every published path shape, as (root, slot...) tuples.  A literal
#: path is valid iff it fully matches one template; a glob pattern is
#: valid iff its literal prefix (the segments before the first glob
#: metacharacter) is a prefix of one template.
PATH_TEMPLATES: tuple[tuple[str, ...], ...] = tuple(
    (root, *slots)
    for root, slots in (
        ("port", (NAME, PORT_CHANNELS, PORT_FIELDS)),
        ("realm", (NAME, REALM_UNIT_FIELDS)),
        ("realm", (NAME, frozenset(("ctrl",)), REALM_CTRL_FIELDS)),
        ("realm", (NAME, REGION, REALM_REGION_FIELDS)),
        ("xbar", (XBAR_FIELDS,)),
        ("xbar", (NAME, frozenset(("qos",)))),
        ("noc", (NOC_FIELDS,)),
        ("noc", (ROUTER, NOC_ROUTER_FIELDS)),
        ("mem", (NAME, MEM_FIELDS)),
        ("cache", (NAME, CACHE_FIELDS)),
        ("traffic", (NAME, TRAFFIC_FIELDS)),
        ("driver", (NAME, DRIVER_FIELDS)),
    )
)

#: The grammar's root segments (``realm``, ``port``, ...).
PATH_ROOTS = frozenset(template[0] for template in PATH_TEMPLATES)

#: ``fnmatch`` metacharacters legal in probe *patterns* (scenario
#: ``sample`` lists, ``watch --sample``); never legal in knob paths.
GLOB_CHARS = "*?["


def _segment_fits(segment: str, slot: Segment) -> bool:
    if isinstance(slot, frozenset):
        return segment in slot
    return slot.matches(segment)


def _slot_label(slot: Segment) -> str:
    if isinstance(slot, frozenset):
        options = sorted(slot)
        if len(options) > 4:
            return "<" + "|".join(options[:4]) + "|...>"
        return "<" + "|".join(options) + ">"
    return slot.label


def _candidate_templates(root: str) -> list[tuple[str, ...]]:
    return [t for t in PATH_TEMPLATES if t[0] == root]


def looks_like_path(text: str) -> bool:
    """Cheap shape test: is *text* plausibly a control-plane path or
    pattern?  (Rooted at a known grammar root, dotted, and every
    character legal in a segment or a glob.)  Used by the lint rule to
    pick path-like string literals out of arbitrary code."""
    if "." not in text:
        return False
    segments = text.split(".")
    if segments[0] not in PATH_ROOTS:
        return False
    return all(
        seg and all(c.isalnum() or c in SEGMENT_CHARS + GLOB_CHARS
                    for c in seg)
        for seg in segments
    )


def _prefix_error(
    segments: Sequence[str], templates: Iterable[tuple[str, ...]]
) -> Optional[str]:
    """Deepest-mismatch error for a literal segment prefix, or None."""
    best_depth = -1
    best: Optional[str] = None
    for template in templates:
        depth = 0
        error: Optional[str] = None
        for index, segment in enumerate(segments[1:], start=1):
            if index >= len(template):
                error = (
                    f"segment {segment!r} goes past the "
                    f"{'.'.join(str(s) for s in segments[:index])!r} grammar"
                )
                break
            if not _segment_fits(segment, template[index]):
                error = (
                    f"segment {segment!r} does not match "
                    f"{_slot_label(template[index])}"
                )
                break
            depth = index
        else:
            return None  # whole prefix fits this template
        if depth > best_depth:
            best_depth, best = depth, error
    return best


def validate_path(text: str, *, pattern: bool = False) -> Optional[str]:
    """Validate one dotted path (or, with ``pattern=True`` allowed,
    an ``fnmatch`` pattern) against the registry grammar.

    Returns ``None`` when *text* is grammatical, else a short reason.
    Literal paths must fully match one template; glob patterns are
    checked on the literal segments before the first metacharacter
    (what :meth:`ProbeRegistry.match` resolves them against).
    """
    segments = text.split(".")
    root = segments[0]
    if root not in PATH_ROOTS:
        return f"unknown path root {root!r}"
    templates = _candidate_templates(root)
    has_glob = any(c in GLOB_CHARS for c in text)
    if has_glob:
        if not pattern:
            return "glob metacharacters are not legal here"
        literal: list[str] = []
        for segment in segments:
            if any(c in GLOB_CHARS for c in segment):
                break
            literal.append(segment)
        if len(literal) <= 1:
            return None  # e.g. "realm.*" — nothing literal to check
        return _prefix_error(literal, templates)
    for segment in segments:
        if not is_path_segment(segment):
            return f"malformed segment {segment!r}"
    full = [
        t for t in templates
        if len(t) == len(segments)
        and all(_segment_fits(s, slot)
                for s, slot in zip(segments[1:], t[1:]))
    ]
    if full:
        return None
    prefix_error = _prefix_error(segments, templates)
    if prefix_error is not None:
        return prefix_error
    return (
        f"no {root!r} template has {len(segments)} segments"
    )
