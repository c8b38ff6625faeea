"""Deterministic whole-system checkpoint/restore.

The snapshot subsystem captures the complete simulation state at a
commit boundary — kernel (clock, active set, wake queue, express
orders), channels, every stateful component, and the control plane's
schedule engine — into a plain, versionable data tree, and restores it
bit-identically into a freshly built system of the same topology.

Three layers:

* :mod:`repro.snapshot.codec` — the :class:`StateCodec` value registry
  that turns live state (beats, flits, deques, enums, cache lines)
  into plain primitives and back;
* :mod:`repro.snapshot.state` — :func:`capture_simulator` /
  :func:`restore_simulator`, the commit-boundary whole-system walk;
* :mod:`repro.snapshot.store` — the versioned, compressed on-disk
  checkpoint format (:func:`save_checkpoint` / :func:`load_checkpoint`).

The determinism contract (what state is owned by whom, why capture is
legal only at commit boundaries, format versioning) is DESIGN.md
section 10.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "codec": ("SnapshotError", "StateCodec", "decode_state", "encode_state"),
    "state": ("SNAPSHOT_FORMAT", "capture_simulator", "restore_simulator"),
    "store": ("load_checkpoint", "save_checkpoint"),
})
