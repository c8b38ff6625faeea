"""Byte-addressable backing store shared by the memory models."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.axi.types import bytes_per_beat


def contiguous_runs(
    addrs: Sequence[int], start: int, stop: int, nbytes: int
) -> list[tuple[int, int]]:
    """Split the beat addresses ``addrs[start:stop]`` into maximal runs.

    Returns ``(first_addr, beats)`` pairs in beat order; inside a run
    every address is the previous one plus *nbytes*.  A burst's address
    list (``beat_addresses``) advances by *nbytes* except after an
    unaligned INCR first beat, at a WRAP wrap point and at every FIXED
    repeat, and never returns to its linear track once it leaves it —
    so "beat ``j`` continues the run from ``i``" holds for a prefix of
    the beats, and each run's end is found by bisection.
    """
    runs = []
    i = start
    while i < stop:
        first = addrs[i]
        lo, hi = i, stop - 1
        if addrs[hi] != first + (hi - i) * nbytes:
            # addrs[lo] continues the run, addrs[hi] does not.
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if addrs[mid] == first + (mid - i) * nbytes:
                    lo = mid
                else:
                    hi = mid
            hi = lo
        runs.append((first, hi - i + 1))
        i = hi + 1
    return runs


def first_mismatch(a: bytes, b: bytes) -> int:
    """Index of the first byte at which equal-length *a* and *b* differ
    (they must differ): the lowest set bit of their little-endian XOR."""
    x = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    return ((x & -x).bit_length() - 1) >> 3


class BackingStore:
    """A bytearray-backed memory window ``[base, base + size)``.

    Accesses outside the window raise; the memory models translate this
    into SLVERR responses so a model bug cannot silently corrupt data.
    """

    def __init__(self, base: int, size: int) -> None:
        if size <= 0:
            raise ValueError("backing store size must be positive")
        self.base = base
        self.size = size
        self._data = bytearray(size)

    def _offset(self, addr: int, nbytes: int) -> int:
        off = addr - self.base
        if off < 0 or off + nbytes > self.size:
            raise IndexError(
                f"access [0x{addr:x}+{nbytes}] outside "
                f"[0x{self.base:x}..0x{self.base + self.size:x})"
            )
        return off

    def read(self, addr: int, nbytes: int) -> bytes:
        off = self._offset(addr, nbytes)
        return bytes(self._data[off : off + nbytes])

    def write(self, addr: int, data: bytes, strb: int = -1) -> None:
        """Write *data*; *strb* = -1 enables all byte lanes."""
        off = self._offset(addr, len(data))
        if strb == -1:
            self._data[off : off + len(data)] = data
        else:
            for i, byte in enumerate(data):
                if strb & (1 << i):
                    self._data[off + i] = byte

    def fill(self, addr: int, nbytes: int, pattern: int = 0) -> None:
        off = self._offset(addr, nbytes)
        self._data[off : off + nbytes] = bytes([pattern & 0xFF]) * nbytes

    def read_beat(self, addr: int, size: int) -> bytes:
        return self.read(addr, bytes_per_beat(size))

    # ------------------------------------------------------------------
    # whole-run access (span replay)
    # ------------------------------------------------------------------
    def _inside(self, addr: int, beats: int, nbytes: int) -> tuple[int, int]:
        """Beats ``[lo, hi)`` of the run of *beats* beats from *addr* lie
        wholly inside the window; the others would raise."""
        off = addr - self.base
        lo = min(beats, max(0, -(off // nbytes)))
        hi = max(lo, min(beats, (self.size - off) // nbytes))
        return lo, hi

    def uniform_prefix(
        self, addrs: Sequence[int], start: int, limit: int, nbytes: int
    ) -> tuple[int, Optional[bytes]]:
        """How many of the *nbytes*-byte beats at ``addrs[start:start +
        limit]`` read the same as the first one.

        Returns ``(count, data)``: *data* is the first beat's bytes, or
        ``None`` when that beat lies outside the window (then the count
        is of the leading beats that lie outside too).  Costs one slice
        comparison per contiguous run inside the window.
        """
        template: Optional[bytes] = None
        count = 0
        for addr, beats in contiguous_runs(addrs, start, start + limit,
                                           nbytes):
            lo, hi = self._inside(addr, beats, nbytes)
            for seg_lo, seg_hi, inside in ((0, lo, False), (lo, hi, True),
                                           (hi, beats, False)):
                k = seg_hi - seg_lo
                if k <= 0:
                    continue
                if not inside:
                    if count and template is not None:
                        return count, template
                    count += k
                    continue
                off = addr + seg_lo * nbytes - self.base
                if count == 0:
                    template = bytes(self._data[off : off + nbytes])
                elif template is None:
                    return count, None
                chunk = self._data[off : off + k * nbytes]
                expect = template * k
                if chunk != expect:
                    count += first_mismatch(chunk, expect) // nbytes
                    return count, template
                count += k
        return count, template

    def write_beats(
        self,
        addrs: Sequence[int],
        start: int,
        count: int,
        nbytes: int,
        data: bytes,
        strb: int = -1,
    ) -> bool:
        """Write *data* to the beats ``addrs[start:start + count]`` in
        beat order, as *count* calls to :meth:`write` would; an index
        past the end of *addrs* repeats its last address.

        Returns ``False`` if some beat fell outside the window (that
        beat is dropped, the others are written).  A one-beat-wide
        *data* with every byte lane enabled is one slice assignment per
        contiguous run; anything else is written beat by beat.
        """
        top = len(addrs) - 1
        stop = min(start + count, top + 1)
        if start > top:
            start, stop = top, top + 1  # the repeated last address
        ok = True
        lanes = (1 << nbytes) - 1
        if len(data) != nbytes or strb & lanes != lanes:
            for j in range(start, stop):
                try:
                    self.write(addrs[j], data, strb)
                except IndexError:
                    ok = False
            return ok
        for addr, beats in contiguous_runs(addrs, start, stop, nbytes):
            lo, hi = self._inside(addr, beats, nbytes)
            if lo or hi < beats:
                ok = False
            if hi > lo:
                off = addr + lo * nbytes - self.base
                self._data[off : off + (hi - lo) * nbytes] = data * (hi - lo)
        return ok

    # ------------------------------------------------------------------
    # snapshot contract
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        return {"data": bytes(self._data)}

    def state_restore(self, state: dict) -> None:
        data = state["data"]
        if len(data) != self.size:
            raise ValueError(
                f"backing store size mismatch: {len(data)} != {self.size}"
            )
        self._data[:] = data
