"""Whole-run span offers of the memories == the per-beat definition.

The SRAM and LLC span offers check and replay a burst one contiguous
run of beats (or one cache line) at a time.  These properties pin them
to per-beat reference versions written out below — one read, one
comparison, one write, one LRU touch per beat, as a tick would do them —
over INCR (aligned and unaligned starts), WRAP and FIXED bursts, runs
that cross the store end, a value change at any beat, read errors,
partial strobes, data-less writes, and non-resident lines inside a run.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi import AxiBundle, BurstType, Resp
from repro.axi.beats import ARBeat, AWBeat, WBeat
from repro.axi.transaction import beat_addresses
from repro.axi.types import bytes_per_beat
from repro.mem import BackingStore, CacheLLC, SramMemory
from repro.mem.backing import contiguous_runs
from repro.sim import Simulator

BASE = 0x1000
SIZE = 0x200
WRAP_BEATS = (2, 4, 8, 16)


@st.composite
def bursts(draw, lo: int, hi: int, max_size: int = 3) -> ARBeat:
    """A burst starting in ``[lo, hi)``, any type, unaligned INCR too."""
    size = draw(st.integers(min_value=0, max_value=max_size))
    nbytes = bytes_per_beat(size)
    kind = draw(st.sampled_from(list(BurstType)))
    if kind == BurstType.WRAP:
        beats = draw(st.sampled_from(WRAP_BEATS))
    elif kind == BurstType.FIXED:
        beats = draw(st.integers(min_value=1, max_value=16))
    else:
        beats = draw(st.integers(min_value=1, max_value=80))
    addr = draw(st.integers(min_value=lo, max_value=hi - 1))
    if kind == BurstType.WRAP or draw(st.booleans()):
        addr -= addr % nbytes
    return ARBeat(id=1, addr=addr, beats=beats, size=size, burst=kind, txn=7)


def _edits(draw, addrs: list[int], nbytes: int) -> list[tuple[int, int]]:
    """(address, byte) pokes: a changed value at any beat of the burst."""
    edits = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        beat = draw(st.integers(min_value=0, max_value=len(addrs) - 1))
        lane = draw(st.integers(min_value=0, max_value=nbytes - 1))
        edits.append((addrs[beat] + lane,
                      draw(st.integers(min_value=0, max_value=255))))
    return edits


def _poke(store: BackingStore, edits) -> None:
    for addr, value in edits:
        if store.base <= addr < store.base + store.size:
            store.write(addr, bytes([value]))


# ----------------------------------------------------------------------
# contiguous_runs
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(beat=bursts(0, 0x400), data=st.data())
def test_contiguous_runs_cover_the_beats_maximally(beat, data):
    addrs = beat_addresses(beat)
    nbytes = bytes_per_beat(beat.size)
    start = data.draw(st.integers(min_value=0, max_value=len(addrs)))
    stop = data.draw(st.integers(min_value=start, max_value=len(addrs)))
    runs = contiguous_runs(addrs, start, stop, nbytes)
    flat = [a + t * nbytes for a, k in runs for t in range(k)]
    assert flat == addrs[start:stop]
    for (a, k), (b, _) in zip(runs, runs[1:]):
        assert b != a + k * nbytes  # maximal: a run never continues


# ----------------------------------------------------------------------
# SRAM
# ----------------------------------------------------------------------
def _ref_read_horizon(store, addrs, index, limit, nbytes, rd_error):
    """Per-beat read scan: how far R beats repeat the first one."""
    template = None
    horizon = 0
    for j in range(index, index + limit):
        try:
            data, resp = store.read(addrs[j], nbytes), Resp.OKAY
        except IndexError:
            data, resp = bytes(nbytes), Resp.SLVERR
        if rd_error:
            resp = Resp.SLVERR
        if template is None:
            template = (data, resp)
        elif (data, resp) != template:
            break
        horizon += 1
    return horizon, template


def _ref_writes(store, addrs, index, n, wbeat) -> bool:
    """Per-beat W replay; False if some beat missed the window."""
    ok = True
    top = len(addrs) - 1
    for j in range(index, index + n):
        try:
            store.write(addrs[min(j, top)], wbeat.data, wbeat.strb)
        except IndexError:
            ok = False
    return ok


def _ref_overlap(rd_addrs, rd_index, rbytes, wr_addrs, wr_index, wbytes):
    rd_lo = min(rd_addrs[rd_index:])
    rd_hi = max(rd_addrs[rd_index:]) + rbytes
    wr_lo = min(wr_addrs[wr_index:], default=rd_hi)
    wr_hi = max(wr_addrs[wr_index:], default=rd_hi) + wbytes
    return rd_lo < wr_hi and wr_lo < rd_hi


def _sram():
    sim = Simulator()
    port = AxiBundle(sim, "mem")
    sram = SramMemory(port, base=BASE, size=SIZE)
    sram.store.fill(BASE, SIZE, 0x5A)
    return sram, port


@settings(max_examples=300, deadline=None)
@given(
    read=st.one_of(st.none(), bursts(BASE - 0x40, BASE + SIZE + 0x20)),
    write=st.one_of(st.none(), bursts(BASE - 0x40, BASE + SIZE + 0x20)),
    data=st.data(),
)
def test_sram_offer_matches_per_beat_reference(read, write, data):
    sram, port = _sram()
    reference = BackingStore(BASE, SIZE)
    cycle = 50
    rbytes = wbytes = 0
    if read is not None:
        rbytes = bytes_per_beat(read.size)
        rd_error = data.draw(st.booleans())
        # A burst the model cannot decode streams from its first address.
        addrs = ([read.addr] * read.beats if rd_error
                 else beat_addresses(read))
        _poke(sram.store, _edits(data.draw, addrs, rbytes))
        sram._rd = read
        sram._rd_addrs = addrs
        sram._rd_index = data.draw(
            st.integers(min_value=0, max_value=read.beats - 1))
        sram._rd_error = rd_error
        sram._rd_ready = cycle
    if write is not None:
        write = AWBeat(id=2, addr=write.addr, beats=write.beats,
                       size=write.size, burst=write.burst, txn=9)
        wbytes = bytes_per_beat(write.size)
        sram._wr = write
        # Past the end of the list the model repeats the last address.
        sram._wr_addrs = beat_addresses(write)
        sram._wr_index = data.draw(
            st.integers(min_value=0, max_value=write.beats + 2))
        sram._wr_error = False
        payload = data.draw(st.one_of(
            st.none(),
            st.binary(min_size=wbytes, max_size=wbytes),
            st.binary(min_size=1, max_size=2 * wbytes),
        ))
        strb = data.draw(st.one_of(
            st.just(-1), st.integers(min_value=0, max_value=(1 << wbytes) - 1)
        ))
        wbeat = WBeat(data=payload, strb=strb, last=False)
        port.w._queue.append(wbeat)
    reference._data[:] = sram.store._data
    bound = data.draw(st.integers(min_value=1, max_value=300))

    offer = sram.span_offer(cycle, bound)

    if read is not None:
        limit = min(read.beats - 1 - sram._rd_index, bound)
        if limit < 1:
            assert offer is None
            return
        if write is not None and _ref_overlap(
            sram._rd_addrs, sram._rd_index, rbytes,
            sram._wr_addrs, sram._wr_index, wbytes,
        ):
            assert offer is None
            return
        horizon, (tdata, tresp) = _ref_read_horizon(
            reference, sram._rd_addrs, sram._rd_index, limit, rbytes,
            sram._rd_error,
        )
        assert offer is not None
        assert offer.horizon == horizon
        produced = offer.flows[0].template_out
        assert (produced.data, produced.resp) == (tdata, tresp)
        assert (produced.id, produced.txn, produced.last) == (1, 7, False)
    if offer is None:
        assert read is None and write is None
        return
    n = min(offer.horizon, data.draw(st.integers(min_value=1, max_value=40)))
    wr_index = sram._wr_index
    offer.apply(n)
    if write is not None:
        ok = wbeat.data is None or _ref_writes(
            reference, sram._wr_addrs, wr_index, n, wbeat)
        assert sram._wr_error == (not ok)
        assert sram._wr_index == wr_index + n
    assert sram.store._data == reference._data


# ----------------------------------------------------------------------
# LLC
# ----------------------------------------------------------------------
def _llc(line_bytes: int):
    sim = Simulator()
    front, back = AxiBundle(sim, "f"), AxiBundle(sim, "b")
    # 8 sets x 8 ways: a burst's lines share sets, so touch order shows.
    llc = CacheLLC(front, back, line_bytes=line_bytes, ways=8,
                   capacity=line_bytes * 8 * 8)
    return llc


def _ref_llc_horizon(llc, index, limit, nbytes):
    """Per-beat hit scan: residency and value-identity beat by beat."""
    mask = ~(llc.line_bytes - 1)
    template = None
    horizon = 0
    for j in range(index, index + limit):
        addr = llc._addrs[j]
        line = llc.lookup(addr & mask, touch=False)
        if line is None:
            break
        offset = addr - (addr & mask)
        value = bytes(line.data[offset : offset + nbytes])
        if template is None:
            template = value
        elif value != template:
            break
        horizon += 1
    return horizon, template


def _ref_llc_touch(llc, index, n):
    mask = ~(llc.line_bytes - 1)
    touched = None
    for j in range(index, index + n):
        line_addr = llc._addrs[j] & mask
        if line_addr != touched:
            llc.lookup(line_addr)
            touched = line_addr


def _lru(llc) -> list[list[int]]:
    return [list(ways) for ways in llc._sets]


@settings(max_examples=300, deadline=None)
@given(
    line_bytes=st.sampled_from([16, 32, 64]),
    txn=bursts(0x400, 0x600, max_size=6),
    data=st.data(),
)
def test_llc_offer_matches_per_beat_reference(line_bytes, txn, data):
    caches = _llc(line_bytes), _llc(line_bytes)
    nbytes = bytes_per_beat(txn.size)
    addrs = beat_addresses(txn)
    fill = data.draw(st.integers(min_value=0, max_value=255))
    lo = (min(addrs) // line_bytes) * line_bytes
    hi = max(addrs) + nbytes
    lines = list(range(lo, hi, line_bytes))
    # Warm every line of the burst but (maybe) one, in a drawn order so
    # the LRU state is not trivially sorted.
    lines = data.draw(st.permutations(lines))
    missing = data.draw(st.one_of(st.none(), st.sampled_from(lines)))
    image = BackingStore(lo, hi - lo + line_bytes)
    image.fill(lo, image.size, fill)
    _poke(image, _edits(data.draw, addrs, nbytes))
    for llc in caches:
        for line_addr in lines:
            if line_addr != missing:
                llc.install_line(line_addr, image.read(line_addr, line_bytes))
        llc._state = "r_serve"
        llc._txn = txn
        llc._addrs = addrs
    index = data.draw(st.integers(min_value=0, max_value=txn.beats - 1))
    bound = data.draw(st.integers(min_value=1, max_value=300))
    fast, slow = caches
    fast._index = slow._index = index

    offer = fast.span_offer(20, bound)

    limit = min(txn.beats - 1 - index, bound)
    horizon, template = (_ref_llc_horizon(slow, index, limit, nbytes)
                         if limit >= 1 else (0, None))
    if horizon < 1:
        assert offer is None
        return
    assert offer.horizon == horizon
    assert offer.flows[0].template_out.data == template
    assert _lru(fast) == _lru(slow)  # the scan itself touches nothing
    n = data.draw(st.integers(min_value=1, max_value=horizon))
    offer.apply(n)
    _ref_llc_touch(slow, index, n)
    assert _lru(fast) == _lru(slow)
    assert (fast._index, fast.hits) == (index + n, n)
