"""The mmap data-movement path against per-block and per-page references.

``MappedRegion._segments`` turns a byte range of the mapping into physical
``(addr, len)`` runs with one extent slice, and ``_SparsePages`` moves
bytes by page run.  The batched-vs-reference equivalence suites cannot
catch a bug here (both walk engines share ``_copy_out``/``_copy_in``), so
these tests pin both against straightforward per-block / per-page
references kept only in this file, on seeded random layouts.
"""

import random

import pytest

from repro import NovaFS, WineFS
from repro.clock import make_context
from repro.mmu.mmap_region import MappedRegion
from repro.params import BASE_PAGE, DEFAULT_MACHINE, MIB
from repro.pm.device import PMDevice, _SparsePages
from repro.structures.extents import Extent, ExtentList

BS = BASE_PAGE


# -- references -----------------------------------------------------------------

def ref_segments(extents, offset, size, bs=BS):
    """One physical_block lookup per touched block, then merge."""
    out = []
    pos, end = offset, offset + size
    while pos < end:
        within = pos % bs
        take = min(bs - within, end - pos)
        out.append((extents.physical_block(pos // bs) * bs + within, take))
        pos += take
    merged = []
    for addr, ln in out:
        if merged and merged[-1][0] + merged[-1][1] == addr:
            merged[-1] = (merged[-1][0], merged[-1][1] + ln)
        else:
            merged.append((addr, ln))
    return merged


def ref_read(pages, addr, length):
    """Page-at-a-time copy into a zeroed buffer."""
    out = bytearray(length)
    pos = 0
    while pos < length:
        page_no, off = divmod(addr + pos, BS)
        take = min(BS - off, length - pos)
        page = pages.get(page_no)
        if page is not None:
            out[pos:pos + take] = page[off:off + take]
        pos += take
    return bytes(out)


def ref_write(pages, addr, data):
    pos = 0
    while pos < len(data):
        page_no, off = divmod(addr + pos, BS)
        take = min(BS - off, len(data) - pos)
        page = pages.setdefault(page_no, bytearray(BS))
        page[off:off + take] = data[pos:pos + take]
        pos += take


# -- layouts --------------------------------------------------------------------

def fragmented_extents(rng, nextents, adjacent_every=3):
    """Random extents with gaps; every *adjacent_every*-th one starts where
    the previous one ended.  Those stay separate list entries (as in a
    list built without ``append``'s coalescing), so ``_segments`` must
    merge them itself."""
    exts = []
    phys = rng.randrange(0, 64)
    for i in range(nextents):
        length = rng.choice((1, 1, 2, 3, 7, 16))
        if i and i % adjacent_every:
            phys += rng.randrange(1, 40)
        exts.append(Extent(phys, length))
        phys += length
    el = ExtentList()
    el._extents = exts
    el._invalidate()
    return el


def region_over(extents, length=None):
    device = PMDevice(4 * MIB)
    if length is None:
        length = extents.total_blocks * BS
    return MappedRegion(device, DEFAULT_MACHINE, extents, length, BS)


# -- _segments ------------------------------------------------------------------

class TestSegments:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_spans_match_per_block_reference(self, seed):
        rng = random.Random(seed)
        el = fragmented_extents(rng, 40)
        region = region_over(el)
        total = region.length
        for _ in range(300):
            offset = rng.randrange(total)
            size = rng.randrange(1, min(total - offset, 12 * BS) + 1)
            assert region._segments(offset, size) == \
                ref_segments(el, offset, size), (offset, size)

    def test_adjacent_extents_merge(self):
        el = ExtentList()
        el._extents = [Extent(10, 2), Extent(12, 1), Extent(40, 1),
                       Extent(41, 3)]
        el._invalidate()
        region = region_over(el)
        whole = region._segments(0, region.length)
        assert whole == [(10 * BS, 3 * BS), (40 * BS, 4 * BS)]
        assert whole == ref_segments(el, 0, region.length)
        # unaligned span across both merge points
        assert region._segments(BS + 5, 4 * BS) == \
            [(11 * BS + 5, 2 * BS - 5), (40 * BS, 2 * BS + 5)]

    def test_one_byte_spans_at_every_boundary(self):
        el = fragmented_extents(random.Random(11), 12)
        region = region_over(el)
        for block in range(el.total_blocks):
            for offset in (block * BS, block * BS + BS - 1):
                assert region._segments(offset, 1) == \
                    ref_segments(el, offset, 1)

    def test_spans_crossing_extent_boundaries(self):
        el = fragmented_extents(random.Random(12), 20, adjacent_every=4)
        region = region_over(el)
        logical = 0
        for ext in list(el)[:-1]:
            logical += ext.length
            edge = logical * BS
            for before, after in ((1, 1), (BS - 3, 7), (BS, BS),
                                  (2 * BS + 1, 3 * BS - 1)):
                offset = max(0, edge - before)
                size = min(edge + after, region.length) - offset
                assert region._segments(offset, size) == \
                    ref_segments(el, offset, size), (offset, size)

    def test_head_and_tail_inside_one_block(self):
        region = region_over(ExtentList([Extent(7, 1), Extent(30, 2)]))
        assert region._segments(100, 50) == [(7 * BS + 100, 50)]
        assert region._segments(BS + 9, BS) == [(30 * BS + 9, BS)]

    def test_zero_size_is_empty(self):
        region = region_over(ExtentList([Extent(3, 4)]))
        assert region._segments(BS, 0) == []

    def test_past_end_of_file_raises(self):
        el = ExtentList([Extent(3, 2), Extent(9, 1)])
        region = region_over(el)
        end = el.total_blocks * BS
        with pytest.raises(IndexError):
            ref_segments(el, end - 10, 20)
        with pytest.raises(IndexError):
            region._segments(end - 10, 20)
        with pytest.raises(IndexError):
            region._segments(end, 1)


# -- _SparsePages ---------------------------------------------------------------

def sparse_with_holes(rng, npages, fill=0.5):
    sp = _SparsePages(npages * BS)
    for page_no in range(npages):
        if rng.random() < fill:
            sp._pages[page_no] = bytearray(rng.randbytes(BS))
    return sp


class TestSparsePages:
    @pytest.mark.parametrize("seed", range(4))
    def test_read_matches_per_page_reference(self, seed):
        rng = random.Random(100 + seed)
        sp = sparse_with_holes(rng, 24)
        for _ in range(400):
            addr = rng.randrange(24 * BS)
            length = rng.randrange(0, min(24 * BS - addr, 5 * BS) + 1)
            got = sp.read(addr, length)
            assert type(got) is bytes
            assert got == ref_read(sp._pages, addr, length), (addr, length)

    def test_read_edges(self):
        sp = sparse_with_holes(random.Random(7), 8, fill=0.6)
        pages = sp._pages
        cases = [(0, 0), (5 * BS, 0), (0, BS), (3 * BS, BS), (BS - 1, 2),
                 (BS + 1, BS - 2), (BS + 1, 3 * BS), (0, 8 * BS),
                 (2 * BS - 1, 1), (7 * BS + 10, BS - 10)]
        for addr, length in cases:
            assert sp.read(addr, length) == ref_read(pages, addr, length)

    def test_never_written_range_reads_zeros(self):
        sp = _SparsePages(64 * BS)
        assert sp.read(0, 64 * BS) == bytes(64 * BS)
        assert sp.read(3 * BS + 5, 2 * BS) == bytes(2 * BS)
        assert sp.read(100, 10) == bytes(10)
        assert sp.materialized_bytes() == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_write_matches_per_page_reference(self, seed):
        rng = random.Random(200 + seed)
        sp = _SparsePages(32 * BS)
        model = {}
        for _ in range(200):
            addr = rng.randrange(32 * BS)
            length = rng.randrange(0, min(32 * BS - addr, 4 * BS) + 1)
            data = rng.randbytes(length)
            sp.write(addr, data)
            ref_write(model, addr, data)
        assert sp._pages.keys() == model.keys()
        for page_no, page in model.items():
            assert sp._pages[page_no] == page
        assert sp.read(0, 32 * BS) == ref_read(model, 0, 32 * BS)

    def test_write_accepts_bytearray_and_memoryview(self):
        sp = _SparsePages(8 * BS)
        payload = bytes(range(256)) * 40
        sp.write(BS - 7, bytearray(payload))
        assert sp.read(BS - 7, len(payload)) == payload
        sp.write(3 * BS + 1, memoryview(payload)[5:2 * BS])
        assert sp.read(3 * BS + 1, 2 * BS - 5) == payload[5:2 * BS]


# -- end to end -----------------------------------------------------------------

@pytest.mark.parametrize("fs_cls", [NovaFS, WineFS])
def test_region_write_then_read_matches_pread(fs_cls):
    """A track_data region on a fragmented, 4KB-mapped file: mmap writes
    at unaligned offsets read back identically through the region and
    through pread."""
    rng = random.Random(300)
    ctx = make_context(2)
    fs = fs_cls(PMDevice(64 * MIB), num_cpus=2)
    fs.mkfs(ctx)
    assert fs.track_data
    f = fs.create("/frag", ctx)
    other = fs.create("/other", ctx)
    nblocks = 48
    for i in range(nblocks):
        # interleaved appends scatter /frag's blocks
        f.append(bytes([i]) * BS, ctx)
        other.append(b"o" * BS * (1 + i % 3), ctx)
    assert len(fs.file_extents(f.ino)) > nblocks // 2
    size = nblocks * BS
    model = bytearray(fs.read_file("/frag", ctx))
    region = f.mmap(ctx)
    for _ in range(60):
        offset = rng.randrange(size)
        length = rng.randrange(1, min(size - offset, 6 * BS) + 1)
        data = rng.randbytes(length)
        region.write(offset, data, ctx)
        model[offset:offset + length] = data
        offset = rng.randrange(size)
        length = rng.randrange(1, min(size - offset, 6 * BS) + 1)
        expect = bytes(model[offset:offset + length])
        assert region.read(offset, length, ctx) == expect
        assert f.pread(offset, length, ctx) == expect
    assert region.hugepage_fraction == 0.0
    assert region.read(0, size, ctx) == bytes(model)
    region.unmap()
    assert f.pread(0, size, ctx) == bytes(model)
