"""Page tables, two-stage translation, and walk-cost accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.hw.mmu import (
    BLOCK_1G,
    BLOCK_2M,
    PAGE_4K,
    PageAttrs,
    PageTable,
    TranslationFault,
    TranslationRegime,
    VA_LIMIT,
    VALID_BLOCK_SIZES,
    WALK_DEPTH,
    walk_refs,
)


class TestPageTable:
    def test_map_translate_4k(self):
        pt = PageTable("s1", stage=1)
        pt.map(0x1000, 0x8000_1000, PAGE_4K)
        pa, depth, attrs, bs = pt.translate(0x1234)
        assert pa == 0x8000_1234
        assert depth == 3
        assert bs == PAGE_4K

    def test_map_translate_2m_block(self):
        pt = PageTable()
        pt.map(0x20_0000, 0x4000_0000, BLOCK_2M, block_size=BLOCK_2M)
        pa, depth, _, bs = pt.translate(0x20_0000 + 0x12345)
        assert pa == 0x4000_0000 + 0x12345
        assert depth == 2
        assert bs == BLOCK_2M

    def test_map_translate_1g_block(self):
        pt = PageTable()
        pt.map(BLOCK_1G, 0, BLOCK_1G, block_size=BLOCK_1G)
        pa, depth, _, _ = pt.translate(BLOCK_1G + 777)
        assert pa == 777
        assert depth == 1

    def test_multi_entry_range(self):
        pt = PageTable()
        n = pt.map(0, 0x1_0000, 16 * PAGE_4K)
        assert n == 16
        for i in range(16):
            pa, _, _, _ = pt.translate(i * PAGE_4K + 5)
            assert pa == 0x1_0000 + i * PAGE_4K + 5

    def test_unmapped_faults(self):
        pt = PageTable("s1", stage=1)
        with pytest.raises(TranslationFault) as ei:
            pt.translate(0x5000)
        assert ei.value.stage == 1
        assert ei.value.reason == "unmapped"

    def test_permission_fault(self):
        pt = PageTable()
        pt.map(0, 0, PAGE_4K, attrs=PageAttrs(read=True, write=False))
        pt.translate(0, "r")
        with pytest.raises(TranslationFault) as ei:
            pt.translate(0, "w")
        assert ei.value.reason == "permission"

    def test_execute_permission(self):
        pt = PageTable()
        pt.map(0, 0, PAGE_4K, attrs=PageAttrs(execute=True))
        pt.translate(0, "x")
        pt.map(PAGE_4K, PAGE_4K, PAGE_4K, attrs=PageAttrs(execute=False))
        with pytest.raises(TranslationFault):
            pt.translate(PAGE_4K, "x")

    def test_overlap_rejected_same_granule(self):
        pt = PageTable()
        pt.map(0x1000, 0, PAGE_4K)
        with pytest.raises(ConfigurationError, match="already mapped"):
            pt.map(0x1000, 0x9000, PAGE_4K)

    def test_overlap_rejected_across_granules(self):
        pt = PageTable()
        pt.map(0x20_0000, 0, BLOCK_2M, block_size=BLOCK_2M)
        # A 4K page inside the 2M block must be rejected.
        with pytest.raises(ConfigurationError, match="already mapped"):
            pt.map(0x20_0000 + 8 * PAGE_4K, 0, PAGE_4K)

    def test_overlap_rejected_small_page_inside_new_block(self):
        # The 4K page sits inside the new 2M block but not at its start; the
        # block must still be refused rather than shadow the page.
        pt = PageTable()
        pt.map(BLOCK_2M + PAGE_4K, 0x4000_0000, PAGE_4K)
        with pytest.raises(ConfigurationError, match="already mapped"):
            pt.map(BLOCK_2M, 0x8000_0000, BLOCK_2M, block_size=BLOCK_2M)
        assert pt.translate(BLOCK_2M + PAGE_4K)[0] == 0x4000_0000
        assert not pt.is_mapped(BLOCK_2M)

    def test_overlap_check_atomic(self):
        pt = PageTable()
        pt.map(2 * PAGE_4K, 0, PAGE_4K)
        # Mapping [0, 3 pages) collides on the third page; nothing installed.
        with pytest.raises(ConfigurationError):
            pt.map(0, 0x10000, 3 * PAGE_4K)
        assert not pt.is_mapped(0)
        assert not pt.is_mapped(PAGE_4K)

    def test_alignment_enforced(self):
        pt = PageTable()
        with pytest.raises(ConfigurationError, match="not aligned"):
            pt.map(0x800, 0, PAGE_4K)
        with pytest.raises(ConfigurationError, match="not aligned"):
            pt.map(0, 0x800, PAGE_4K)
        with pytest.raises(ConfigurationError, match="not aligned"):
            pt.map(0, 0, PAGE_4K + 1)

    def test_va_limit_enforced(self):
        pt = PageTable()
        with pytest.raises(ConfigurationError, match="exceeds"):
            pt.map(VA_LIMIT - PAGE_4K, 0, 2 * PAGE_4K)

    def test_unmap(self):
        pt = PageTable()
        pt.map(0, 0, 4 * PAGE_4K)
        removed = pt.unmap(PAGE_4K, 2 * PAGE_4K)
        assert removed == 2
        assert pt.is_mapped(0)
        assert not pt.is_mapped(PAGE_4K)
        assert not pt.is_mapped(2 * PAGE_4K)
        assert pt.is_mapped(3 * PAGE_4K)

    def test_partial_unmap_splits_extent(self):
        va, pa = 0x10_0000, 0x4000_0000
        pt = PageTable()
        pt.map(va, pa, 16 * PAGE_4K)
        assert pt.unmap(va + 6 * PAGE_4K, 4 * PAGE_4K) == 4
        for i in range(6, 10):
            with pytest.raises(TranslationFault):
                pt.translate(va + i * PAGE_4K)
        for i in list(range(6)) + list(range(10, 16)):
            assert pt.translate(va + i * PAGE_4K + 7)[0] == pa + i * PAGE_4K + 7
        assert pt.entry_count() == 12
        pt.map(va + 6 * PAGE_4K, 0x9000_0000, 4 * PAGE_4K)
        assert pt.translate(va + 7 * PAGE_4K)[0] == 0x9000_0000 + PAGE_4K
        assert pt.entry_count() == 16
        assert len(list(pt.extents())) == 3

    def test_generation_bumps_on_changes(self):
        pt = PageTable()
        g0 = pt.generation
        pt.map(0, 0, PAGE_4K)
        assert pt.generation > g0
        g1 = pt.generation
        pt.unmap(0, PAGE_4K)
        assert pt.generation > g1
        # No-op unmap does not bump.
        g2 = pt.generation
        pt.unmap(0, PAGE_4K)
        assert pt.generation == g2

    def test_entry_count_and_mapped_bytes(self):
        pt = PageTable()
        pt.map(0, 0, 4 * PAGE_4K)
        pt.map(BLOCK_2M, 0x4000_0000, BLOCK_2M, block_size=BLOCK_2M)
        assert pt.entry_count() == 5
        assert pt.mapped_bytes() == 4 * PAGE_4K + BLOCK_2M

    def test_dominant_block_size(self):
        pt = PageTable()
        assert pt.dominant_block_size() == PAGE_4K
        pt.map(0, 0, 4 * PAGE_4K)
        assert pt.dominant_block_size() == PAGE_4K
        pt.map(BLOCK_2M, 0x4000_0000, BLOCK_2M, block_size=BLOCK_2M)
        assert pt.dominant_block_size() == BLOCK_2M

    def test_invalid_block_size(self):
        pt = PageTable()
        with pytest.raises(ConfigurationError):
            pt.map(0, 0, 8192, block_size=8192)

    @given(
        st.sets(
            st.integers(min_value=0, max_value=1000), min_size=1, max_size=50
        )
    )
    def test_property_map_unmap_roundtrip(self, page_indices):
        pt = PageTable()
        for i in page_indices:
            pt.map(i * PAGE_4K, (i + 10_000) * PAGE_4K, PAGE_4K)
        for i in page_indices:
            pa, _, _, _ = pt.translate(i * PAGE_4K)
            assert pa == (i + 10_000) * PAGE_4K
        for i in page_indices:
            assert pt.unmap(i * PAGE_4K, PAGE_4K) == 1
        assert pt.entry_count() == 0


class RefTable:
    """Reference model: one dict entry per installed block, linear scans."""

    def __init__(self):
        self.entries = {}  # block va -> (pa, attrs, block_size)
        self.generation = 0

    def _covering(self, addr):
        for va, (pa, attrs, bs) in self.entries.items():
            if va <= addr < va + bs:
                return va, pa, attrs, bs
        return None

    def map(self, va, pa, size, attrs, block_size):
        if va % block_size or pa % block_size or size % block_size:
            raise ConfigurationError("not aligned")
        new = [(va + off, pa + off) for off in range(0, size, block_size)]
        for b, _ in new:
            for e, (_, _, bs) in self.entries.items():
                if e < b + block_size and b < e + bs:
                    raise ConfigurationError("already mapped")
        for b, p in new:
            self.entries[b] = (p, attrs, block_size)
        self.generation += 1
        return len(new)

    def unmap(self, va, size, block_size):
        if va % block_size or size % block_size:
            raise ConfigurationError("not aligned")
        gone = [
            e for e, (_, _, bs) in self.entries.items()
            if bs == block_size and va <= e < va + size
        ]
        for e in gone:
            del self.entries[e]
        if gone:
            self.generation += 1
        return len(gone)

    def translate(self, addr, access):
        hit = self._covering(addr)
        if hit is None:
            raise TranslationFault("", address=addr, stage=1, reason="unmapped")
        va, pa, attrs, bs = hit
        if not attrs.permits(access):
            raise TranslationFault("", address=addr, stage=1, reason="permission")
        depth = {PAGE_4K: 3, BLOCK_2M: 2, BLOCK_1G: 1}[bs]
        return (pa + addr - va, depth, attrs, bs)

    def mapped_bytes_by_size(self):
        out = {PAGE_4K: 0, BLOCK_2M: 0, BLOCK_1G: 0}
        for _, _, bs in self.entries.values():
            out[bs] += bs
        return out


_ATTRS = [PageAttrs(), PageAttrs(write=False), PageAttrs(execute=True, owner="x")]


@st.composite
def _address(draw):
    # A few hot spots inside two 1G blocks, so granularities collide often.
    return (
        draw(st.integers(0, 1)) * BLOCK_1G
        + draw(st.integers(0, 2)) * BLOCK_2M
        + draw(st.sampled_from([0, 1, 2, 510, 511])) * PAGE_4K
    )


_ops = st.one_of(
    st.tuples(
        st.just("map"),
        _address(),
        st.integers(0, 7),
        st.integers(1, 3),
        st.sampled_from(VALID_BLOCK_SIZES),
        st.sampled_from(_ATTRS),
        st.booleans(),
    ),
    st.tuples(
        st.just("unmap"),
        _address(),
        st.integers(1, 3),
        st.sampled_from(VALID_BLOCK_SIZES),
        st.booleans(),
    ),
    st.tuples(
        st.just("translate"),
        _address(),
        st.integers(0, PAGE_4K - 1),
        st.sampled_from("rwx"),
    ),
)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except TranslationFault as e:
        return ("fault", e.reason)
    except ConfigurationError:
        return ("config-error", None)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ops, max_size=25))
def test_page_table_matches_reference_model(ops):
    pt, ref = PageTable(), RefTable()
    for op in ops:
        g0, ref_g0 = pt.generation, ref.generation
        if op[0] == "map":
            _, addr, pa_idx, n, bs, attrs, misalign = op
            va = (addr & ~(bs - 1)) + (0x800 if misalign else 0)
            args = (va, (8 + pa_idx) * bs, n * bs, attrs, bs)
            got, want = _outcome(pt.map, *args), _outcome(ref.map, *args)
        elif op[0] == "unmap":
            _, addr, n, bs, misalign = op
            va = (addr & ~(bs - 1)) + (0x800 if misalign else 0)
            args = (va, n * bs, bs)
            got, want = _outcome(pt.unmap, *args), _outcome(ref.unmap, *args)
        else:
            _, addr, off, access = op
            got = _outcome(pt.translate, addr + off, access)
            want = _outcome(ref.translate, addr + off, access)
            assert pt.is_mapped(addr + off) == (ref._covering(addr + off) is not None)
        assert got == want, op
        assert (pt.generation != g0) == (ref.generation != ref_g0)
        by_size = ref.mapped_bytes_by_size()
        assert pt.entry_count() == sum(b // bs for bs, b in by_size.items())
        assert pt.mapped_bytes() == sum(by_size.values())
        dominant, most = PAGE_4K, -1
        for bs in (PAGE_4K, BLOCK_2M, BLOCK_1G):  # smallest wins ties
            if by_size[bs] > most:
                dominant, most = bs, by_size[bs]
        assert pt.dominant_block_size() == dominant


class TestTranslationRegime:
    def test_identity_regime(self):
        r = TranslationRegime()
        assert r.translate(0x1234) == (0x1234, 0)
        assert not r.two_stage

    def test_single_stage(self):
        s1 = PageTable("s1", stage=1)
        s1.map(0, 0x8000_0000, PAGE_4K)
        r = TranslationRegime(stage1=s1)
        pa, refs = r.translate(0x10)
        assert pa == 0x8000_0010
        assert refs == 3

    def test_two_stage_composition(self):
        s1 = PageTable("s1", stage=1)
        s2 = PageTable("s2", stage=2)
        # VA 0 -> IPA 2M (2M block); IPA 2M -> PA 6M (4K pages)
        s1.map(0, BLOCK_2M, BLOCK_2M, block_size=BLOCK_2M)
        s2.map(BLOCK_2M, 3 * BLOCK_2M, BLOCK_2M)
        r = TranslationRegime(stage1=s1, stage2=s2)
        pa, refs = r.translate(0x1500)
        assert pa == 3 * BLOCK_2M + 0x1500
        # n1=2 (2M block), n2=3 (4K page): (2+1)(3+1)-1 = 11
        assert refs == 11
        assert r.two_stage

    def test_two_stage_fault_in_stage2(self):
        s1 = PageTable("s1", stage=1)
        s2 = PageTable("s2", stage=2)
        s1.map(0, 0x10_0000 * 16, PAGE_4K)  # IPA has no stage-2 mapping
        r = TranslationRegime(stage1=s1, stage2=s2)
        with pytest.raises(TranslationFault) as ei:
            r.translate(0)
        assert ei.value.stage == 2

    def test_stage2_only(self):
        s2 = PageTable("s2", stage=2)
        s2.map(0, BLOCK_2M, BLOCK_2M, block_size=BLOCK_2M)
        r = TranslationRegime(stage2=s2)
        pa, refs = r.translate(0x42)
        assert pa == BLOCK_2M + 0x42
        assert refs == 2

    def test_stage_mismatch_rejected(self):
        s1 = PageTable("x", stage=1)
        with pytest.raises(ConfigurationError):
            TranslationRegime(stage2=s1)
        s2 = PageTable("y", stage=2)
        with pytest.raises(ConfigurationError):
            TranslationRegime(stage1=s2)

    def test_walk_refs_estimate(self):
        """The typical walk cost, priced from each stage's dominant block
        size, matches what a translation through the regime fetches."""
        s1 = PageTable("s1", stage=1)
        s1.map(0, 0, BLOCK_2M, block_size=BLOCK_2M)
        s2 = PageTable("s2", stage=2)
        s2.map(0, 0, BLOCK_2M)
        r = TranslationRegime(stage1=s1, stage2=s2)
        estimate = walk_refs(
            WALK_DEPTH[s1.dominant_block_size()], WALK_DEPTH[s2.dominant_block_size()]
        )
        assert estimate == (2 + 1) * (3 + 1) - 1
        assert r.translate(0x1234)[1] == estimate


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_walk_refs_formula(n1, n2):
    refs = walk_refs(n1, n2)
    if n1 and n2:
        # Paper Section V-b: two page-table sets traversed per translation.
        assert refs == (n1 + 1) * (n2 + 1) - 1
        assert refs > n1 + n2  # strictly worse than the sum
    else:
        assert refs == n1 or refs == n2 or refs == 0
    # Through the depth map: a 2 MiB stage-1 block under 4 KiB stage-2 pages.
    assert walk_refs(WALK_DEPTH[BLOCK_2M], WALK_DEPTH[PAGE_4K]) == (2 + 1) * (3 + 1) - 1
