import concurrent.futures
import hashlib
import math
import os
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keyed_color_oracle, peak_traced_bytes

from balext.core import InvalidParams, NotFound, OutOfRange, TableParams, TooLarge
from balext.mixing import stream_block_np, stream_value
from balext import tables
from balext.tables import (
    BACKEND_CANONICAL,
    BACKEND_KEYED,
    BACKEND_RANDOM,
    BalancedTable,
    canonical_table,
    existence_condition_exponents,
    key_from_seed,
    keyed_color,
    keyed_table,
    random_table,
)


class TestExistenceCondition:
    def test_example_holds(self):
        c = existence_condition_exponents(10, 4, 8, 1)
        assert c.holds
        assert c.lhs == 65536
        expected = 48 + 48 * math.log(2) + 3072 + 3072 * math.log(4)
        assert abs(float(c.rhs) - expected) / expected < 1e-6
        assert c.rhs_lower <= c.rhs_upper
        assert c.lhs > c.rhs_upper  # comparison decided on the provable side

    def test_example_fails(self):
        c = existence_condition_exponents(3, 2, 2, 1)
        assert not c.holds
        assert c.lhs == 16
        expected = 12 + 12 * math.log(2) + 48 + 48 * math.log(2)
        assert abs(float(c.rhs) - expected) / expected < 1e-6

    def test_collapsed_logs(self):
        # D=1, S=N, M=1: rhs collapses to the exact integer 3 + 6N
        for n_exp in range(4, 10):
            c = existence_condition_exponents(n_exp, 0, n_exp, 0)
            n_side = 1 << n_exp
            assert c.lhs == n_side * n_side
            assert c.rhs_lower == c.rhs_upper == 3 + 6 * n_side
            assert c.holds  # every power of two >= 9 satisfies N^2 > 6N + 3

    def test_accepts_table_params(self):
        p = TableParams(10, 4, 8, 1)
        c = existence_condition_exponents(p.n_exp, p.m_exp, p.s_exp, p.d_exp)
        assert c.holds and c.lhs == 65536

    def test_comparison_provably_decided(self):
        c = existence_condition_exponents(6, 4, 4, 2)
        assert c.lhs > c.rhs_upper or c.lhs <= c.rhs_lower

    def test_monotone_in_s_on_grid(self):
        # if the condition holds at S and the S-dependent defect
        # f(S) = S^2 - 6SD - 6SD ln(N/S) increases over [S, S'], it holds at S'
        for n_exp in (6, 8, 10):
            for m_exp in (2, 4):
                for d_exp in range(0, m_exp + 1):
                    held = [
                        (s, existence_condition_exponents(n_exp, m_exp, s, d_exp).holds)
                        for s in range(0, n_exp + 1)
                    ]

                    def f(s_exp):
                        s_side, d_div = 1 << s_exp, 1 << d_exp
                        return (
                            s_side * s_side
                            - 6 * s_side * d_div
                            - 6 * s_side * d_div * math.log((1 << n_exp) / s_side)
                        )

                    for (s1, h1) in held:
                        if not h1:
                            continue
                        for s2 in range(s1 + 1, n_exp + 1):
                            if all(f(t + 1) >= f(t) for t in range(s1, s2)):
                                assert held[s2][1], (n_exp, m_exp, d_exp, s1, s2)


class TestRandomTable:
    def test_deterministic(self):
        p = TableParams(6, 4, 4, 1)
        t1, t2 = random_table(p, 0), random_table(p, 0)
        assert np.array_equal(t1.cells, t2.cells)

    def test_documented_stream_rule(self):
        # cell (r, c) = low m bits of output c of the row substream
        p = TableParams(4, 5, 2, 1)
        t = random_table(p, seed=99)
        for r, c in [(0, 0), (3, 7), (15, 15), (8, 1)]:
            assert t.lookup(r, c) == stream_value(stream_value(99, r), c) & 31

    @pytest.mark.parametrize("n_exp, m_exp", [(9, 8), (9, 13), (12, 8), (12, 13)])
    def test_stream_rule_at_fill_chunk_edges(self, n_exp, m_exp):
        seed = 0xC0FFEE + n_exp + m_exp
        t = random_table(TableParams(n_exp, m_exp, 2, 1), seed)
        n_side, mask = 1 << n_exp, (1 << m_exp) - 1
        cells = t.cells
        assert (cells is None) == (n_exp == 12)   # 2^24 cells: a formula table
        if cells is None:        # the cells its file carries, stripe by stripe
            cells = np.frombuffer(t.to_bytes(), tables.cell_dtype(m_exp),
                                  offset=tables.HEADER_BYTES).reshape(n_side, n_side)
        rows_per_chunk = max(1, tables._FILL_CHUNK // n_side)
        assert rows_per_chunk < n_side   # the table spans several fill chunks
        edges = {n_side - 1}
        for r0 in range(rows_per_chunk, n_side, rows_per_chunk):
            edges |= {r0 - 1, r0}
        for r in sorted(edges):
            state = stream_value(seed, r)
            assert np.array_equal(cells[r], stream_block_np(state, 0, n_side) & mask)
            for c in (0, n_side // 2, n_side - 1):
                assert t.lookup(r, c) == stream_value(state, c) & mask
        last = stream_value(seed, n_side - 1)
        assert cells[-1].tolist() == [stream_value(last, c) & mask for c in range(n_side)]

    @pytest.mark.parametrize("m_exp", [1, 5, 8, 9, 15, 16])
    @pytest.mark.parametrize("n_exp", [0, 1, 12])
    def test_in_place_fill_matches_stream_rule(self, n_exp, m_exp):
        # the fill itself, since a table needs n_exp >= 1
        seed = 0x5EED + 31 * m_exp
        cells = streamed_cells(seed, n_exp, m_exp)
        n_side, mask = 1 << n_exp, (1 << m_exp) - 1
        assert cells.shape == (n_side, n_side)
        assert cells.dtype == (np.uint8 if m_exp <= 8 else np.uint16)
        for r in range(n_side):
            state = stream_value(seed, r)
            assert np.array_equal(cells[r], stream_block_np(state, 0, n_side) & mask)
        for r, c in {(0, 0), (n_side - 1, n_side - 1), (n_side // 3, n_side // 2)}:
            assert int(cells[r, c]) == stream_value(stream_value(seed, r), c) & mask

    @pytest.mark.parametrize("n_exp, m_exp", [(10, 4), (8, 8), (4, 2), (10, 16), (1, 9)])
    def test_held_cells_equal_the_streamed_fill(self, n_exp, m_exp):
        # a held table's grid fill and a formula table's stripes agree cell for cell
        t = random_table(TableParams(n_exp, m_exp, 1, 1), 0xD1CE + m_exp)
        assert not t.cells.flags.writeable
        streamed = streamed_cells(0xD1CE + m_exp, n_exp, m_exp)
        assert t.cells.dtype == streamed.dtype
        assert t.cells.tobytes() == streamed.tobytes()

    def test_color_frequencies_uniform(self):
        # global frequency of each color within 5 sigma of N^2/M
        p = TableParams(8, 4, 6, 1)
        t = random_table(p, seed=1)
        counts = np.bincount(t.cells.ravel(), minlength=16)
        expected = 65536 / 16
        sigma = math.sqrt(expected * (1 - 1 / 16))
        assert (np.abs(counts - expected) < 5 * sigma).all()

    def test_cap_enforced(self):
        with pytest.raises(TooLarge):
            random_table(TableParams(20, 4, 8, 1), 0)
        with pytest.raises(TooLarge):
            random_table(TableParams(4, 20, 2, 1), 0)

    def test_lookup_bounds(self):
        t = random_table(TableParams(3, 2, 2, 1), 0)
        with pytest.raises(OutOfRange):
            t.lookup(8, 0)
        with pytest.raises(OutOfRange):
            t.lookup(0, -1)


def streamed_cells(seed: int, n_exp: int, m_exp: int) -> np.ndarray:
    """The stripes ``_fill_stripes`` passes to its sink, stacked top to
    bottom into one (N, N) array of the stripes' dtype."""
    n_side = 1 << n_exp
    out, filled = None, 0

    def sink(stripe):
        nonlocal out, filled
        if out is None:
            out = np.empty((n_side, n_side), dtype=stripe.dtype)
        assert stripe.dtype == out.dtype and stripe.shape[1] == n_side
        out[filled:filled + len(stripe)] = stripe
        filled += len(stripe)

    tables._fill_stripes(seed, n_exp, m_exp, sink)
    assert filled == n_side
    return out


class _RecordingPool(ThreadPoolExecutor):
    sizes: list[int] = []

    def __init__(self, max_workers):
        _RecordingPool.sizes.append(max_workers)
        super().__init__(max_workers=max_workers)


class TestParallelFill:
    """The stripe fill deals its stripes out to the workers; the cells
    must not depend on how many there are."""

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    @pytest.mark.parametrize("m_exp", [1, 4, 8, 16])
    @pytest.mark.parametrize("n_exp", [3, 10, 11, 12])
    def test_cells_do_not_depend_on_worker_count(self, monkeypatch, n_exp, m_exp, seed):
        # the small tables, which hold their cells, are streamed here too
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingPool)
        n_side, mask = 1 << n_exp, (1 << m_exp) - 1
        fills = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tables, "_FILL_WORKERS", workers)
            _RecordingPool.sizes = []
            fills.append(streamed_cells(seed, n_exp, m_exp))
            assert _RecordingPool.sizes == ([workers] if workers > 1 else [])
        want = fills[0]
        assert want.dtype == (np.uint8 if m_exp <= 8 else np.uint16)
        for got in fills[1:]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # the rows on both sides of every range boundary, for 2 and 3 workers
        rows = {0, n_side - 1}
        for workers in (2, 3):
            per = -(-n_side // workers)
            rows |= {r for b in range(per, n_side, per) for r in (b - 1, b)}
        for r in sorted(rows):
            state = stream_value(seed, r)
            for c in (0, 1, n_side // 2, n_side - 1):
                assert int(want[r, c]) == stream_value(state, c) & mask

    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("n_exp", [1, 3, 6])
    def test_ranges_of_a_few_rows(self, monkeypatch, n_exp, workers):
        # small tables stream as one stripe that ends inside a fill chunk,
        # so some workers get no stripe
        seed, n_side = 0xF111, 1 << n_exp
        monkeypatch.setattr(tables, "_FILL_WORKERS", workers)
        cells = streamed_cells(seed, n_exp, 5)
        for r in range(n_side):
            want = stream_block_np(stream_value(seed, r), 0, n_side) & 31
            assert np.array_equal(cells[r], want)

    def test_concurrent_fills_agree(self, monkeypatch):
        # two fills at once, each on three workers: more threads than cores
        monkeypatch.setattr(tables, "_FILL_WORKERS", 3)
        barrier = threading.Barrier(2, timeout=60)
        got = [None, None]

        def build(i):
            barrier.wait()
            got[i] = streamed_cells(0xABC, 12, 4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got[0] is not got[1]
        assert np.array_equal(got[0], got[1])
        monkeypatch.setattr(tables, "_FILL_WORKERS", 1)
        assert np.array_equal(got[0], streamed_cells(0xABC, 12, 4))
        assert int(got[0][4095, 17]) == stream_value(stream_value(0xABC, 4095), 17) & 15

    def test_small_fill_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a small fill started a thread")

        monkeypatch.setattr(tables, "_FILL_WORKERS", 4)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert tables._SERIAL_FILL_CELLS == 1 << 20
        for n_exp in (1, 8, 10):
            random_table(TableParams(n_exp, 8, 1, 1), 3).digest()
        formula = random_table(TableParams(11, 8, 1, 1), 3)    # built, not filled
        assert formula.cells is None and formula.lookup(5, 6) >= 0
        with pytest.raises(AssertionError, match="started a thread"):
            formula.digest()


class TestKeyedTable:
    def test_deterministic(self):
        t = keyed_table(TableParams(64, 8, 32, 4), key=0xABCDEF)
        assert t.lookup(12345, 678) == t.lookup(12345, 678)

    def test_chi_square_on_million_cells(self):
        # 10^6 sampled cells at M=2^8: chi-square well under the 1e-6 tail
        from balext.tables import keyed_colors_grid

        rows = np.arange(1000, dtype=np.uint64)
        cols = np.arange(1000, dtype=np.uint64) * np.uint64(7919)
        grid = keyed_colors_grid(key_from_seed(5), 64, 8, rows, cols)
        counts = np.bincount(grid.ravel().astype(np.int64), minlength=256)
        expected = 1_000_000 / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # df=255: mean 255, sd ~22.6; 1e-6 quantile is ~edge 375; require less
        assert chi2 < 375, chi2

    def test_distinct_keys_differ(self):
        p = TableParams(32, 8, 16, 4)
        t1 = keyed_table(p, key=1)
        t2 = keyed_table(p, key=2)
        diffs = sum(
            t1.lookup(i, i * 31 % (1 << 32)) != t2.lookup(i, i * 31 % (1 << 32))
            for i in range(1000)
        )
        assert diffs >= 1

    def test_grid_matches_scalar(self):
        from balext.tables import keyed_colors_grid

        key = key_from_seed(77)
        rows = np.array([0, 5, 9], dtype=np.uint64)
        cols = np.array([3, 4], dtype=np.uint64)
        grid = keyed_colors_grid(key, 16, 7, rows, cols)
        for i, r in enumerate([0, 5, 9]):
            for j, c in enumerate([3, 4]):
                assert int(grid[i, j]) == keyed_color(key, 16, 7, r, c)

    @pytest.mark.parametrize("n_exp", [16, 64])
    @pytest.mark.parametrize("m_exp", [1, 7, 63, 64])
    def test_grid_matches_scalar_at_every_width(self, n_exp, m_exp):
        from balext.tables import keyed_colors_grid

        key = key_from_seed(m_exp)
        top = (1 << n_exp) - 1
        rows = np.array([0, 1, top, 12345], dtype=np.uint64)
        cols = np.array([top, 7, 0], dtype=np.uint64)
        kept = rows.copy(), cols.copy()
        grid = keyed_colors_grid(key, n_exp, m_exp, rows, cols)
        assert grid.dtype == np.uint64 and grid.shape == (4, 3)
        for i, r in enumerate(rows.tolist()):
            for j, c in enumerate(cols.tolist()):
                assert int(grid[i, j]) == keyed_color(key, n_exp, m_exp, r, c)
        assert np.array_equal(rows, kept[0]) and np.array_equal(cols, kept[1])

    def test_wide_colors(self):
        c = keyed_color(key_from_seed(3), 255, 186, 1 << 200, 12)
        assert 0 <= c < 1 << 186

    def test_key_range(self):
        with pytest.raises(InvalidParams):
            keyed_table(TableParams(4, 2, 2, 1), key=1 << 128)

    @pytest.mark.parametrize("n_exp", [1, 63, 64, 65, 128, 4096, 32768])
    @pytest.mark.parametrize("m_exp", [1, 63, 64, 65, 15892])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_matches_per_word_oracle(self, n_exp, m_exp, data):
        top = (1 << n_exp) - 1
        side = st.sampled_from([0, top]) | st.integers(0, top)
        key = data.draw(st.integers(0, (1 << 128) - 1), label="key")
        row = data.draw(side, label="row")
        col = data.draw(side, label="col")
        for r, c in ((row, col), (0, top), (top, 0)):
            assert keyed_color(key, n_exp, m_exp, r, c) == keyed_color_oracle(
                key, n_exp, m_exp, r, c)


class TestCanonicalTable:
    def test_all_zero_when_vacuous(self):
        # D=1: bound is 2*area, never violated; lexicographic first = all zero
        t = canonical_table(TableParams(1, 1, 1, 0))
        assert t.cells.ravel().tolist() == [0, 0, 0, 0]
        assert t.backend == BACKEND_CANONICAL

    def test_all_zero_at_d2(self):
        # top-1 mass of the 2x2 rectangle is 4 <= 2*(1/2)*4: all-zero passes
        t = canonical_table(TableParams(1, 1, 1, 1))
        assert t.cells.ravel().tolist() == [0, 0, 0, 0]

    def test_n4_m4_first_balanced(self, monkeypatch):
        # every color count <= 2*(1/4)*16 = 8: the first qualifying sequence
        # is eight 0s followed by eight 1s
        monkeypatch.setattr(tables, "MICRO_DESCRIPTION_CAP", 32)
        t = canonical_table(TableParams(2, 2, 2, 2))
        assert t.cells.ravel().tolist() == [0] * 8 + [1] * 8

    def test_cap(self):
        with pytest.raises(TooLarge):
            canonical_table(TableParams(2, 2, 2, 2))  # 32 bits > default 24

    def test_not_found(self):
        # S=1, D=4: a single cell carries its color once, 1 * 4 > 2 * 1
        with pytest.raises(NotFound):
            canonical_table(TableParams(1, 2, 0, 2))


class TestSerialization:
    def test_explicit_roundtrip_all_cells(self):
        t = random_table(TableParams(5, 9, 3, 2), seed=7)  # 16-bit cells
        back = BalancedTable.from_bytes(t.to_bytes())
        assert back.params == t.params
        assert back.backend == t.backend
        assert back.seed_or_key == t.seed_or_key
        assert np.array_equal(back.cells, t.cells)
        assert back.digest() == t.digest()

    def test_keyed_roundtrip_sampled_lookups(self):
        t = keyed_table(TableParams(100, 40, 50, 40), key=key_from_seed(123))
        back = BalancedTable.from_bytes(t.to_bytes())
        for i in range(1000):
            r = stream_value(1, 2 * i) % (1 << 100)
            c = stream_value(1, 2 * i + 1) % (1 << 100)
            assert t.lookup(r, c) == back.lookup(r, c)

    def test_rejects_bad_magic(self):
        with pytest.raises(InvalidParams):
            BalancedTable.from_bytes(b"NOPE" + bytes(23))

    def test_rejects_unknown_version(self):
        t = random_table(TableParams(2, 1, 1, 0), 0)
        data = bytearray(t.to_bytes())
        data[4] = 0xFF
        with pytest.raises(InvalidParams):
            BalancedTable.from_bytes(bytes(data))

    def test_rejects_truncated_cells(self):
        t = random_table(TableParams(2, 1, 1, 0), 0)
        with pytest.raises(InvalidParams):
            BalancedTable.from_bytes(t.to_bytes()[:-1])

    def test_rejects_oversize_exponents(self):
        t = keyed_table(TableParams(300, 40, 50, 40), key=1)
        with pytest.raises(InvalidParams):
            t.to_bytes()

    def test_rejects_truncated_header(self):
        data = random_table(TableParams(2, 1, 1, 0), 0).to_bytes()
        for cut in (b"BTAB", b"BTAB\x01", data[:26]):
            with pytest.raises(InvalidParams, match="truncated"):
                BalancedTable.from_bytes(cut)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzzed_files_raise_only_invalid_params(self, data):
        blob = bytearray(random_table(TableParams(3, 2, 2, 1), 4).to_bytes())
        if data.draw(st.booleans()):
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        for _ in range(data.draw(st.integers(0, 3))):
            if blob:
                i = data.draw(st.integers(0, len(blob) - 1))
                blob[i] ^= 1 << data.draw(st.integers(0, 7))
        try:
            BalancedTable.from_bytes(bytes(blob))
        except InvalidParams:
            pass

    def test_digest_is_hash_of_file_bytes(self):
        for t in (random_table(TableParams(4, 3, 2, 1), seed=3),
                  keyed_table(TableParams(255, 255, 255, 255), key=7)):
            assert t.digest() == hashlib.sha256(t.to_bytes()).hexdigest()
        t = random_table(TableParams(3, 2, 2, 1), 5)
        assert t.digest() == (
            "81f05280ebb34410ec309e059f51297d89141d8f8ab3821f6b75bec38e35cda6"
        )

    def test_digest_of_oversize_exponents_hashes_wide_header(self):
        key = key_from_seed(1)
        t = keyed_table(TableParams(256, 128, 64, 3), key)
        wide = b"BTBW" + struct.pack("<HBIIII", 1, BACKEND_KEYED, 256, 128, 64, 3)
        wide += key.to_bytes(16, "little")
        assert t.digest() == hashlib.sha256(wide).hexdigest()
        with pytest.raises(InvalidParams, match="n_exp = 256 exceeds"):
            t.to_bytes()

    @pytest.mark.parametrize("params, seed", [
        (TableParams(4, 3, 2, 1), 3),          # 8-bit cells
        (TableParams(5, 13, 3, 2), 11),        # 16-bit cells
        (TableParams(3, 2, 2, 1), 5),
    ])
    def test_cached_digest_hashes_file_bytes(self, params, seed):
        t = random_table(params, seed)
        first = t.digest()
        assert first == hashlib.sha256(t.to_bytes()).hexdigest()
        assert t.digest() == first and t.digest() is first

    def test_cached_wide_digest(self):
        key = key_from_seed(2)
        t = keyed_table(TableParams(300, 9, 40, 3), key)
        wide = b"BTBW" + struct.pack("<HBIIII", 1, BACKEND_KEYED, 300, 9, 40, 3)
        wide += key.to_bytes(16, "little")
        assert t.digest() == t.digest() == hashlib.sha256(wide).hexdigest()

    def test_file_roundtrip(self, tmp_path):
        t = random_table(TableParams(4, 3, 2, 1), seed=3)
        path = tmp_path / "t.btab"
        t.write(path)
        assert BalancedTable.read(path).digest() == t.digest()


class TestFileContract:
    """The table file's bytes, cells and refusals, and the memory its
    reading and writing take."""

    @pytest.mark.parametrize("m_exp, dtype", [
        (1, np.uint8), (4, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16)])
    def test_roundtrip_is_byte_identical(self, tmp_path, m_exp, dtype):
        t = random_table(TableParams(5, m_exp, 2, 1), seed=m_exp)
        data = t.to_bytes()
        assert len(data) == tables.HEADER_BYTES + 32 * 32 * np.dtype(dtype).itemsize
        path = tmp_path / "t.btab"
        t.write(path)
        assert path.read_bytes() == data
        for back in (BalancedTable.from_bytes(data), BalancedTable.read(path)):
            assert back.to_bytes() == data
            assert back.cells.dtype == t.cells.dtype == dtype
            assert not back.cells.flags.writeable and not t.cells.flags.writeable
            assert np.array_equal(back.cells, t.cells)

    @staticmethod
    def _edited(data: bytes, at: int, value: int) -> bytes:
        blob = bytearray(data)
        blob[at] = value
        return bytes(blob)

    def test_each_refusal_keeps_its_message(self, tmp_path):
        # the file reader checks the header and the file's size before it
        # reads the payload, and refuses with from_bytes' messages
        data = random_table(TableParams(3, 2, 2, 1), 4).to_bytes()
        keyed = keyed_table(TableParams(40, 8, 4, 3), key=5).to_bytes()
        cases = [
            (b"NOPE" + bytes(23), "not a table file (bad magic)"),
            (b"BT", "not a table file (bad magic)"),
            (data[:5], "truncated table file: 5 bytes, header needs 27"),
            (self._edited(data, 4, 0xFF), "unsupported table format version 255"),
            (self._edited(data, 6, 7), "unknown backend tag 7"),
            (keyed + b"\x00", "keyed table file carries unexpected cell data"),
            (data[:-1], "cell payload size does not match header"),
            (data + b"\x00", "cell payload size does not match header"),
            (self._edited(data, 30, 4), "cell payload contains out-of-range colors"),
        ]
        path = tmp_path / "t.btab"
        for blob, message in cases:
            path.write_bytes(blob)
            for parse in (lambda: BalancedTable.from_bytes(blob),
                          lambda: BalancedTable.read(path)):
                with pytest.raises(InvalidParams) as e:
                    parse()
                assert str(e.value) == message
        path.write_bytes(keyed)
        assert BalancedTable.read(path).to_bytes() == keyed

    def test_refused_header_creates_no_file(self, tmp_path):
        path = tmp_path / "wide.btab"
        with pytest.raises(InvalidParams) as e:
            keyed_table(TableParams(300, 9, 40, 3), key=1).write(path)
        assert str(e.value) == "n_exp = 300 exceeds file-format range (255)"
        assert not path.exists()

    def test_write_and_read_hold_the_cells_once(self, tmp_path):
        # a 2^24-cell table is a formula: writing it holds the fill's
        # scratch and stripes (about 1 MB per fill worker), never its
        # cells; writing a table that holds its cells copies none of them;
        # reading holds the cell array, nothing more
        t = random_table(TableParams(12, 8, 4, 2), seed=6)
        assert t.cells is None
        path = tmp_path / "big.btab"
        peak = peak_traced_bytes(lambda: t.write(path))
        assert peak < (tables._FILL_WORKERS + 1) << 20, peak / 2**20
        assert path.stat().st_size == tables.HEADER_BYTES + (1 << 24)
        held = random_table(TableParams(10, 16, 4, 2), seed=6)     # 2 MB of cells
        assert peak_traced_bytes(lambda: held.write(tmp_path / "held.btab")) < 1 << 16
        back = []
        peak = peak_traced_bytes(lambda: back.append(BalancedTable.read(path)))
        assert peak <= (1 << 24) + (1 << 20), peak / 2**20
        assert back[0].cells is not None and back[0].digest() == t.digest()

    def test_read_from_a_pipe(self):
        # a pipe has no size to check first: its bytes are parsed as a whole
        if not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd")
        data = random_table(TableParams(5, 9, 3, 2), 8).to_bytes()
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            w = None
            back = BalancedTable.read(f"/dev/fd/{r}")
        finally:
            os.close(r)
            if w is not None:
                os.close(w)
        assert back.to_bytes() == data


def _formula_oracle(params: TableParams, seed: int) -> BalancedTable:
    """A random table's materialized twin: every row from the stream rule."""
    n_side, mask = params.n_side, params.m_colors - 1
    cells = np.empty((n_side, n_side), dtype=np.uint8 if params.m_exp <= 8 else "<u2")
    for r in range(n_side):
        cells[r] = stream_block_np(stream_value(seed, r), 0, n_side) & mask
    cells.setflags(write=False)
    return BalancedTable(params, BACKEND_RANDOM, seed, cells)


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class TestFormulaTable:
    """A random table of more than 2^20 cells holds none: its lookups
    compute cells from the stream rule, and its digest, file and bytes
    stream from the fill workers in row order."""

    @pytest.mark.parametrize("m_exp", [1, 4, 8, 9, 16])
    @pytest.mark.parametrize("n_exp", [11, 12])
    def test_matches_materialized_oracle(self, monkeypatch, tmp_path, n_exp, m_exp):
        seed = 0xF00D + 17 * m_exp + n_exp
        params = TableParams(n_exp, m_exp, 4, 1)
        oracle = _formula_oracle(params, seed)
        want = oracle.digest()
        n_side = params.n_side
        probe = np.array([0, 1, 15, 16, n_side // 2, n_side - 1], dtype=np.uint64)
        for workers in (1, 2, 3):
            monkeypatch.setattr(tables, "_FILL_WORKERS", workers)
            t = random_table(params, seed)
            assert t.cells is None and t.is_explicit
            assert t.digest() == want
            written = random_table(params, seed)
            path = tmp_path / f"w{workers}.btab"
            written.write(path)
            assert written.digest() == want == _file_sha256(path)
            if n_exp == 11:
                assert t.to_bytes() == oracle.to_bytes()
        assert np.array_equal(t.grid(probe, probe[::-1]), oracle.grid(probe, probe[::-1]))
        assert t.grid(probe, probe).dtype == oracle.cells.dtype
        for r, c in zip(probe.tolist(), probe[::-1].tolist()):
            assert t.lookup(r, c) == oracle.lookup(r, c)
        for r, c in ((0, 0), (n_side - 1, 3), (7, n_side - 1)):
            assert t.lookup(r, c) == oracle.lookup(r, c)
        with pytest.raises(OutOfRange):
            t.lookup(n_side, 0)

    def test_write_then_digest_fills_once(self, monkeypatch, tmp_path):
        filled = []
        fill_rows = tables._fill_rows

        def counting(row_states, *args):
            filled.append(len(row_states))
            return fill_rows(row_states, *args)

        monkeypatch.setattr(tables, "_fill_rows", counting)
        t = random_table(TableParams(12, 8, 4, 2), seed=21)
        assert filled == []                       # building fills nothing
        t.write(tmp_path / "t.btab")
        stripes = (1 << 24) // tables._FILL_CHUNK
        assert len(filled) == stripes and sum(filled) == 1 << 12
        assert t.digest() == _file_sha256(tmp_path / "t.btab")
        assert len(filled) == stripes             # the digest came with the write
        t.lookup(5, 9)
        assert len(filled) == stripes

    @pytest.mark.parametrize("where", ["sink", "fill"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failing_stripe_stops_every_worker(self, monkeypatch, workers, where):
        # the error of stripe 3 reaches the caller, no later stripe reaches
        # the sink (an earlier one may not, once a fill has failed), and no
        # thread is left waiting for its turn
        monkeypatch.setattr(tables, "_FILL_WORKERS", workers)
        sent, errors = [], []
        fill_rows = tables._fill_rows

        def failing_fill(row_states, *args):
            if int(row_states[0]) == stream_value(3, 48):
                raise MemoryError("stripe 3")
            return fill_rows(row_states, *args)

        def sink(stripe):
            if where == "sink" and len(sent) == 3:
                raise OSError("stripe 3")
            sent.append(stripe.copy())

        if where == "fill":
            monkeypatch.setattr(tables, "_fill_rows", failing_fill)

        def run():
            try:
                tables._fill_stripes(3, 12, 8, sink)
            except (OSError, MemoryError) as e:
                errors.append(e)

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=run)
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert [str(e) for e in errors] == ["stripe 3"]
        assert len(sent) == 3 if where == "sink" else len(sent) <= 3
        for i, stripe in enumerate(sent):
            assert int(stripe[0, 5]) == stream_value(stream_value(3, 16 * i), 5) & 255
        assert threading.active_count() == before

    def test_reports_match_materialized_twin(self):
        from balext.verify import verify_prefix_balance, verify_sampled

        params = TableParams(11, 4, 3, 1)
        t, twin = random_table(params, 77), _formula_oracle(params, 77)
        assert t.cells is None
        pairs = [
            (verify_sampled(t, 3, 1, samples=40, seed=5),
             verify_sampled(twin, 3, 1, samples=40, seed=5)),
            (verify_prefix_balance(t, 3, mode="sampled", samples=40, seed=6, threads=2),
             verify_prefix_balance(twin, 3, mode="sampled", samples=40, seed=6)),
            (verify_prefix_balance(t, 11, mode="sampled", samples=1, seed=7),
             verify_prefix_balance(twin, 11, mode="sampled", samples=1, seed=7)),
        ]
        for got, want in pairs:
            assert got.to_json() == want.to_json()
            assert got == want


@settings(max_examples=30)
@given(st.integers(0, 2**64 - 1))
def test_key_from_seed_is_128_bit_and_injective_on_low(seed):
    key = key_from_seed(seed)
    assert 0 <= key < 1 << 128
    assert key & ((1 << 64) - 1) == seed
