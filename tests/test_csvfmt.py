"""The ``%.9g`` and ``%d`` kernels give Python's ``%`` bytes, and the writer
built on them gives the bytes of the blocked-``%`` writer it replaced.

Each kernel token is checked on its own against ``fmt % v + sep``; a value
the kernel leaves to the fallback must have an empty record. Whole files are
checked against ``reference_write_csv``, the writer before the kernels.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlpcascade.graphio as gio
from mlpcascade import csvfmt
from test_csv_readers import _finite_values

PROPERTY = settings(max_examples=200, deadline=None)


def reference_write_csv(path, table, fmt, header=""):
    """``graphio._write_csv`` before the kernels: each block of rows is
    formatted by one ``%`` over its flat tuple."""
    fmts = [fmt] * table.shape[1] if isinstance(fmt, str) else list(fmt)
    row = ",".join(fmts) + "\n"
    block_rows = max(1, (1 << 14) // table.shape[1])
    digest = hashlib.sha256()
    with open(path, "wb") as f:

        def write(text):
            data = text.encode()
            digest.update(data)
            f.write(data)

        if header:
            write(header + "\n")
        for start in range(0, table.shape[0], block_rows):
            block = table[start : start + block_rows]
            write((row * block.shape[0]) % tuple(block.ravel().tolist()))
    return digest.hexdigest()


def kernel_tokens(block, fmt):
    """Per value of the 2-D ``block``: the bytes its kernel record holds,
    or None when the value is left to the fallback (its record empty)."""
    line_end = np.arange(block.shape[1]) == block.shape[1] - 1
    records, fallback = csvfmt.kernel(fmt, block.dtype)(block, line_end)
    assert records.shape == (*block.shape, 2) and records.dtype == np.uint64
    out = []
    for rec, fell in zip(records.reshape(-1, 2), fallback.ravel()):
        raw = rec.tobytes()
        token = raw.rstrip(b"\0")
        assert b"\0" not in token, raw  # left-aligned, padded after
        assert not (fell and token), raw
        out.append(None if fell else token)
    return out


def expected_tokens(block, fmt):
    seps = [","] * (block.shape[1] - 1) + ["\n"]
    return [
        (fmt % v + sep).encode()
        for row in block.tolist()
        for v, sep in zip(row, seps)
    ]


def check_kernel(block, fmt):
    got = kernel_tokens(block, fmt)
    want = expected_tokens(block, fmt)
    for token, ref in zip(got, want):
        assert token is None or token == ref


def _odd_floats(dtype):
    """Values that steer the kernel to its fallback or its edges: non-finite
    ones, exact 9-digit ties (Python rounds them half to even), and powers
    of ten and one ulp either side, near the log10 and carry boundaries."""
    top = 39 if dtype == np.float32 else 40  # 1e39 overflows float32
    powers = [dtype(float(f"1e{k}")) for k in range(-45, top)]
    powers = [p for p in powers if p != 0]
    values = [np.inf, -np.inf, np.nan, 1.001953125, -1.001953125, 1234567895.0,
              1234567885.0, 999999999.5, 9.99999999e29, 1e30, 1e-30, 0.0001, 1e9]
    values += powers
    values += [np.nextafter(p, dtype(np.inf)) for p in powers]
    values += [np.nextafter(p, dtype(0)) for p in powers]
    return st.sampled_from([dtype(v) for v in values])


@st.composite
def float_blocks(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    odd = _odd_floats(dtype)
    value = st.one_of(_finite_values(dtype), odd, odd.map(lambda v: -v))
    values = draw(st.lists(value, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=dtype).reshape(rows, cols)


INT64 = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(10**10), 10**10),
    st.integers(-1000, 100000),
    st.sampled_from(
        [0, -(2**63), 2**63 - 1]
        + [s * (10**k + e) for k in range(11) for e in (-1, 0) for s in (1, -1)]
    ),
)


@st.composite
def int_blocks(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    values = draw(st.lists(INT64, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.int64).reshape(rows, cols)


class TestKernels:
    @PROPERTY
    @given(block=float_blocks())
    def test_g9_tokens_equal_percent(self, block):
        check_kernel(block, "%.9g")

    @PROPERTY
    @given(block=int_blocks())
    def test_d_tokens_equal_percent(self, block):
        check_kernel(block, "%d")

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.int32, np.uint64])
    def test_d_tokens_of_every_integer_dtype(self, dtype):
        info = np.iinfo(dtype)
        values = np.array([info.min, info.max, 0, 1, info.max // 2, info.min // 3], dtype=dtype)
        check_kernel(values.reshape(2, 3), "%d")

    def test_fallback_covers_exactly_what_the_kernel_cannot_prove(self):
        # non-finite, outside [1e-30, 1e30), then two exact ties
        fallback = [np.nan, np.inf, -np.inf, 1e30, 1e-31, 1.001953125, 1234567895.0]
        kept = [0.0, -0.0, 9.99999999e29, 1.5, 2.0**-99, -1e-30]
        tokens = kernel_tokens(np.array([fallback + kept]), "%.9g")
        assert tokens == [None] * 7 + [
            b"0,", b"-0,", b"9.99999999e+29,", b"1.5,", b"1.57772181e-30,", b"-1e-30\n"
        ]

    def test_log10_one_off_is_corrected_not_left_to_the_fallback(self):
        # log10 of a float64 one ulp below 1e-30..1e28 rounds up to the power
        powers = np.array([float(f"1e{k}") for k in range(-29, 30)])
        block = np.stack([np.nextafter(powers, 0), powers, np.nextafter(powers, 2 * powers)])
        tokens = kernel_tokens(block, "%.9g")
        assert None not in tokens
        assert tokens == expected_tokens(block, "%.9g")

    def test_d_fallback_beyond_nine_digits(self):
        block = np.array([[10**9, -(10**9), 999999999, -999999999, -(2**63)]])
        tokens = kernel_tokens(block, "%d")
        assert tokens == [None, None, b"999999999,", b"-999999999,", None]

    def test_no_kernel_for_other_formats(self):
        assert csvfmt.kernel("%.17g", np.float64) is None
        assert csvfmt.kernel("%d", np.float64) is None
        assert csvfmt.kernel("%.9g", np.int64) is None
        assert csvfmt.kernel("%d", np.bool_) is None

    def test_gaussian_table_rarely_reaches_the_fallback(self):
        rng = np.random.default_rng(0)
        table = (rng.standard_normal((400, 1433)) * 1.5).astype(np.float32)
        _, fallback = csvfmt.format_g9(table, np.arange(1433) == 1432)
        # exact ties of float32 values are about 3e-5 of them
        assert fallback.mean() < 1e-3


class TestWriteCsvBlocks:
    """Whole files against the blocked-% writer, across block boundaries."""

    @pytest.mark.parametrize(
        "shape", [(0, 3), (1, 1), (5, 1), (16385, 1), (5462, 3), (12, 1433), (3, 16385), (2, 7)]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_bytes_match_reference(self, tmp_path, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        if dtype == np.int64:
            table, fmt = rng.integers(-50, 10**6, size=shape), "%d"
        else:
            table, fmt = rng.standard_normal(shape).astype(dtype), "%.9g"
            # fallback values and zeros among the kernel's
            at = np.arange(0, table.size, 97)
            table.flat[at] = np.resize(np.array([np.nan, 0.0, 1e35, -1.001953125], dtype), at.size)
        digest = gio._write_csv(tmp_path / "new.csv", table, fmt, header="h")
        ref = reference_write_csv(tmp_path / "ref.csv", table, fmt, header="h")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert digest == ref

    def test_columns_of_different_dtypes(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 20001
        columns = [np.arange(n), rng.integers(0, 7, n), rng.random(n)]
        columns[2][[3, 500]] = [np.nan, 1e-300]
        fmt = ("%d", "%d", "%.9g")
        gio._write_csv(tmp_path / "new.csv", columns, fmt, header="a,b,c")
        reference_write_csv(tmp_path / "ref.csv", np.column_stack(columns), fmt, header="a,b,c")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_saved_dataset_bytes_match_reference_writer(tmp_path, monkeypatch, dtype):
    g = gio.synth_sbm(900, 3, 40, 0.05, 0.005, 1.5, seed=7, dtype=dtype)
    gio.save_dataset(g, tmp_path / "new")
    monkeypatch.setattr(gio, "_write_csv", reference_write_csv)
    gio.save_dataset(g, tmp_path / "ref")
    names = sorted(p.name for p in (tmp_path / "ref").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "new").iterdir())
    assert len(names) == 7  # three CSVs, their mirrors, splits.json
    for name in names:
        new, ref = ((tmp_path / d / name).read_bytes() for d in ("new", "ref"))
        assert hashlib.sha256(new).digest() == hashlib.sha256(ref).digest(), name


def test_edges_keep_row_col_order_from_unsorted_edge_list(tmp_path):
    g = gio.synth_sbm(300, 3, 8, 0.05, 0.005, 1.0, seed=2)
    # same edges, in shuffled order, half of them reversed
    rng = np.random.default_rng(0)
    edges = g.edges[rng.permutation(g.n_edges)]
    flip = rng.random(g.n_edges) < 0.5
    edges[flip] = edges[flip, ::-1]
    gio.save_dataset(g, tmp_path / "sorted")
    unsorted = gio.Graph(features=g.features, labels=g.labels, splits=g.splits, edges=edges)
    gio.save_dataset(unsorted, tmp_path / "unsorted")
    for name in ("edges.csv", "edges.csv.mirror"):
        assert (tmp_path / "sorted" / name).read_bytes() == (tmp_path / "unsorted" / name).read_bytes()


def _direct_kernel(fmt, group, line_end, block_rows):
    return csvfmt.kernel(fmt, group.dtype)


def _table_cases():
    rng = np.random.default_rng(5)
    n = 1000
    shuffled = rng.permutation(n)
    int8 = rng.integers(-128, 128, size=(20000, 1)).astype(np.int8)
    int8[:2, 0] = [-128, 127]
    near_2_64 = np.uint64(2**64 - 1) - rng.integers(0, 5, size=(50, 1)).astype(np.uint64)
    return {
        # table on: span below the value count
        "negative ids": (rng.integers(-500, 500, size=(20000, 2)), "%d", True),
        "zeros": (np.zeros((100, 1), np.int64), "%d", True),
        "span count - 1": (np.append(shuffled[shuffled != 999], 5)[:, None], "%d", True),
        "int32": (rng.integers(-7, 3000, size=(17000, 1)).astype(np.int32), "%d", True),
        "uint8": (rng.integers(0, 256, size=(3000, 3)).astype(np.uint8), "%d", True),
        "int8 across its range": (int8, "%d", True),
        "int64 nine digits": (rng.integers(999999000, 10**9, size=(4000, 1)), "%d", True),
        "negative nine digits": (-rng.integers(999999000, 10**9, size=(4000, 1)), "%d", True),
        "edge group": (gio.synth_sbm(2000, 4, 4, 0.05, 0.001, 1.0, seed=3).edges, "%d", True),
        "labels column": (rng.integers(0, 7, size=(30000, 1)), "%d", True),
        # table off: span not below the value count, or a value of ten digits
        "span count": (shuffled[:, None], "%d", False),
        "span count + 1": (np.delete(np.arange(n + 1), 500)[:, None], "%d", False),
        "reaches 1e9": (rng.integers(10**9 - 3, 10**9 + 3, size=(500, 2)), "%d", False),
        "reaches -1e9": (rng.integers(-(10**9) - 3, -(10**9) + 3, size=(500, 1)), "%d", False),
        "uint64 near 2**64": (near_2_64, "%d", False),
        "int64 extremes": (np.array([[-(2**63)], [2**63 - 1]] * 3), "%d", False),
        "one value": (np.array([[4]]), "%d", False),
        "empty": (np.empty((0, 2), np.int64), "%d", False),
    }


TABLE_CASES = _table_cases()


class TestTokenTable:
    """``group_kernel``'s token table against the direct ``%d`` kernel and
    ``np.savetxt``: the same bytes, and the table on exactly when the span
    is below the value count and holds no ten-digit value."""

    @pytest.mark.parametrize("name", TABLE_CASES)
    def test_bytes_match_direct_kernel_and_savetxt(self, tmp_path, monkeypatch, name):
        table, fmt, tabled = TABLE_CASES[name]
        line_end = np.arange(table.shape[1]) == table.shape[1] - 1
        kern = csvfmt.group_kernel(fmt, table, line_end, 7)
        assert (kern is not csvfmt.format_d) == tabled
        digest = gio._write_csv(tmp_path / "table.csv", table, fmt)
        np.savetxt(tmp_path / "savetxt.csv", table, fmt=fmt, delimiter=",")
        monkeypatch.setattr(csvfmt, "group_kernel", _direct_kernel)
        gio._write_csv(tmp_path / "direct.csv", table, fmt)
        got = (tmp_path / "table.csv").read_bytes()
        assert got == (tmp_path / "direct.csv").read_bytes()
        assert got == (tmp_path / "savetxt.csv").read_bytes()
        assert digest == hashlib.sha256(got).hexdigest()

    def test_tokens_carry_each_columns_separator(self):
        block = np.array([[3, 3, 3], [1, 2, 3]] * 4)
        line_end = np.array([False, False, True])
        records, fallback = csvfmt.group_kernel("%d", block, line_end, 2)(block, line_end)
        direct, direct_fallback = csvfmt.format_d(block, line_end)
        assert records.shape == direct.shape and records.dtype == direct.dtype
        assert records.tobytes() == direct.tobytes()
        assert not fallback.any() and not direct_fallback.any()

    @pytest.mark.parametrize("n", [3, 40000])
    def test_predictions_columns_match_direct_kernel_and_savetxt(self, tmp_path, monkeypatch, n):
        # the mixed-column writer of predictions.csv: node ids (a span as
        # long as the column, so no table), class ids (a table) and %.9g
        rng = np.random.default_rng(n)
        columns = [np.arange(n), rng.integers(0, 7, n), rng.random(n).astype(np.float32)]
        fmt = ("%d", "%d", "%.9g")
        header = "node,pred_class,confidence_weighted_max"
        gio._write_csv(tmp_path / "table.csv", columns, fmt, header=header)
        np.savetxt(tmp_path / "savetxt.csv", np.column_stack(columns), fmt=fmt, delimiter=",",
                   header=header, comments="")
        monkeypatch.setattr(csvfmt, "group_kernel", _direct_kernel)
        gio._write_csv(tmp_path / "direct.csv", columns, fmt, header=header)
        got = (tmp_path / "table.csv").read_bytes()
        assert got == (tmp_path / "direct.csv").read_bytes()
        assert got == (tmp_path / "savetxt.csv").read_bytes()
