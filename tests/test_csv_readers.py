"""The C-parsed dataset readers agree with the line scanners they fall back to.

For every generated file, valid or malformed, ``graphio._read_*`` and the
matching ``graphio._scan_*`` reference must return the same array bytes or
raise the same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlpcascade.graphio as gio

# Malformed or borderline tokens: each is rejected by one parser or the
# other, or maps to a value the readers must check (non-finite, overflow,
# out of range, negative).
ODD_TOKENS = [
    "", " ", "\t", "#", "# 1", "1_0", "nan", "-inf", "inf", "Infinity", "1e39",
    "-1e39", "abc", "0x10", "+1", "-0", ".5", "1.", "1e", "1.0", "1e3", " 2 ",
    "--1", "99999999999999999999", "-1", "\xa03", "1 2",
]
SPECIAL_LINES = ["", "   ", "\t", "#", "# comment", "1,", ",", "0,1,"]

FLOAT_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda v: "%.9g" % v),
    st.integers(-10**6, 10**6).map(str),
)
# Node ids and labels: mostly small enough to land in and around [0, n).
INT_TOKENS = st.integers(-2, 8).map(str)


def _tables(valid_tokens, widths):
    """CSV text: either well-formed rows of one width or messy lines."""
    valid = widths.flatmap(
        lambda w: st.lists(
            st.lists(valid_tokens, min_size=w, max_size=w).map(",".join), max_size=8
        )
    )
    token = st.one_of(valid_tokens, st.sampled_from(ODD_TOKENS))
    messy_line = st.one_of(
        st.lists(token, min_size=1, max_size=4).map(",".join),
        st.sampled_from(SPECIAL_LINES),
    )
    lines = st.one_of(valid, st.lists(messy_line, max_size=8))
    return st.tuples(lines, st.sampled_from(["\n", "\r\n"]), st.booleans()).map(
        lambda t: t[1].join(t[0]) + (t[1] if t[2] and t[0] else "")
    )


def _outcome(fn, *args):
    try:
        arr = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", arr.dtype.str, arr.shape, arr.tobytes())


PROPERTY = settings(max_examples=200, deadline=None)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "table.csv"


@PROPERTY
@given(
    text=_tables(FLOAT_TOKENS, st.integers(1, 4)),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_features_reader_matches_scanner(csv_path, text, dtype):
    csv_path.write_text(text)
    assert _outcome(gio._read_features, csv_path, dtype) == _outcome(
        gio._scan_features, csv_path, dtype
    )


@PROPERTY
@given(
    text=_tables(INT_TOKENS, st.sampled_from([2, 2, 2, 1, 3])),
    n_nodes=st.integers(1, 6),
)
def test_edges_reader_matches_scanner(csv_path, text, n_nodes):
    csv_path.write_text(text)
    assert _outcome(gio._read_edges, csv_path, n_nodes) == _outcome(
        gio._scan_edges, csv_path, n_nodes
    )


@PROPERTY
@given(
    text=_tables(INT_TOKENS, st.sampled_from([1, 1, 1, 2])),
    n_nodes=st.integers(1, 6),
)
def test_labels_reader_matches_scanner(csv_path, text, n_nodes):
    csv_path.write_text(text)
    assert _outcome(gio._read_labels, csv_path, n_nodes) == _outcome(
        gio._scan_labels, csv_path, n_nodes
    )


def test_well_formed_dataset_never_reaches_the_scanners(tmp_path, monkeypatch):
    g = gio.synth_sbm(60, 3, 8, 0.3, 0.02, 1.0, seed=2)
    gio.save_dataset(g, tmp_path)
    for name in ("_scan_features", "_scan_edges", "_scan_labels"):
        monkeypatch.setattr(gio, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    loaded = gio.load_dataset(tmp_path)
    assert np.array_equal(loaded.features, g.features)
    assert (loaded.adjacency != g.adjacency).nnz == 0
