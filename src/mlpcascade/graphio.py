"""Dataset ingestion, adjacency normalization, split management, and a
seeded stochastic-block-model generator for synthetic graphs.

Dataset directory format (plain text, no headers):

* ``features.csv``  one row per node, comma-separated decimal features
* ``edges.csv``     one ``src,dst`` pair per line, 0-based node ids
* ``labels.csv``    one integer class id per line
* ``splits.json``   object with exactly the integer arrays ``labeled``,
  ``validation`` and ``test``, pairwise disjoint; optional -- when absent,
  Planetoid-style splits (20 labeled nodes per class, 500 validation, 1000
  test, seed 0) are generated.

Two loaders read a directory. ``load_nodes`` reads the node tables only
(features, labels, splits) into ``NodeTables``: the students are MLPs and
never see the graph, so ``distill`` and ``sweep`` load this way and never
open ``edges.csv``. ``load_dataset`` reads the same node tables through
``load_nodes``, then the edge list, into a ``Graph``, which is a
``NodeTables`` plus its edge list (``edges``, passed by keyword); only
``train-teacher`` loads this way. ``infer`` reads one features-format file
(``read_features``).

Edges are undirected: input pairs are symmetrized and deduplicated, and
self-loops are stripped on load (normalization re-adds them). A ``Graph``
stores the result as its one form of the graph: the canonical edge list,
the sorted ``i < j`` pairs, as int32 node ids (``index_dtype``). Its
``adjacency`` is derived from that list on access, and the teacher's
normalized adjacency is built from it directly.

Blank and whitespace-only lines are skipped; ``#`` is data, not a comment.
Features must be finite at the working dtype. A malformed file raises
``ValueError`` naming the file and line.

Every table is read in one order (``_read_table``): its binary mirror,
else the CSV parsed in C, else the line scanner, which is the reference
parser and the only error reporter.

Binary mirrors. ``save_dataset`` also writes ``features.csv.mirror``,
``edges.csv.mirror`` and ``labels.csv.mirror``: a one-line JSON header (the
CSV's sha256, the payload's ``numkit.fingerprint``, dtype and shape) and the
little-endian bytes of exactly the table parsing that CSV returns. The CSV
is the source of truth. A reader takes the mirror only when it asks for the
mirror's dtype, the CSV still has the recorded sha256, the payload has the
recorded size and fingerprint, and the table passes the reader's own checks;
on any miss it parses the CSV as if there were no mirror, so every accepted
table and every error message is the same either way. Hand-written
directories carry no mirror and always take the CSV path. Loading never
writes into the dataset directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
from scipy import sparse

from . import csvfmt
from .numkit import DEFAULT_DTYPE, SparseMatrix, fingerprint
from .params import JSON_KIND_NAMES

# Defaults used when a dataset directory carries no splits.json.
DEFAULT_N_PER_CLASS = 20
DEFAULT_N_VAL = 500
DEFAULT_N_TEST = 1000
DEFAULT_SPLIT_SEED = 0

# Norm of the synthetic class means (see synth_sbm).
MEAN_SEPARATION = 3.0

# Values formatted per block by _write_csv. Each kernel step is one numpy
# call over the block, so a block must amortize the per-call cost while its
# temporaries (about 100 bytes a value) stay in cache. Writing cora-shape
# features (2702 x 1433 float32) took a median 0.68-0.73 s at 4k values,
# 0.55-0.60 s at 8k, 0.51-0.55 s at 16k, 0.45-0.49 s at 32k and 0.48-0.54 s
# at 64k (two sets of 6 interleaved runs, one thread of a 2-vCPU Xeon); a
# whole save_dataset took the same at 16k and 32k within the host's noise.
_WRITE_BLOCK_VALUES = 1 << 14

# Feature values per row block drawn by synth_sbm.
_SYNTH_BLOCK_VALUES = 1 << 16


@dataclass
class Splits:
    """Disjoint index sets partitioning the nodes for semi-supervised training.

    ``unlabeled`` is the complement of ``labeled`` and therefore contains the
    validation and test sets plus any remaining nodes.
    """

    labeled: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    unlabeled: np.ndarray


@dataclass(frozen=True)
class NodeTables:
    """A dataset's node tables without its graph: what an MLP student trains
    and is scored on. A ``Graph`` is a ``NodeTables`` plus its edge list, so
    either serves where node tables are read."""

    features: np.ndarray  # N x d
    labels: np.ndarray  # N x C one-hot
    splits: Splits

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True, kw_only=True)
class Graph(NodeTables):
    """An undirected attributed graph: the node tables (one-hot labels and
    splits included) plus ``edges``, which is passed by keyword, so an edge
    list can never land in another field by position.

    ``edges`` is the graph's one stored form: its canonical undirected edge
    list, the pairs ``(i, j)`` with ``i < j``, sorted by ``(i, j)``, without
    repeats, as int32 node ids, the width ``index_dtype`` gives the
    adjacency and Â. Construction canonicalizes any ``(M, 2)`` integer list
    of node ids in ``[0, N)`` as ``load_dataset`` does: reversed pairs and
    repeats collapse and self-loops are dropped. The ids are range-checked
    at the list's own dtype before they are narrowed, and a graph too large
    for int32 (``index_dtype`` of its N nodes and the 2M adjacency entries
    the list can give at most) is refused with a ValueError. The fields
    cannot be reassigned, so the list stays canonical; ``dataclasses.replace``
    builds a new graph. ``adjacency`` is derived from the list on each
    access and never kept.
    """

    edges: np.ndarray  # M x 2 int32 (index_dtype), canonical

    def __post_init__(self):
        edges = np.asarray(self.edges)
        if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
            raise ValueError(
                f"edges must be an (M, 2) array of node ids, got shape {edges.shape} "
                f"of dtype {edges.dtype}"
            )
        if edges.size and (edges.min() < 0 or edges.max() >= self.n_nodes):
            raise ValueError(f"edge node id out of range [0, {self.n_nodes})")
        idx = index_dtype(self.n_nodes, 2 * edges.shape[0])
        object.__setattr__(
            self, "edges", _undirected_pairs(edges.astype(idx, copy=False), self.n_nodes)
        )

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.edges.shape[0]

    @property
    def adjacency(self) -> SparseMatrix:
        """The symmetric 0/1 adjacency with zero diagonal, at the features'
        dtype and with int32 index arrays (``index_dtype``), built from
        ``edges`` on each access."""
        return _adjacency_from_pairs(self.edges, self.n_nodes, self.features.dtype)


def _parse_csv(path: Path, dtype) -> np.ndarray | None:
    """Parse a comma-separated numeric table in C, as a 2-D array.

    Returns None when numpy rejects the file or warns about it (an empty
    file warns); the line scanners below then accept it or name the bad
    line. ``comments=None`` keeps ``#`` lines as data, which the scanners
    reject, where numpy's default would drop them silently.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            return None


def _mirror_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.name + ".mirror")


def _write_mirror(csv_path: Path, csv_sha256: str, table: np.ndarray) -> None:
    """Write the binary mirror of the CSV just written from ``table``: one
    JSON header line, then the table's little-endian bytes. No timestamp,
    so saving one graph twice gives the same bytes."""
    table = np.ascontiguousarray(table)
    header = {
        "csv_sha256": csv_sha256,
        "dtype": table.dtype.name,
        "fingerprint": fingerprint(table),
        "shape": list(table.shape),
    }
    with open(_mirror_path(csv_path), "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        f.write(table.astype(table.dtype.newbyteorder("<"), copy=False).data)


def _read_mirror(csv_path: Path, dtype) -> np.ndarray | None:
    """The 2-D table mirrored for ``csv_path`` at ``dtype``, or None unless
    a mirror exists at that dtype, its header parses, the CSV still hashes
    to the recorded sha256, and the payload has the recorded byte count and
    fingerprint. The CSV is hashed in a stream, never held in memory."""
    dtype = np.dtype(dtype)
    try:
        with open(_mirror_path(csv_path), "rb") as f:
            header = json.loads(f.readline())
            if not (
                isinstance(header, dict)
                and sorted(header) == ["csv_sha256", "dtype", "fingerprint", "shape"]
                and header["dtype"] == dtype.name
                and isinstance(shape := header["shape"], list)
                and len(shape) == 2
                and all(type(n) is int and n >= 0 for n in shape)
            ):
                return None
            payload = os.fstat(f.fileno()).st_size - f.tell()
            if payload != shape[0] * shape[1] * dtype.itemsize:
                return None
            table = np.empty(shape, dtype=dtype.newbyteorder("<"))
            if f.readinto(table.reshape(-1).view(np.uint8)) != payload:
                return None
        with open(csv_path, "rb") as f:
            if hashlib.file_digest(f, "sha256").hexdigest() != header["csv_sha256"]:
                return None
    except (OSError, ValueError):  # no mirror, or a header that is not JSON
        return None
    table = table.astype(dtype, copy=False)
    if fingerprint(table) != header["fingerprint"]:
        return None
    return table


def _read_table(path: Path, dtype, parse_dtype, accept, scan) -> np.ndarray:
    """One dataset table at ``dtype``, from the first source ``accept``
    takes: the binary mirror (see the module docstring), then the CSV parsed
    in C at ``parse_dtype`` and cast to ``dtype``; else ``scan()``, the line
    scanner, which accepts the file by the same rules or names its bad line,
    its table cast to ``dtype``.

    A float beyond ``dtype``'s range turns inf in the cast, which ``accept``
    sees, so floats are checked after it; an integer would wrap silently
    into range, so integers are checked at ``parse_dtype`` and only then
    narrowed."""
    mirrored = _read_mirror(path, dtype)
    if mirrored is not None and accept(mirrored):
        return mirrored
    table = _parse_csv(path, parse_dtype)
    if table is not None:
        if table.dtype.kind == "f":
            with np.errstate(over="ignore"):
                table = table.astype(dtype, copy=False)
        if accept(table):
            return table.astype(dtype, copy=False)
    return scan().astype(dtype, copy=False)


def read_features(path, dtype) -> np.ndarray:
    """Read a features-format CSV (one row of decimal values per node) at
    ``dtype``, every value finite there. Uses the file's binary mirror when
    it provably matches (see the module docstring); otherwise parses the
    CSV. A malformed file raises ``ValueError`` naming the file and line."""
    path = Path(path)
    return _read_table(
        path,
        dtype,
        np.float64,
        # a 0-row table is no feature file: the scanner names it
        lambda t: t.size and np.isfinite(t).all(),
        lambda: _scan_features(path, dtype),
    )


def _read_edges(path: Path, n_nodes: int) -> np.ndarray:
    """The pairs of ``edges.csv`` at ``path`` as int32 node ids in
    ``[0, n_nodes)``, read as given (``Graph`` canonicalizes them). Parsed
    ids are range-checked at int64 before they are narrowed; a node count
    beyond int32 is refused first (``index_dtype``)."""
    return _read_table(
        path,
        index_dtype(n_nodes, 0),
        np.int64,
        lambda t: t.shape[1] == 2 and np.all((t >= 0) & (t < n_nodes)),
        lambda: _scan_edges(path, n_nodes),
    )


def _read_labels(path: Path, n_nodes: int) -> np.ndarray:
    """The class ids of ``labels.csv`` at ``path``, one for each of the
    ``n_nodes`` rows of the ``features.csv`` beside it, which a count
    mismatch names."""
    return _read_table(
        path,
        np.int64,
        np.int64,
        lambda t: t.shape == (n_nodes, 1) and np.all(t >= 0),
        lambda: _scan_labels(path, n_nodes),
    ).ravel()


# Line scanners: the reference parsers and the only error reporters. The
# readers above fall back to them whenever the C parse fails or a whole-array
# check does, so a file is accepted or rejected (with the same message) by
# the same rules on either path.


def _data_lines(path: Path):
    """The 1-based number and stripped text of each non-blank line."""
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            if line := line.strip():
                yield line_no, line


def _scan_features(path: Path, dtype) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    for line_no, line in _data_lines(path):
        try:
            values = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}: bad value at line {line_no}: {exc}") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(
                f"{path}: line {line_no} has {len(values)} fields, expected {width}"
            )
        # checked at the working dtype, so float32 overflow (1e39) counts
        with np.errstate(over="ignore"):
            if not np.isfinite(np.asarray(values, dtype=dtype)).all():
                raise ValueError(f"{path}: non-finite value at line {line_no}")
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    return np.asarray(rows, dtype=dtype)


def _scan_edges(path: Path, n_nodes: int) -> np.ndarray:
    pairs: list[tuple[int, int]] = []
    for line_no, line in _data_lines(path):
        fields = line.split(",")
        if len(fields) != 2:
            raise ValueError(f"{path}: line {line_no} has {len(fields)} fields, expected 2")
        try:
            src, dst = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"{path}: non-integer edge at line {line_no}") from None
        if not (0 <= src < n_nodes and 0 <= dst < n_nodes):
            raise ValueError(f"{path}: line {line_no}: node id out of range [0, {n_nodes})")
        pairs.append((src, dst))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def _scan_labels(path: Path, n_nodes: int) -> np.ndarray:
    ids: list[int] = []
    for line_no, line in _data_lines(path):
        try:
            ids.append(int(line))
        except ValueError:
            raise ValueError(f"{path}: non-integer label at line {line_no}") from None
        if not -(2**63) <= ids[-1] < 2**63:
            raise ValueError(f"{path}: label at line {line_no} does not fit in int64")
    if len(ids) != n_nodes:
        raise ValueError(
            f"{path}: {len(ids)} labels for the {n_nodes} nodes of "
            f"{path.with_name('features.csv')}"
        )
    arr = np.asarray(ids, dtype=np.int64)
    if arr.min() < 0:
        raise ValueError(f"{path}: label {arr.min()} out of range (must be >= 0)")
    return arr


def _onehot(class_ids: np.ndarray, n_classes: int, dtype) -> np.ndarray:
    out = np.zeros((class_ids.size, n_classes), dtype=dtype)
    out[np.arange(class_ids.size), class_ids] = 1
    return out


_CANONICAL_BLOCK = 1 << 16


def _pair_keys(i: np.ndarray, j: np.ndarray, n_nodes: int) -> np.ndarray:
    """The int64 keys ``i * n_nodes + j`` of node ids ``i`` and ``j``, formed
    at int64 whatever the ids' dtype: an int32 product would wrap from
    46341 nodes."""
    key = i.astype(np.int64)
    key *= n_nodes
    key += j
    return key


def _is_canonical(i: np.ndarray, j: np.ndarray, n_nodes: int) -> bool:
    """Whether every pair has ``i < j`` and the keys ``i * n_nodes + j``
    strictly increase, checked block by block with the last key of each
    block carried to the next."""
    last = -1  # keys are >= 0
    for start in range(0, i.size, _CANONICAL_BLOCK):
        bi, bj = i[start:start + _CANONICAL_BLOCK], j[start:start + _CANONICAL_BLOCK]
        if not np.all(bi < bj):
            return False
        key = _pair_keys(bi, bj, n_nodes)
        if key[0] <= last or not np.all(key[1:] > key[:-1]):
            return False
        last = key[-1]
    return True


def _undirected_pairs(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Canonical (i < j) deduplicated pairs with self-loops stripped, sorted
    by (i, j), at the dtype of ``edges``, an integer list of ids in
    ``[0, n_nodes)``.

    Input that is already canonical, as ``save_dataset`` writes it and
    ``synth_sbm`` draws it, is returned after one pass over the scalar keys
    ``i * n_nodes + j``, taken ``_CANONICAL_BLOCK`` rows at a time so that
    no whole-list key array is built. Other
    input sorts those keys and drops adjacent repeats, which is far faster
    than ``np.unique`` on the pair rows.
    """
    i, j = edges[:, 0], edges[:, 1]
    if _is_canonical(i, j, n_nodes):
        return edges
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    keep = lo != hi
    key = np.sort(_pair_keys(lo[keep], hi[keep], n_nodes))
    key = key[np.diff(key, prepend=-1) != 0]  # keys are >= 0
    pairs = np.empty((key.size, 2), dtype=edges.dtype)
    np.divmod(key, n_nodes, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def index_dtype(n_nodes: int, n_entries: int) -> np.dtype:
    """The index width of a sparse matrix over ``n_nodes`` nodes holding
    ``n_entries`` entries, the adjacency and Â alike: int32, which holds
    every column index and every row-pointer value of a matrix with at most
    2^31 - 1 nodes and entries. A ValueError naming both counts refuses a
    larger one before any of it is built."""
    limit = np.iinfo(np.int32).max
    if n_nodes > limit or n_entries > limit:
        raise ValueError(
            f"a graph of {n_nodes} nodes and {n_entries} adjacency entries does not "
            f"fit int32 index arrays (at most {limit} of each)"
        )
    return np.dtype(np.int32)


def _adjacency_from_pairs(pairs: np.ndarray, n_nodes: int, dtype) -> SparseMatrix:
    """The symmetric 0/1 adjacency of canonical pairs (``_undirected_pairs``):
    the upper triangle is already in CSR order, so its row pointer is where
    each row starts in the list, and the lower triangle is its transpose.
    Indices come out sorted, with int32 index arrays (``index_dtype``)."""
    idx = index_dtype(n_nodes, 2 * pairs.shape[0])
    if pairs.shape[0] == 0:
        return sparse.csr_array((n_nodes, n_nodes), dtype=dtype)  # int32 indices
    i = pairs[:, 0]
    indptr = np.searchsorted(i, np.arange(n_nodes + 1, dtype=i.dtype)).astype(idx)
    upper = sparse.csr_array(
        (np.ones(pairs.shape[0], dtype=dtype), pairs[:, 1].astype(idx), indptr),
        shape=(n_nodes, n_nodes),
    )
    return upper + sparse.csr_array(upper.T)


_SPLIT_KEYS = ("labeled", "validation", "test")


def _read_splits(path: Path, n_nodes: int) -> Splits:
    """Read ``splits.json``: an object with exactly the keys labeled,
    validation and test, each a list of distinct integer node ids in
    [0, n_nodes) (no floats, no booleans), the three sets pairwise disjoint.
    Any other content raises ``ValueError`` naming the file."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or sorted(raw) != sorted(_SPLIT_KEYS):
        got = sorted(raw) if isinstance(raw, dict) else JSON_KIND_NAMES[type(raw)]
        raise ValueError(
            f"{path}: must be an object with exactly the keys labeled, "
            f"validation and test; got {got}"
        )
    sets = {name: _split_ids(path, name, raw[name], n_nodes) for name in _SPLIT_KEYS}
    # each set is repeat-free, so a node counted twice lies in two sets
    if np.bincount(np.concatenate(list(sets.values()))).max(initial=0) > 1:
        raise ValueError(f"{path}: split index sets are not pairwise disjoint")
    unlabeled = np.ones(n_nodes, dtype=bool)
    unlabeled[sets["labeled"]] = False
    return Splits(
        labeled=sets["labeled"],
        validation=sets["validation"],
        test=sets["test"],
        unlabeled=np.flatnonzero(unlabeled),
    )


def _split_ids(path: Path, name: str, ids, n_nodes: int) -> np.ndarray:
    """The sorted int64 ids of one split's list, checked whole-array: every
    value an ``int`` (not a float, not a bool) in [0, n_nodes), none
    repeated. Only a refused list is walked element by element, to name its
    first bad value."""
    if not isinstance(ids, list):
        raise ValueError(f"{path}: {name!r} must be a list of node ids")
    arr = None
    # type() rather than isinstance: bool is a subclass of int
    if set(map(type, ids)) <= {int}:
        try:
            arr = np.array(ids, dtype=np.int64)
        except OverflowError:  # beyond int64, so out of range
            pass
    if arr is None or (arr.size and (arr.min() < 0 or arr.max() >= n_nodes)):
        for v in ids:
            if type(v) is not int or not 0 <= v < n_nodes:
                raise ValueError(
                    f"{path}: {name!r} holds {v!r}, not an integer node id in [0, {n_nodes})"
                )
    arr.sort()
    repeated = arr[1:][arr[1:] == arr[:-1]]
    if repeated.size:
        raise ValueError(f"{path}: {name!r} repeats node id {int(repeated[0])}")
    return arr


def _splits_from_labels(
    class_ids: np.ndarray,
    n_per_class: int,
    n_val: int,
    n_test: int,
    seed,
) -> Splits:
    """Stratified labeled set (n_per_class nodes of each class id in
    ``class_ids``) plus validation and test sets drawn without replacement
    from the remainder.

    Deterministic given `seed`; all returned index arrays are sorted.
    """
    rng = np.random.default_rng(seed)
    n_nodes = class_ids.size
    picks = []
    for c in range(int(class_ids.max()) + 1):
        members = np.flatnonzero(class_ids == c)
        if members.size < n_per_class:
            raise ValueError(
                f"class {c} has only {members.size} nodes, need {n_per_class} labeled"
            )
        picks.append(rng.choice(members, size=n_per_class, replace=False))
    labeled = np.sort(np.concatenate(picks))
    rest = np.setdiff1d(np.arange(n_nodes), labeled)
    if rest.size < n_val + n_test:
        raise ValueError(
            f"{rest.size} unlabeled nodes cannot supply {n_val} validation + {n_test} test"
        )
    perm = rng.permutation(rest)
    validation = np.sort(perm[:n_val])
    test = np.sort(perm[n_val : n_val + n_test])
    return Splits(labeled=labeled, validation=validation, test=test, unlabeled=rest)


def _require_files(path: Path, names) -> None:
    for name in names:
        if not (path / name).is_file():
            raise FileNotFoundError(f"dataset file missing: {path / name}")


def load_nodes(path, dtype=DEFAULT_DTYPE, normalize_features: bool = False) -> NodeTables:
    """Load a dataset directory's node tables: features, labels and splits.
    ``edges.csv`` is neither opened nor required.

    When ``splits.json`` is absent, default Planetoid-style splits are
    generated (documented module constants). With ``normalize_features`` the
    feature rows are L1-normalized; default is raw features.
    """
    path = Path(path)
    _require_files(path, ("features.csv", "labels.csv"))
    features = read_features(path / "features.csv", dtype)
    n_nodes = features.shape[0]
    class_ids = _read_labels(path / "labels.csv", n_nodes)
    present = np.unique(class_ids)
    n_classes = present.size
    if present[-1] != n_classes - 1:
        missing = int(np.argmin(present == np.arange(n_classes)))
        raise ValueError(
            f"{path / 'labels.csv'}: class ids must be 0..C-1 with every class "
            f"present; class {missing} has no node"
        )
    if normalize_features:
        norms = np.abs(features).sum(axis=1, keepdims=True)
        features = features / np.where(norms > 0, norms, 1)
    labels = _onehot(class_ids, n_classes, dtype)

    splits_file = path / "splits.json"
    if splits_file.is_file():
        splits = _read_splits(splits_file, n_nodes)
    else:
        splits = _splits_from_labels(
            class_ids,
            DEFAULT_N_PER_CLASS,
            DEFAULT_N_VAL,
            DEFAULT_N_TEST,
            DEFAULT_SPLIT_SEED,
        )
    return NodeTables(features=features, labels=labels, splits=splits)


def load_dataset(path, dtype=DEFAULT_DTYPE, normalize_features: bool = False) -> Graph:
    """Load a dataset directory into a Graph: the node tables as
    ``load_nodes`` reads them, then the edge list, symmetrized and
    deduplicated with self-loops stripped (``Graph`` keeps it canonical).
    Of two bad files, the one read first is named: features, labels,
    splits, then edges.
    """
    path = Path(path)
    _require_files(path, ("features.csv", "edges.csv", "labels.csv"))
    nodes = load_nodes(path, dtype, normalize_features)
    edges = _read_edges(path / "edges.csv", nodes.n_nodes)
    return Graph(nodes.features, nodes.labels, nodes.splits, edges=edges)


def _write_csv(path: Path, table, fmt, header: str = "") -> str:
    """Write a table as CSV: the bytes of ``np.savetxt(path, table,
    fmt=fmt, delimiter=",", header=header, comments="")``, written faster.
    Returns the sha256 hex digest of the bytes written.

    ``table`` is a 2-D array or a sequence of equal-length 1-D columns,
    which may differ in dtype; ``fmt`` is one %-format for every column or
    a sequence of one per column. Rows go out in blocks of about
    ``_WRITE_BLOCK_VALUES`` values. When every column has a kernel in
    ``csvfmt`` (``%.9g`` on floats, ``%d`` on integers), the kernels format
    the block into NUL-padded records, the NULs are dropped, and each value
    a kernel cannot prove is formatted by Python's ``%`` in its place; an
    integer group with fewer possible values than values gathers its
    records from a token table (``csvfmt.group_kernel``). Otherwise one
    ``%`` over the block's flat tuple formats it.
    """
    if isinstance(table, np.ndarray):
        groups = [table]  # one kernel call per block when one format serves all
    else:
        groups = [np.asarray(column)[:, None] for column in table]
    n_rows, n_cols = groups[0].shape[0], sum(g.shape[1] for g in groups)
    fmts = [fmt] * n_cols if isinstance(fmt, str) else list(fmt)
    if len(groups) == 1 and len(set(fmts)) > 1:
        groups = [table[:, j : j + 1] for j in range(n_cols)]
    cells = [(g, j) for g in groups for j in range(g.shape[1])]
    seps = [","] * (n_cols - 1) + ["\n"]
    widths = [g.shape[1] for g in groups]
    ends_line = np.split(np.arange(n_cols) == n_cols - 1, np.cumsum(widths)[:-1])
    row = ",".join(fmts) + "\n"
    block_rows = max(1, _WRITE_BLOCK_VALUES // n_cols)
    kernels = [
        csvfmt.group_kernel(f, g, e, block_rows) for f, g, e in zip(fmts, groups, ends_line)
    ]
    digest = hashlib.sha256()
    with open(path, "wb") as f:

        def write(data: bytes) -> None:
            digest.update(data)
            f.write(data)

        if header:
            write((header + "\n").encode())
        for start in range(0, n_rows, block_rows):
            blocks = [g[start : start + block_rows] for g in groups]
            if not all(kernels):
                rows = zip(*(b.tolist() for b in blocks))
                values = tuple(chain.from_iterable(chain.from_iterable(rows)))
                write(((row * blocks[0].shape[0]) % values).encode())
                continue
            parts = [kern(b, e) for kern, b, e in zip(kernels, blocks, ends_line)]
            records, fallback = (np.concatenate(p, axis=1) for p in zip(*parts))
            records = records.reshape(-1, 2)  # one row per value, in row-major order
            text, at = [], 0
            for i in np.flatnonzero(fallback):  # its record is empty
                r, c = divmod(int(i), n_cols)
                g, j = cells[c]
                token = fmts[c] % g[start + r, j].item() + seps[c]
                text += [_drop_nul(records[at:i]), token.encode()]
                at = i + 1
            text.append(_drop_nul(records[at:]))
            write(b"".join(text))
    return digest.hexdigest()


def _drop_nul(records: np.ndarray) -> bytes:
    """The bytes of ``records`` without their NUL padding."""
    return records.tobytes().translate(None, b"\0")


def _save_table(path: Path, table: np.ndarray, fmt: str) -> None:
    """Write ``table`` as CSV and its binary mirror, ``table`` being exactly
    what reading that CSV gives back."""
    _write_mirror(path, _write_csv(path, table, fmt), table)


def round_trip_format(dtype) -> str:
    """The CSV format of floats whose parse gives back the same bits at
    ``dtype``: 17 significant digits for float64; 9 for float32, whose
    parse to float64 and cast back gives the same bits, since a 9-digit
    decimal never rounds onto a float32 midpoint."""
    return "%.9g" if dtype == np.float32 else "%.17g"


def save_dataset(g: Graph, path) -> None:
    """Write a Graph back out in the dataset directory format, with the
    binary mirror of each CSV.

    Features are written in ``round_trip_format``, so load -> save -> load
    is bit-exact at the graph's dtype. Features of a dtype other than
    float32 and float64 get no mirror.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    fmt = round_trip_format(g.features.dtype)
    if g.features.dtype in (np.float32, np.float64):
        _save_table(path / "features.csv", g.features, fmt)
    else:
        _write_csv(path / "features.csv", g.features, fmt)
    _save_table(path / "edges.csv", g.edges, "%d")
    _save_table(path / "labels.csv", np.argmax(g.labels, axis=1).astype(np.int64)[:, None], "%d")
    splits = {name: getattr(g.splits, name).tolist() for name in _SPLIT_KEYS}
    # one C-encoded string: the bytes json.dump streams through Python
    (path / "splits.json").write_text(json.dumps(splits, sort_keys=True) + "\n")


def normalize_adjacency(a: SparseMatrix) -> SparseMatrix:
    """``D^{-1/2} (A + I) D^{-1/2}`` of a 0/1 adjacency matrix: the checked
    front door to the one Â builder, which ``normalized_adjacency`` runs on
    a graph's edge list.

    ``a`` must be square, with every value 0 or 1, a zero diagonal and
    symmetric; each is refused with a ValueError, a bad value named. Stored
    duplicates are summed (on a copy: the caller's matrix is never changed)
    and stored zeros are not edges. The upper pairs of the matrix then go
    to the builder, so the result has the bits of ``normalized_adjacency``
    of the same graph, at ``a``'s dtype, which must be float32 or float64.
    """
    a = sparse.csr_array(a)  # shares a CSR input's arrays
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    if not (a.has_canonical_format and a.data.all()):
        a = a.copy()
        a.sum_duplicates()
        a.eliminate_zeros()
    bad = a.data != 1
    if bad.any():
        raise ValueError(f"adjacency values must be 0 or 1, found {a.data[bad][0]}")
    if np.any(a.diagonal() != 0):
        raise ValueError("adjacency must have a zero diagonal before normalization")
    # a canonical 0/1 pattern is symmetric exactly when its transpose has
    # the same index arrays
    at = sparse.csr_array(a.T)
    if not (np.array_equal(at.indptr, a.indptr) and np.array_equal(at.indices, a.indices)):
        raise ValueError("adjacency must be symmetric")
    del at
    rows = np.repeat(np.arange(a.shape[0], dtype=a.indices.dtype), np.diff(a.indptr))
    upper = a.indices > rows
    # row by row with sorted columns: the canonical (i < j) pairs
    pairs = np.column_stack([rows[upper], a.indices[upper]])
    del rows, upper
    return _a_hat_from_pairs(pairs, a.shape[0], a.dtype)


def normalized_adjacency(g: Graph) -> SparseMatrix:
    """``D^{-1/2} (A + I) D^{-1/2}`` of ``g`` at its features' dtype, built
    from its canonical edge list without the raw adjacency
    (``_a_hat_from_pairs``)."""
    return _a_hat_from_pairs(g.edges, g.n_nodes, g.features.dtype)


def _a_hat_from_pairs(pairs: np.ndarray, n: int, dtype) -> SparseMatrix:
    """``Â = D^{-1/2} (A + I) D^{-1/2}`` of the 0/1 graph on ``n`` nodes
    whose canonical pairs (``_undirected_pairs``) are ``pairs``, at
    ``dtype``, float32 or float64, in one pass: the package's one Â builder.

    Row r of ``A + I`` holds its lower entries (the pairs ``(i, r)``, taken
    from one counting transpose of the upper part), its self-loop, then its
    upper entries (the pairs ``(r, j)``, in the list's order), so its
    columns are sorted. The degrees are exact integer counts, and entry
    ``(i, j)`` is ``d_i^-1/2 · d_j^-1/2``, rounded once, so Â is symmetric
    bit for bit. Its index arrays are int32 (``index_dtype``), which is
    checked before anything is built, and so is every index temporary
    built on the way.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"normalized adjacency dtype must be float32 or float64, got {dtype}")
    m = pairs.shape[0]
    idx = index_dtype(n, n + 2 * m)
    i, j = pairs[:, 0], pairs[:, 1].astype(idx)
    # the list is sorted by i
    upper_ptr = np.searchsorted(i, np.arange(n + 1, dtype=i.dtype)).astype(idx)
    upper = sparse.csr_array((np.ones(m, dtype=np.int8), j, upper_ptr), shape=(n, n))
    lower = sparse.csr_array(upper.T)  # each row's columns come out sorted
    n_lower, n_upper = np.diff(lower.indptr), np.diff(upper_ptr)
    degrees = n_lower + 1 + n_upper
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(idx)
    indices = np.empty(indptr[-1], dtype=idx)
    rows = np.arange(n, dtype=idx)
    # lower entry k of row r lands after r self-loops and the upper entries
    # of rows < r; upper entry k of row r after r + 1 self-loops and the
    # lower entries of rows <= r
    at = np.repeat(rows + upper_ptr[:-1], n_lower)
    at += np.arange(m, dtype=idx)
    indices[at] = lower.indices
    indices[indptr[:-1] + n_lower] = rows
    at = np.repeat(rows + 1 + lower.indptr[1:], n_upper)
    at += np.arange(m, dtype=idx)
    indices[at] = j
    del upper, lower, at, j  # freed before Â's values
    inv_sqrt = (1.0 / np.sqrt(degrees.astype(dtype))).astype(dtype)
    data = np.repeat(inv_sqrt, degrees)
    data *= inv_sqrt[indices]
    return sparse.csr_array((data, indices, indptr), shape=(n, n))


def _bernoulli_indices(rng: np.random.Generator, m: int, p: float) -> np.ndarray:
    """Indices of successes among m iid Bernoulli(p) trials.

    Uses geometric gap sampling, so the cost is O(successes) rather than
    O(m); exact for p=0 and p=1.
    """
    if m <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(m, dtype=np.int64)
    chunks: list[np.ndarray] = []
    pos = -1
    batch = max(64, int(m * p * 1.2) + 16)
    while pos < m:
        gaps = rng.geometric(p, size=batch)
        steps = pos + np.cumsum(gaps)
        chunks.append(steps)
        pos = int(steps[-1])
    idx = np.concatenate(chunks)
    return idx[idx < m]


def _triangle_unrank(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices of the strict lower triangle to (i, j), j < i.

    Pair (i, j) has linear index t = i*(i-1)/2 + j.
    """
    i = ((1.0 + np.sqrt(1.0 + 8.0 * t.astype(np.float64))) / 2.0).astype(np.int64)
    # float sqrt can land one row off near boundaries; correct exactly
    over = i * (i - 1) // 2 > t
    i[over] -= 1
    under = (i + 1) * i // 2 <= t
    i[under] += 1
    j = t - i * (i - 1) // 2
    return i, j


def _sbm_edge_keys(rng, n_nodes: int, n_classes: int, p_in: float, p_out: float) -> np.ndarray:
    """The sorted keys ``u * n_nodes + v`` (``u < v``) of ``synth_sbm``'s
    edges, drawn from ``rng`` block pair by block pair: within block a,
    then a with each later block. The keys are built in place on the
    arrays the unranking returns; the drawn pairs are distinct, so the
    sorted keys need no deduplication."""
    block = n_nodes // n_classes
    chunks = [np.empty(0, dtype=np.int64)]  # the only one of an edge-free graph
    for a in range(n_classes):
        base = a * block
        t = _bernoulli_indices(rng, block * (block - 1) // 2, p_in)
        if t.size:
            v, u = _triangle_unrank(t)  # u < v within the block
            u += base
            u *= n_nodes
            u += v
            u += base
            chunks.append(u)
        for b in range(a + 1, n_classes):
            t = _bernoulli_indices(rng, block * block, p_out)
            if t.size:
                u, v = np.divmod(t, block)
                u += base
                u *= n_nodes
                u += v
                u += b * block
                chunks.append(u)
    keys = np.concatenate(chunks)
    del chunks  # freed before the in-place sort
    keys.sort()
    return keys


def synth_sbm(
    n_nodes: int,
    n_classes: int,
    feat_dim: int,
    p_in: float,
    p_out: float,
    feat_noise: float,
    seed,
    dtype=DEFAULT_DTYPE,
) -> Graph:
    """Seeded stochastic block model with class-conditional Gaussian features.

    Nodes are split into ``n_classes`` equal contiguous blocks; each within-
    block pair is an edge w.p. ``p_in`` and each cross-block pair w.p.
    ``p_out`` (exact iid Bernoulli sampling). Features are drawn as
    ``mu[class] + feat_noise * N(0, I)`` where the class means are mutually
    orthogonal with norm ``MEAN_SEPARATION``, so ``feat_noise=0`` gives
    identical rows per class and noise around 1.5 leaves the classes
    moderately overlapping. Splits use 10% of each block as labeled nodes
    (at least one), 20% of the graph for validation, and the rest for
    testing.

    The edges come out canonical, as ``Graph`` stores them (sorted ``i <
    j`` pairs without repeats, from the sorted keys of
    ``_sbm_edge_keys``), so ``Graph`` takes them after its one-pass check.

    Fully reproducible given ``seed``.
    """
    if n_classes < 1:
        raise ValueError(f"n_classes {n_classes} must be >= 1")
    if n_nodes < n_classes:
        raise ValueError(f"n_nodes {n_nodes} must be >= n_classes {n_classes}")
    if not math.isfinite(feat_noise):
        raise ValueError(f"feat_noise {feat_noise} must be finite")
    if n_nodes % n_classes != 0:
        raise ValueError(f"n_nodes {n_nodes} not divisible by n_classes {n_classes}")
    if not p_in > p_out:
        raise ValueError(f"need homophily p_in > p_out, got p_in={p_in} p_out={p_out}")
    if not (0 <= p_out and p_in <= 1):
        raise ValueError(f"probabilities outside [0, 1]: p_in={p_in} p_out={p_out}")
    if feat_dim < n_classes:
        raise ValueError(f"feat_dim {feat_dim} must be >= n_classes {n_classes}")
    rng = np.random.default_rng(seed)
    block = n_nodes // n_classes
    class_ids = np.repeat(np.arange(n_classes), block)

    keys = _sbm_edge_keys(rng, n_nodes, n_classes, p_in, p_out)
    edges = np.empty((keys.size, 2), dtype=index_dtype(n_nodes, 2 * keys.size))
    np.divmod(keys, n_nodes, out=(edges[:, 0], edges[:, 1]))
    del keys  # freed before the features are drawn

    basis, _ = np.linalg.qr(rng.standard_normal((feat_dim, n_classes)))
    means = MEAN_SEPARATION * basis.T  # one orthogonal mean per class
    # drawn in row blocks, which take the same normals from rng as one
    # full-size draw, without the full-size float64 temporaries
    features = np.empty((n_nodes, feat_dim), dtype=dtype)
    rows = max(1, _SYNTH_BLOCK_VALUES // feat_dim)
    for start in range(0, n_nodes, rows):
        chunk = means[class_ids[start : start + rows]]
        if feat_noise:
            noise = rng.standard_normal(chunk.shape)
            noise *= feat_noise
            chunk += noise
        features[start : start + rows] = chunk
    labels = _onehot(class_ids, n_classes, dtype)

    n_per_class = max(1, block // 10)
    n_val = n_nodes // 5
    n_test = n_nodes - n_per_class * n_classes - n_val
    splits = _splits_from_labels(class_ids, n_per_class, n_val, n_test, rng)
    return Graph(features=features, edges=edges, labels=labels, splits=splits)
