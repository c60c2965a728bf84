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

Edges are undirected: input pairs are symmetrized and deduplicated, and
self-loops are stripped on load (normalization re-adds them).

Blank and whitespace-only lines are skipped; ``#`` is data, not a comment.
Features must be finite at the working dtype. A malformed file raises
``ValueError`` naming the file and line.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import sparse

from .numkit import DEFAULT_DTYPE, SparseMatrix

# Defaults used when a dataset directory carries no splits.json.
DEFAULT_N_PER_CLASS = 20
DEFAULT_N_VAL = 500
DEFAULT_N_TEST = 1000
DEFAULT_SPLIT_SEED = 0

# Norm of the synthetic class means (see synth_sbm).
MEAN_SEPARATION = 3.0

# Values formatted per write in save_dataset: large enough to amortize the
# per-call cost, small enough that the temporary tuple stays a few MB.
_WRITE_BLOCK_VALUES = 1 << 14


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


@dataclass
class Graph:
    """An undirected attributed graph with one-hot node labels and splits."""

    features: np.ndarray  # N x d
    adjacency: SparseMatrix  # N x N, symmetric, zero diagonal
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

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (stored pairs / 2)."""
        return self.adjacency.nnz // 2


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


def _read_features(path: Path, dtype) -> np.ndarray:
    table = _parse_csv(path, np.float64)
    if table is not None:
        with np.errstate(over="ignore"):
            features = table.astype(dtype, copy=False)
        if np.isfinite(features).all():
            return features
    return _scan_features(path, dtype)


def _read_edges(path: Path, n_nodes: int) -> np.ndarray:
    table = _parse_csv(path, np.int64)
    if (
        table is not None
        and table.shape[1] == 2
        and np.all((table >= 0) & (table < n_nodes))
    ):
        return table
    return _scan_edges(path, n_nodes)


def _read_labels(path: Path, n_nodes: int) -> np.ndarray:
    table = _parse_csv(path, np.int64)
    if table is not None and table.shape == (n_nodes, 1) and np.all(table >= 0):
        return table.ravel()
    return _scan_labels(path, n_nodes)


# Line scanners: the reference parsers and the only error reporters. The
# readers above fall back to them whenever the C parse fails or a whole-array
# check does, so a file is accepted or rejected (with the same message) by
# the same rules on either path.


def _scan_features(path: Path, dtype) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
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
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(
                    f"{path}: line {line_no} has {len(fields)} fields, expected 2"
                )
            try:
                src, dst = int(fields[0]), int(fields[1])
            except ValueError:
                raise ValueError(f"{path}: non-integer edge at line {line_no}") from None
            if not (0 <= src < n_nodes and 0 <= dst < n_nodes):
                raise ValueError(
                    f"{path}: line {line_no}: node id out of range [0, {n_nodes})"
                )
            pairs.append((src, dst))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def _scan_labels(path: Path, n_nodes: int) -> np.ndarray:
    ids: list[int] = []
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                ids.append(int(line))
            except ValueError:
                raise ValueError(f"{path}: non-integer label at line {line_no}") from None
            if not -(2**63) <= ids[-1] < 2**63:
                raise ValueError(f"{path}: label at line {line_no} does not fit in int64")
    if len(ids) != n_nodes:
        raise ValueError(f"{path}: {len(ids)} labels for {n_nodes} nodes")
    arr = np.asarray(ids, dtype=np.int64)
    if arr.min() < 0:
        raise ValueError(f"{path}: label {arr.min()} out of range (must be >= 0)")
    return arr


def _onehot(class_ids: np.ndarray, n_classes: int, dtype) -> np.ndarray:
    out = np.zeros((class_ids.size, n_classes), dtype=dtype)
    out[np.arange(class_ids.size), class_ids] = 1
    return out


def _undirected_pairs(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Canonical (i < j) deduplicated pairs with self-loops stripped, sorted
    by (i, j).

    Sorts the scalar key ``i * n_nodes + j`` and drops adjacent repeats,
    which is far faster than ``np.unique`` on the pair rows.
    """
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    key = np.sort(lo[keep] * n_nodes + hi[keep])
    key = key[np.diff(key, prepend=-1) != 0]  # keys are >= 0
    return np.column_stack([key // n_nodes, key % n_nodes])


def _adjacency_from_pairs(pairs: np.ndarray, n_nodes: int, dtype) -> SparseMatrix:
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    data = np.ones(src.size, dtype=dtype)
    adj = sparse.csr_array(
        sparse.coo_array((data, (src, dst)), shape=(n_nodes, n_nodes))
    )
    adj.sort_indices()
    return adj


_SPLIT_KEYS = ("labeled", "validation", "test")


def _read_splits(path: Path, n_nodes: int) -> Splits:
    """Read ``splits.json``: an object with exactly the keys labeled,
    validation and test, each a list of integer node ids in [0, n_nodes)
    (no floats, no booleans), the three sets pairwise disjoint. Any other
    content raises ``ValueError`` naming the file."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or sorted(raw) != sorted(_SPLIT_KEYS):
        got = sorted(raw) if isinstance(raw, dict) else f"a JSON {type(raw).__name__}"
        raise ValueError(
            f"{path}: must be an object with exactly the keys labeled, "
            f"validation and test; got {got}"
        )
    sets = {}
    for name in _SPLIT_KEYS:
        ids = raw[name]
        if not isinstance(ids, list):
            raise ValueError(f"{path}: {name!r} must be a list of node ids")
        for v in ids:
            # type() rather than isinstance: bool is a subclass of int
            if type(v) is not int or not 0 <= v < n_nodes:
                raise ValueError(
                    f"{path}: {name!r} holds {v!r}, not an integer node id in [0, {n_nodes})"
                )
        sets[name] = np.sort(np.asarray(ids, dtype=np.int64))
    lab, val, tst = (set(raw[name]) for name in _SPLIT_KEYS)
    if lab & val or lab & tst or val & tst:
        raise ValueError(f"{path}: split index sets are not pairwise disjoint")
    return Splits(
        labeled=sets["labeled"],
        validation=sets["validation"],
        test=sets["test"],
        unlabeled=np.setdiff1d(np.arange(n_nodes), sets["labeled"]),
    )


def _splits_from_labels(
    class_ids: np.ndarray,
    n_per_class: int,
    n_val: int,
    n_test: int,
    seed,
) -> Splits:
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


def make_splits(g: Graph, n_per_class: int, n_val: int, n_test: int, seed) -> Splits:
    """Stratified labeled set (n_per_class nodes per class) plus validation
    and test sets drawn without replacement from the remainder.

    Deterministic given `seed`; all returned index arrays are sorted.
    """
    class_ids = np.argmax(g.labels, axis=1)
    return _splits_from_labels(class_ids, n_per_class, n_val, n_test, seed)


def load_dataset(path, dtype=DEFAULT_DTYPE, normalize_features: bool = False) -> Graph:
    """Load a dataset directory into a Graph.

    The adjacency is symmetrized and deduplicated with self-loops stripped.
    When ``splits.json`` is absent, default Planetoid-style splits are
    generated (documented module constants). With ``normalize_features`` the
    feature rows are L1-normalized; default is raw features.
    """
    path = Path(path)
    for name in ("features.csv", "edges.csv", "labels.csv"):
        if not (path / name).is_file():
            raise FileNotFoundError(f"dataset file missing: {path / name}")
    features = _read_features(path / "features.csv", dtype)
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
    pairs = _undirected_pairs(_read_edges(path / "edges.csv", n_nodes), n_nodes)
    adjacency = _adjacency_from_pairs(pairs, n_nodes, dtype)
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
    return Graph(features=features, adjacency=adjacency, labels=labels, splits=splits)


def _write_csv(path: Path, table: np.ndarray, fmt, header: str = "") -> None:
    """Write a 2-D array as CSV: the bytes of ``np.savetxt(path, table,
    fmt=fmt, delimiter=",", header=header, comments="")``, written faster.

    ``fmt`` is one %-format for every column or a sequence of one per
    column. Each block of rows is formatted by one ``%`` over a flat tuple,
    which keeps the per-row Python work off the path.
    """
    fmts = [fmt] * table.shape[1] if isinstance(fmt, str) else list(fmt)
    row = ",".join(fmts) + "\n"
    block_rows = max(1, _WRITE_BLOCK_VALUES // table.shape[1])
    with open(path, "w") as f:
        if header:
            f.write(header + "\n")
        for start in range(0, table.shape[0], block_rows):
            block = table[start : start + block_rows]
            f.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def save_dataset(g: Graph, path) -> None:
    """Write a Graph back out in the dataset directory format.

    Feature formatting uses enough significant digits for the round trip
    load -> save -> load to be bit-exact at the graph's dtype.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    digits = 9 if g.features.dtype == np.float32 else 17
    _write_csv(path / "features.csv", g.features, f"%.{digits}g")
    coo = sparse.coo_array(sparse.triu(g.adjacency, k=1))
    pairs = np.column_stack([coo.row, coo.col])
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    _write_csv(path / "edges.csv", pairs, "%d")
    _write_csv(path / "labels.csv", np.argmax(g.labels, axis=1)[:, None], "%d")
    with open(path / "splits.json", "w") as f:
        json.dump(
            {
                "labeled": g.splits.labeled.tolist(),
                "validation": g.splits.validation.tolist(),
                "test": g.splits.test.tolist(),
            },
            f,
            sort_keys=True,
        )
        f.write("\n")


def normalize_adjacency(a: SparseMatrix) -> SparseMatrix:
    """Symmetric degree normalization with self-loops:

        A_hat = D^{-1/2} (A + I) D^{-1/2},  D = degree matrix of A + I.

    Requires a symmetric input with zero diagonal. An isolated node ends up
    with the single entry 1.0 (its self-loop divided by degree 1).
    """
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    if np.any(a.diagonal() != 0):
        raise ValueError("adjacency must have a zero diagonal before normalization")
    diff = (a - a.T).tocoo()
    if diff.nnz and np.any(diff.data != 0):
        raise ValueError("adjacency must be symmetric")
    a_tilde = sparse.csr_array(a + sparse.eye_array(n, dtype=a.dtype, format="csr"))
    degrees = np.asarray(a_tilde.sum(axis=1)).ravel()
    inv_sqrt = (1.0 / np.sqrt(degrees)).astype(a.dtype)
    normalized = a_tilde.multiply(inv_sqrt[:, None]).tocsr().multiply(inv_sqrt[None, :])
    out = sparse.csr_array(normalized)
    out.sort_indices()
    return out


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

    Fully reproducible given ``seed``.
    """
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

    edge_chunks: list[np.ndarray] = []
    for a in range(n_classes):
        base = a * block
        t = _bernoulli_indices(rng, block * (block - 1) // 2, p_in)
        if t.size:
            i, j = _triangle_unrank(t)
            edge_chunks.append(np.column_stack([base + j, base + i]))
        for b in range(a + 1, n_classes):
            t = _bernoulli_indices(rng, block * block, p_out)
            if t.size:
                edge_chunks.append(
                    np.column_stack([base + t // block, b * block + t % block])
                )
    if edge_chunks:
        pairs = _undirected_pairs(np.concatenate(edge_chunks), n_nodes)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    adjacency = _adjacency_from_pairs(pairs, n_nodes, dtype)

    basis, _ = np.linalg.qr(rng.standard_normal((feat_dim, n_classes)))
    means = MEAN_SEPARATION * basis.T  # one orthogonal mean per class
    features = means[class_ids]
    if feat_noise:
        features = features + feat_noise * rng.standard_normal((n_nodes, feat_dim))
    features = features.astype(dtype)
    labels = _onehot(class_ids, n_classes, dtype)

    n_per_class = max(1, block // 10)
    n_val = n_nodes // 5
    n_test = n_nodes - n_per_class * n_classes - n_val
    splits = _splits_from_labels(class_ids, n_per_class, n_val, n_test, rng)
    return Graph(features=features, adjacency=adjacency, labels=labels, splits=splits)
