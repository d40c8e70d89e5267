"""NSL-KDD file parsing, symbolic encoding, binary relabeling and column projection.

Input files are comma-separated text with no header: 41 feature columns
followed by the attack label, and in the commonly distributed variants a
trailing difficulty score (42 or 43 columns total), which is checked and
dropped. Loading is columnar and fills one matrix per file: ``parse_file``
reads a file whose first line has 42 or 43 columns once, a block of lines
at a time, with numpy's C reader and one dtype of the file's columns in
order (the whole-number columns and the difficulty as int64, the rates as
float64), so the reader refuses a line of another width itself. It writes
the numbers straight into their columns of a column-major (n, 41) float64
matrix, and keeps each symbolic column and the labels as ``Categories``:
the distinct values and one code per row. It checks every rule of the
format on the result. Every other file, and any file that the read
refuses, goes to a block checker, which reads it with ``float()`` into the
same matrix and names the line at fault. ``build_codebook`` numbers the
training set's symbolic values; ``encode`` maps each column's distinct
values through the codebook and writes the rows' codes into the matrix's
symbolic columns, in place, and ``relabel`` marks the distinct labels and
takes the targets likewise, so the matrix the parse wrote is the one the
trees read. An encoded set's rank table (``ColumnRanks``), which the trees
read column by column, is made by the first fit on it and shared with its
relabels. ``project`` copies a set's mask columns; the pipeline reads the
columns in place instead.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import threading
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Canonical feature names, in file column order.
FEATURE_NAMES: tuple[str, ...] = (
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins",
    "logged_in", "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files",
    "num_outbound_cmds", "is_host_login", "is_guest_login", "count",
    "srv_count", "serror_rate", "srv_serror_rate", "rerror_rate",
    "srv_rerror_rate", "same_srv_rate", "diff_srv_rate", "srv_diff_host_rate",
    "dst_host_count", "dst_host_srv_count", "dst_host_same_srv_rate",
    "dst_host_diff_srv_rate", "dst_host_same_src_port_rate",
    "dst_host_srv_diff_host_rate", "dst_host_serror_rate",
    "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
)

N_FEATURES = len(FEATURE_NAMES)

# Columns carrying symbolic values that need integer encoding.
SYMBOLIC_COLUMNS: tuple[str, ...] = ("protocol_type", "service", "flag")

# The other 38 feature columns, parsed as numbers, in file order.
NUMERIC_COLUMNS = tuple(name for name in FEATURE_NAMES if name not in SYMBOLIC_COLUMNS)
_NUMERIC_INDEX = [FEATURE_NAMES.index(name) for name in NUMERIC_COLUMNS]
_SYMBOLIC_INDEX = [FEATURE_NAMES.index(name) for name in SYMBOLIC_COLUMNS]
# Of those, the 15 rates are fractions; the other 23 hold whole numbers.
_RATE_INDEX = [i for i in _NUMERIC_INDEX if FEATURE_NAMES[i].endswith("_rate")]
# A 43-column file's columns in file order, in runs of one type for
# _load_columns: object for the symbolic columns and the label, float64 for
# rates, int64 for whole numbers and the difficulty; (type, first, stop).
_KINDS = [object if i in _SYMBOLIC_INDEX or i == N_FEATURES else
          np.float64 if i in _RATE_INDEX else np.int64 for i in range(N_FEATURES + 2)]
_STARTS = [i for i in range(N_FEATURES + 2) if i == 0 or _KINDS[i] is not _KINDS[i - 1]]
_RUNS = [(_KINDS[a], a, b) for a, b in zip(_STARTS, [*_STARTS[1:], N_FEATURES + 2])]

# Lines read at a time by parse_file's C reader and by the checker it falls
# back to; reading a whole file at once holds all its field strings together
# (~150 MB more peak for KDDTrain+ in the checker). Blocks and one pass of the
# reader took a parse of a KDDTrain+-size file from 129 to 100 MiB peak.
_BLOCK_LINES = 2048

# np.loadtxt takes these around a number as whitespace, where float() rejects
# the field; a file holding one is read by the checker.
_LOADTXT_MISREADS = "\x1c\x1d\x1e\x1f"

# Alternate names used in the bundled reference reports for a subset of the
# features; every feature not listed here keeps its canonical name.
REPORT_ALIASES: dict[str, str] = {
    "protocol_type": "proto_type",
    "service": "svc_num",
    "flag": "flag_num",
    "serror_rate": "error_rate",
    "srv_serror_rate": "srv_error_rate",
    "dst_host_serror_rate": "dst_host_error_rate",
    "dst_host_srv_serror_rate": "dst_host_srv_error_rate",
}

# The six denial-of-service attacks present in NSL-KDD.
DOS_ATTACKS: frozenset[str] = frozenset(
    {"neptune", "smurf", "back", "teardrop", "pod", "land"}
)


class ParseError(ValueError):
    """Malformed NSL-KDD input (bad column count, empty field, bad number)."""


class DegenerateMaskError(ValueError):
    """A feature mask that selects no columns of the dataset it is applied to."""


def report_alias(name: str) -> str:
    """Alias used for this feature in the reference reports (or the name itself)."""
    return REPORT_ALIASES.get(name, name)


@dataclass(frozen=True)
class FeatureMask:
    """A chromosome: one boolean gene per feature column."""

    genes: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.genes) != N_FEATURES:
            raise ValueError(f"mask must have {N_FEATURES} genes, got {len(self.genes)}")
        if not all(isinstance(g, bool) for g in self.genes):
            object.__setattr__(self, "genes", tuple(bool(g) for g in self.genes))

    @classmethod
    def from_array(cls, genes) -> "FeatureMask":
        return cls(tuple(bool(g) for g in genes))

    @classmethod
    def from_indices(cls, indices) -> "FeatureMask":
        wanted = set(indices)
        bad = [i for i in wanted if i not in range(N_FEATURES)]
        if bad:
            raise ValueError(f"feature index(es) {', '.join(map(str, sorted(bad)))} "
                             f"outside 0..{N_FEATURES - 1}")
        return cls(tuple(i in wanted for i in range(N_FEATURES)))

    @classmethod
    def from_names(cls, names) -> "FeatureMask":
        wanted = set(names)
        unknown = sorted(wanted.difference(FEATURE_NAMES))
        if unknown:
            raise ValueError(f"unknown feature name(s) {', '.join(unknown)}; "
                             f"valid names: {', '.join(FEATURE_NAMES)}")
        return cls(tuple(name in wanted for name in FEATURE_NAMES))

    @classmethod
    def from_bits(cls, bits: str) -> "FeatureMask":
        if not set(bits) <= {"0", "1"}:
            raise ValueError(f"mask bits must be '0' or '1', got {bits!r}")
        return cls(tuple(c == "1" for c in bits))

    @classmethod
    def all_on(cls) -> "FeatureMask":
        return cls((True,) * N_FEATURES)

    @property
    def selected_count(self) -> int:
        return sum(self.genes)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.genes) if g)

    def selected_names(self) -> tuple[str, ...]:
        return tuple(FEATURE_NAMES[i] for i in self.indices())

    def constrain(self, allowed: "FeatureMask") -> "FeatureMask":
        """Force every gene outside ``allowed`` off."""
        return FeatureMask(tuple(g and a for g, a in zip(self.genes, allowed.genes)))

    def as_array(self) -> np.ndarray:
        return np.array(self.genes, dtype=bool)

    def bits(self) -> str:
        return "".join("1" if g else "0" for g in self.genes)

    @functools.cached_property
    def bitmask(self) -> int:
        """The genes as an int: gene i is bit i."""
        return int(self.bits()[::-1], 2)


def rank_columns(matrix: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(k, n) int32 dense ranks of each column of ``matrix``, and each column's
    distinct values in ascending order: ``values[j][ranks[j]]`` is column j.

    A constant column, and one of whole numbers within +-2**52 whose range
    spans at most n, is ranked by counting its offsets from its minimum; any
    other column, and one holding -0.0, by ``np.unique``. Both give the same
    ranks and values. Columns are read one at a time, so a column-major
    matrix is read in place.
    """
    n = matrix.shape[0]
    ranks = np.empty(matrix.shape[::-1], dtype=np.int32)
    values = []
    for j in range(matrix.shape[1]):
        column = matrix[:, j]
        counted = _count_ranks(column, n) if n else None
        if counted is None:
            distinct, ranks[j] = np.unique(column, return_inverse=True)
        else:
            distinct, ranks[j] = counted
        values.append(distinct)
    return ranks, tuple(values)


def _count_ranks(column: np.ndarray, n: int):
    """(distinct values, ranks) of a non-empty column of whole numbers within
    +-2**52 and a range of at most ``n``, from a count of each offset from the
    minimum, or of a constant column; None for any other column, and for one
    holding -0.0, whose distinct zero is the one ``np.unique``'s sort puts
    first."""
    lo, hi = column.min(), column.max()
    # -0.0 is the one float64 whose bits are the least int64
    if lo <= 0.0 <= hi and column.view(np.int64).min() == np.iinfo(np.int64).min:
        return None
    if lo == hi:  # one value, so one bit pattern
        return column[:1].copy(), np.zeros(n, dtype=np.int32)
    # before hi - lo, which can overflow; NaN fails both
    if not (-2.0**52 <= lo and hi <= 2.0**52) or hi - lo > n:
        return None
    offset = column.astype(np.int64)  # exact within +-2**52
    if not (offset == column).all():
        return None
    offset -= int(lo)
    present = np.bincount(offset, minlength=int(hi - lo) + 1) > 0
    rank_of = np.cumsum(present, dtype=np.int32) - 1
    return (np.flatnonzero(present) + int(lo)).astype(np.float64), rank_of[offset]


class ColumnRanks:
    """``rank_columns`` of a dataset's feature matrix, made on first use.

    A dataset and its relabels share one; the first tree fitted on any of
    them fills it, once even when threads fit at the same time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._table = None

    def of(self, matrix: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        with self._lock:
            if self._table is None:
                self._table = rank_columns(matrix)
            return self._table


@dataclass(frozen=True, eq=False)
class Categories:
    """A column of strings as its distinct values, in first-appearance order,
    and one code per row: row i is ``values[codes[i]]``.

    Iterating yields the rows' strings. Two are equal when their values and
    codes are, which for columns in first-appearance order means their rows are.
    """

    values: tuple[str, ...]
    codes: np.ndarray  # (n,) int32

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return map(self.values.__getitem__, self.codes.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Categories):
            return NotImplemented
        return self.values == other.values and np.array_equal(self.codes, other.codes)

    __hash__ = None


class _Coder:
    """Codes a column's strings in first-appearance order, a block at a time.

    ``done`` strips each distinct string once; strings that strip alike (" tcp"
    and "tcp") become one value, at the first appearance of either.
    """

    def __init__(self) -> None:
        self._table: defaultdict[str, int] = defaultdict(itertools.count().__next__)
        self._blocks: list[np.ndarray] = []

    def add(self, values: list[str]) -> None:
        self._blocks.append(np.fromiter(map(self._table.__getitem__, values),
                                        dtype=np.int32, count=len(values)))

    def done(self) -> Categories:
        stripped: dict[str, int] = {}
        merged = np.fromiter((stripped.setdefault(raw.strip(), len(stripped))
                              for raw in self._table), dtype=np.int32, count=len(self._table))
        codes = np.concatenate([np.empty(0, np.int32), *self._blocks])
        if len(stripped) < len(merged):
            codes = merged[codes]
        return Categories(tuple(stripped), codes)


@dataclass
class RawDataset:
    """Parsed columns in file order, with the symbolic columns not yet encoded.

    ``features`` is the one large matrix of a load: the parse writes the
    numbers into their feature columns, and the first ``encode`` writes its
    codes into the three symbolic columns (0 until then) and takes the matrix
    as its ``Dataset``'s; a later ``encode`` copies the matrix first. The
    numeric columns are never written after the parse.
    """

    features: np.ndarray  # (n, 41) float64, column-major, FEATURE_NAMES order
    symbolic: dict[str, Categories]  # SYMBOLIC_COLUMNS -> stripped values
    labels: Categories  # stripped
    role: str = ""
    # whether an encode has taken ``features`` for its Dataset
    encoded: bool = field(default=False, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def numeric(self) -> np.ndarray:
        """(n, 38) float64 copy of the NUMERIC_COLUMNS, in file order."""
        return self.features[:, _NUMERIC_INDEX]


@dataclass
class Dataset:
    """Encoded rows: a float matrix plus the original labels, in file order."""

    features: np.ndarray  # (n, 41) float64, column-major
    labels: Categories
    feature_names: tuple[str, ...] = FEATURE_NAMES
    ranks: ColumnRanks = field(default_factory=ColumnRanks, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class BinaryLabeledDataset:
    """Feature matrix plus boolean targets for one target-vs-rest task."""

    features: np.ndarray  # (n, k) float64
    targets: np.ndarray  # (n,) bool
    feature_names: tuple[str, ...]
    # shared with the Dataset this was relabeled from; fresh for a projection
    ranks: ColumnRanks = field(default_factory=ColumnRanks, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.targets)


@dataclass
class Codebook:
    """Per-column category-to-code maps, in first-appearance order.

    ``extensions`` records categories appended after the build (categories met
    while encoding a set other than the building one); each entry is
    (column, category, assigned code).
    """

    columns: dict[str, dict[str, int]]
    provenance: str = ""
    extensions: list[tuple[str, str, int]] = field(default_factory=list)

    def code_for(self, column: str, category: str) -> int:
        """Code for ``category``, appending it with the next code if unseen."""
        mapping = self.columns[column]
        code = mapping.get(category)
        if code is None:
            code = len(mapping)
            mapping[category] = code
            self.extensions.append((column, category, code))
        return code

    def warnings(self) -> list[str]:
        return [
            f"category {cat!r} in column {col!r} was not in the codebook; "
            f"appended with code {code}"
            for col, cat, code in self.extensions
        ]

    def to_dict(self) -> dict:
        return {
            "built_from": self.provenance,
            "columns": {col: dict(mapping) for col, mapping in self.columns.items()},
            "extensions": [list(e) for e in self.extensions],
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def parse_file(path: str | Path, role: str = "") -> RawDataset:
    """Read an NSL-KDD file into column arrays, in file order.

    Accepts 42-column (features + label) and 43-column (+ difficulty) lines,
    also mixed in one file; the difficulty must be an integer and is dropped.
    A UTF-8 BOM and trailing blank lines are ignored, and whitespace around
    labels and symbolic fields is stripped. Any other defect, including a
    blank line before the last row and a numeric field that does not parse
    to a finite number, raises ParseError naming the file and line.

    A file whose first line has 42 or 43 columns is read once by
    ``_load_columns`` unless its text holds "-0" or a character that read
    misreads. Any other file, and one that read refuses (a line of another
    width among them), is parsed by ``_parse_block`` a block of lines at a
    time, which decides whether it is accepted and words the error. Either
    writes the numbers into their columns of the dataset's feature matrix.
    """
    path = Path(path)
    # split on "\n" only, so line numbers match what an editor shows; a "\r"
    # before it ends the last field, which is stripped
    with open(path, encoding="utf-8-sig", newline="") as handle:
        text = handle.read()
    lines = text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    width = lines[0].count(",") if lines else 0
    # the read refuses a line of another width itself. It misreads a few
    # characters, and int64 reads "-0" as 0 where float() keeps the sign of
    # -0.0; "-" alone is found by one memchr, and re finds "-0" faster than
    # str does
    one_read = (width in (N_FEATURES, N_FEATURES + 1)
                and not any(char in text for char in _LOADTXT_MISREADS)
                and ("-" not in text or re.search("-0", text) is None))
    del text
    loaded = _load_columns(lines, difficulty=width > N_FEATURES) if one_read else None
    if loaded is not None:
        return RawDataset(*loaded, role=role)
    features = _feature_matrix(len(lines))
    coders = [_Coder() for _ in range(len(SYMBOLIC_COLUMNS) + 1)]
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start:start + _BLOCK_LINES]
        _parse_block(block, path.name, start, features[start:start + len(block)], coders)
    *symbolic, labels = (coder.done() for coder in coders)
    return RawDataset(features, dict(zip(SYMBOLIC_COLUMNS, symbolic)), labels, role=role)


def _feature_matrix(rows: int) -> np.ndarray:
    """A zeroed (rows, 41) float64 matrix, column-major so each column is contiguous."""
    return np.zeros((rows, N_FEATURES), dtype=np.float64, order="F")


def _load_columns(lines: list[str], difficulty: bool):
    """``lines`` read by ``np.loadtxt`` a block at a time, as (feature matrix,
    symbolic columns, labels), or None if it fails or a line breaks a rule
    that ``_parse_block`` checks. Each line must have the 42 columns, or with
    ``difficulty`` the 43, of the read's dtype. The whole-number columns and
    the difficulty are read as int64, the rates as float64; the difficulty is
    only checked."""
    runs = _RUNS if difficulty else _RUNS[:-1]
    # one subarray field (named f0, f1, ...) per run, in file order; object
    # makes each string one str (str would cast chunks to a fixed width);
    # max_rows sizes each result
    dtype = np.dtype([("", kind, (stop - first,)) for kind, first, stop in runs])
    features = _feature_matrix(len(lines))
    coders = [_Coder() for _ in range(len(SYMBOLIC_COLUMNS) + 1)]
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start:start + _BLOCK_LINES]
        try:
            # numpy < 2 reads a decimal as an int64 with a DeprecationWarning,
            # and skips a blank line with a UserWarning
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                read = np.loadtxt(block, dtype, delimiter=",", comments=None, ndmin=1,
                                  max_rows=len(block))
        except (ValueError, Warning):
            return None
        if len(read) != len(block):
            return None  # a skipped line
        rows = features[start:start + len(block)]
        strings = []  # the symbolic columns, then the labels
        for name, (kind, first, stop) in zip(dtype.names, runs):
            if kind is object:
                strings += read[name].T.tolist()
            elif stop <= N_FEATURES:
                if kind is np.float64 and not np.isfinite(read[name]).all():
                    return None
                rows[:, first:stop] = read[name]
        for coder, values in zip(coders, strings):
            coder.add(values)
    *symbolic, labels = (coder.done() for coder in coders)
    if any("" in column.values for column in (*symbolic, labels)):
        return None  # an empty field
    return features, dict(zip(SYMBOLIC_COLUMNS, symbolic)), labels


def _parse_block(lines: list[str], file_name: str, first: int, features: np.ndarray,
                 coders: list[_Coder]) -> None:
    """Check the block of lines that starts after line ``first`` of the file;
    write its numbers into their columns of ``features`` (the block's rows)
    and add its symbolic columns and labels, in that order, to ``coders``."""

    def error(row: int, message: str) -> ParseError:
        return ParseError(f"{file_name}: line {first + row + 1}: {message}")

    widths_ok = (N_FEATURES + 1, N_FEATURES + 2)
    rows = [line.split(",") for line in lines]
    widths = set(map(len, rows))
    if not widths.issubset(widths_ok):
        bad = next(i for i, row in enumerate(rows) if len(row) not in widths_ok)
        if not lines[bad].strip():
            raise error(bad, "blank line")
        raise error(bad, f"expected {N_FEATURES + 1} or {N_FEATURES + 2} "
                         f"comma-separated columns, found {len(rows[bad])}")
    columns = list(zip(*rows))  # as wide as the narrowest row: features + label

    for ci, name in enumerate(FEATURE_NAMES):
        column = columns[ci]
        if name in SYMBOLIC_COLUMNS:
            column = [value.strip() for value in column]
        if "" in column:
            raise error(column.index(""), f"column {name!r}: empty field")
        if name in SYMBOLIC_COLUMNS:
            coders[SYMBOLIC_COLUMNS.index(name)].add(column)
            continue
        out = features[:, ci]
        try:
            out[:] = np.asarray(column, dtype=np.float64)
        except ValueError:  # numpy parses str with float(); find the value it refused
            for row, value in enumerate(column):
                try:
                    float(value)
                except ValueError:
                    raise error(row, f"column {name!r}: cannot parse {value!r} "
                                     "as a number") from None
            raise
        if not np.isfinite(out).all():
            bad = int(np.flatnonzero(~np.isfinite(out))[0])
            raise error(bad, f"column {name!r}: value {column[bad]!r} is not finite")

    block_labels = [value.strip() for value in columns[N_FEATURES]]
    if "" in block_labels:
        raise error(block_labels.index(""), "empty label")
    coders[-1].add(block_labels)

    for value in {row[-1] for row in rows if len(row) == N_FEATURES + 2}:
        try:
            int(value.strip())
        except ValueError:
            bad = next(i for i, row in enumerate(rows)
                       if len(row) == N_FEATURES + 2 and row[-1] == value)
            raise error(bad, f"difficulty column {value!r} is not an integer") from None


def build_codebook(train: RawDataset) -> Codebook:
    """Assign integer codes to symbolic categories in first-appearance order."""
    columns = {
        name: {value: code for code, value in enumerate(train.symbolic[name].values)}
        for name in SYMBOLIC_COLUMNS
    }
    return Codebook(columns=columns, provenance=train.role or "training")


def encode(data: RawDataset, book: Codebook) -> Dataset:
    """Fill the symbolic columns of the parsed matrix with codebook codes.

    The first encode of ``data`` writes the codes into ``data.features`` and
    hands that matrix to the Dataset, so no copy is made; a later one (say
    with another codebook) copies it first, which leaves earlier Datasets as
    they were. Each column's distinct values are looked up once. Categories
    absent from the codebook are appended to it with the next free code, in
    first-appearance order; the codebook records the append so the run
    report can surface it.
    """
    features = data.features.copy(order="F") if data.encoded else data.features
    data.encoded = True
    for name, at in zip(SYMBOLIC_COLUMNS, _SYMBOLIC_INDEX):
        column = data.symbolic[name]
        codes = np.array([book.code_for(name, value) for value in column.values], dtype=np.float64)
        features[:, at] = codes[column.codes]
    return Dataset(features=features, labels=data.labels)


def relabel(data: Dataset, target_attacks) -> BinaryLabeledDataset:
    """Mark records of the target attacks positive and everything else negative.

    Other attacks, normal traffic and attack names unseen in training all
    count as negative. Matching is case-insensitive and whitespace-trimmed.
    """
    wanted = frozenset(name.strip().lower() for name in target_attacks)
    if not wanted or not any(wanted):
        raise ValueError("target attack set is empty: no positive class to learn")
    labels = data.labels
    positive = np.array([label.strip().lower() in wanted for label in labels.values], dtype=bool)
    return BinaryLabeledDataset(
        features=data.features,
        targets=positive[labels.codes],
        feature_names=data.feature_names,
        ranks=data.ranks,
    )


def mask_columns(data: BinaryLabeledDataset, mask: FeatureMask) -> list[int]:
    """Positions of the mask's columns in ``data``, in canonical order."""
    if mask.selected_count == 0:
        raise DegenerateMaskError("mask selects no features")
    wanted = set(mask.selected_names())
    keep = [i for i, name in enumerate(data.feature_names) if name in wanted]
    if not keep:
        raise DegenerateMaskError("mask selects no columns present in this dataset")
    return keep


def project(data: BinaryLabeledDataset, mask: FeatureMask) -> BinaryLabeledDataset:
    """Restrict the dataset to the mask's columns, preserving canonical order."""
    keep = mask_columns(data, mask)
    return BinaryLabeledDataset(
        features=data.features[:, keep],
        targets=data.targets,
        feature_names=tuple(data.feature_names[i] for i in keep),
    )
