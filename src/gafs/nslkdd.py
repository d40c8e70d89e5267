"""NSL-KDD file parsing, symbolic encoding, binary relabeling and column projection.

Input files are comma-separated text with no header: 41 feature columns
followed by the attack label, and in the commonly distributed variants a
trailing difficulty score (42 or 43 columns total), which is checked and
dropped. Loading is columnar: ``parse_file`` checks every field and returns
the numeric columns as one float matrix and the symbolic ones as strings,
``build_codebook`` numbers the training set's symbolic values, and ``encode``
maps the symbolic columns through the codebook beside the numeric ones.
"""

from __future__ import annotations

import json
import sys
import threading
import weakref
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

# Lines split into fields at a time by parse_file; splitting a whole file at
# once holds all its field strings together (~150 MB more peak for KDDTrain+).
_BLOCK_LINES = 2048

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
        return cls(tuple(i in wanted for i in range(N_FEATURES)))

    @classmethod
    def from_names(cls, names) -> "FeatureMask":
        unknown = [n for n in names if n not in FEATURE_NAMES]
        if unknown:
            raise ValueError(
                f"unknown feature name(s) {unknown}; valid names: {', '.join(FEATURE_NAMES)}"
            )
        wanted = set(names)
        return cls(tuple(name in wanted for name in FEATURE_NAMES))

    @classmethod
    def from_bits(cls, bits: str) -> "FeatureMask":
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


@dataclass
class RawDataset:
    """Parsed columns in file order, with the symbolic columns still as strings."""

    numeric: np.ndarray  # (n, 38) float64, the NUMERIC_COLUMNS in file order
    symbolic: dict[str, list[str]]  # SYMBOLIC_COLUMNS -> stripped, interned values
    labels: tuple[str, ...]
    role: str = ""

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class Dataset:
    """Encoded rows: a float matrix plus the original labels, in file order."""

    features: np.ndarray  # (n, 41) float64
    labels: tuple[str, ...]
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class BinaryLabeledDataset:
    """Feature matrix plus boolean targets for one target-vs-rest task."""

    features: np.ndarray  # (n, k) float64
    targets: np.ndarray  # (n,) bool
    feature_names: tuple[str, ...]
    target_spec: frozenset[str]

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
    """
    path = Path(path)
    # split on "\n" only, so line numbers match what an editor shows; a "\r"
    # before it ends the last field, which is stripped
    with open(path, encoding="utf-8-sig", newline="") as handle:
        lines = handle.read().split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    numeric = np.empty((len(lines), len(NUMERIC_COLUMNS)), dtype=np.float64)
    symbolic: dict[str, list[str]] = {name: [] for name in SYMBOLIC_COLUMNS}
    labels: list[str] = []
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start:start + _BLOCK_LINES]
        _parse_block(block, path.name, start, numeric[start:start + len(block)],
                     symbolic, labels)
    return RawDataset(numeric=numeric, symbolic=symbolic, labels=tuple(labels), role=role)


def _parse_block(lines: list[str], file_name: str, first: int, numeric: np.ndarray,
                 symbolic: dict[str, list[str]], labels: list[str]) -> None:
    """Check the block of lines that starts after line ``first`` of the file;
    fill ``numeric`` with its numeric columns and extend ``symbolic``/``labels``."""

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
            column = _stripped(column)
        if "" in column:
            raise error(column.index(""), f"column {name!r}: empty field")
        if name in SYMBOLIC_COLUMNS:
            symbolic[name] += column
            continue
        out = numeric[:, NUMERIC_COLUMNS.index(name)]
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

    block_labels = _stripped(columns[N_FEATURES])
    if "" in block_labels:
        raise error(block_labels.index(""), "empty label")
    labels += block_labels

    for value in {row[-1] for row in rows if len(row) == N_FEATURES + 2}:
        try:
            int(value.strip())
        except ValueError:
            bad = next(i for i, row in enumerate(rows)
                       if len(row) == N_FEATURES + 2 and row[-1] == value)
            raise error(bad, f"difficulty column {value!r} is not an integer") from None


def _stripped(values) -> list[str]:
    """``values`` stripped and interned; each distinct string is stripped once."""
    table = {value: sys.intern(value.strip()) for value in set(values)}
    return list(map(table.__getitem__, values))


def build_codebook(train: RawDataset) -> Codebook:
    """Assign integer codes to symbolic categories in first-appearance order."""
    columns = {
        name: {value: code for code, value in enumerate(dict.fromkeys(train.symbolic[name]))}
        for name in SYMBOLIC_COLUMNS
    }
    return Codebook(columns=columns, provenance=train.role or "training")


def encode(data: RawDataset, book: Codebook) -> Dataset:
    """Replace symbolic columns by codebook codes, beside the numeric columns.

    Categories absent from the codebook are appended to it with the next free
    code, in first-appearance order; the codebook records the append so the
    run report can surface it.
    """
    features = np.empty((len(data), N_FEATURES), dtype=np.float64)
    features[:, _NUMERIC_INDEX] = data.numeric
    for name in SYMBOLIC_COLUMNS:
        column = data.symbolic[name]
        codes = {value: book.code_for(name, value) for value in dict.fromkeys(column)}
        features[:, FEATURE_NAMES.index(name)] = np.fromiter(
            map(codes.__getitem__, column), dtype=np.float64, count=len(column))
    return Dataset(features=features, labels=data.labels)


def relabel(data: Dataset, target_attacks) -> BinaryLabeledDataset:
    """Mark records of the target attacks positive and everything else negative.

    Other attacks, normal traffic and attack names unseen in training all
    count as negative. Matching is case-insensitive and whitespace-trimmed.
    """
    wanted = frozenset(name.strip().lower() for name in target_attacks)
    if not wanted or not any(wanted):
        raise ValueError("target attack set is empty: no positive class to learn")
    targets = np.fromiter(
        (label.strip().lower() in wanted for label in data.labels),
        dtype=bool,
        count=len(data.labels),
    )
    return BinaryLabeledDataset(
        features=data.features,
        targets=targets,
        feature_names=data.feature_names,
        target_spec=wanted,
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
        target_spec=data.target_spec,
    )


def sorted_columns(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, n) int32 rows of each column of ``matrix`` in value order, and those values."""
    columns = np.ascontiguousarray(matrix.T)
    rows = np.argsort(columns, axis=1).astype(np.int32)
    return rows, np.take_along_axis(columns, rows, axis=1)


# ``sorted_columns`` of the matrices trees were fitted on, keyed on the matrix
# object: all relabels and masks of one encoded set share one sort.
_SORTED: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_SORTING = threading.Lock()


def _sorted_projection(matrix: np.ndarray, columns: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """``sorted_columns`` of some columns, from the cached sort of all of ``matrix``."""
    with _SORTING:  # else each of the GA's worker threads would sort it once
        if id(matrix) not in _SORTED:
            _SORTED[id(matrix)] = sorted_columns(matrix)
            weakref.finalize(matrix, _SORTED.pop, id(matrix), None)
        rows, values = _SORTED[id(matrix)]
    return rows[columns], values[columns]
