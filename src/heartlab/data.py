"""Dataset model, CSV ingestion, deterministic splitting, synthetic fixtures.

The dataset is a plain float64 feature matrix plus optional integer class
labels and an optional continuous target, described by a column schema.
Categorical feature columns whose CSV cells are not numeric are carried as
raw text (``Dataset.text_columns``) until the preprocessor encodes them;
continuous columns must parse as floats.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, ParseError, SchemaError

KIND_CONTINUOUS = "continuous"
KIND_CATEGORICAL = "categorical-integer"
KIND_BINARY = "binary"
_KINDS = (KIND_CONTINUOUS, KIND_CATEGORICAL, KIND_BINARY)

ROLE_FEATURE = "feature"
ROLE_CLASS_LABEL = "class-label"
ROLE_REGRESSION_TARGET = "regression-target"
ROLE_IGNORED = "ignored"
_ROLES = (ROLE_FEATURE, ROLE_CLASS_LABEL, ROLE_REGRESSION_TARGET, ROLE_IGNORED)


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str
    role: str = ROLE_FEATURE

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.role not in _ROLES:
            raise SchemaError(f"unknown column role {self.role!r} for {self.name!r}")


def validate_schema(columns: list[ColumnSchema]) -> list[ColumnSchema]:
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise SchemaError(f"duplicate column names: {dupes}")
    labels = [c for c in columns if c.role == ROLE_CLASS_LABEL]
    targets = [c for c in columns if c.role == ROLE_REGRESSION_TARGET]
    if len(labels) > 1:
        raise SchemaError("more than one class-label column")
    if len(targets) > 1:
        raise SchemaError("more than one regression-target column")
    return list(columns)


# Built-in schema for the 16-column heart table: 14 features, one class
# label ("target") and one continuous risk score used as regression target.
HEART16 = validate_schema([
    ColumnSchema("age", KIND_CONTINUOUS),
    ColumnSchema("sex", KIND_BINARY),
    ColumnSchema("cp", KIND_CATEGORICAL),
    ColumnSchema("resting_BP", KIND_CONTINUOUS),
    ColumnSchema("chol", KIND_CONTINUOUS),
    ColumnSchema("fbs", KIND_BINARY),
    ColumnSchema("restecg", KIND_CATEGORICAL),
    ColumnSchema("thalach", KIND_CONTINUOUS),
    ColumnSchema("exang", KIND_BINARY),
    ColumnSchema("oldpeak", KIND_CONTINUOUS),
    ColumnSchema("slope", KIND_CATEGORICAL),
    ColumnSchema("ca", KIND_CATEGORICAL),
    ColumnSchema("thal", KIND_CATEGORICAL),
    ColumnSchema("Max Heart Rate Reserve", KIND_CONTINUOUS),
    ColumnSchema("Heart Disease Risk Score", KIND_CONTINUOUS, ROLE_REGRESSION_TARGET),
    ColumnSchema("target", KIND_BINARY, ROLE_CLASS_LABEL),
])

SCHEMAS = {"heart16": HEART16}


@dataclass
class Dataset:
    """Immutable table: feature matrix + optional labels/targets.

    rows has one column per feature-role schema column, in schema order.
    Missing feature cells are NaN until the preprocessor imputes them.
    """

    schema: list[ColumnSchema]
    rows: np.ndarray
    labels: np.ndarray | None = None
    targets: np.ndarray | None = None
    text_columns: dict[str, list] = field(default_factory=dict)

    def __post_init__(self):
        self.schema = validate_schema(self.schema)
        self.rows = np.ascontiguousarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ContractError("rows must be a 2-D matrix")
        n_feat = len(self.feature_columns())
        if self.rows.shape[1] != n_feat:
            raise ContractError(
                f"rows has {self.rows.shape[1]} columns, schema defines {n_feat} features"
            )
        n = self.rows.shape[0]
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise ContractError("labels length differs from row count")
        if self.targets is not None:
            self.targets = np.asarray(self.targets, dtype=np.float64)
            if self.targets.shape != (n,):
                raise ContractError("targets length differs from row count")
        for name, cells in self.text_columns.items():
            if len(cells) != n:
                raise ContractError(f"text column {name!r} length differs from row count")
        self.rows.flags.writeable = False
        if self.labels is not None:
            self.labels.flags.writeable = False
        if self.targets is not None:
            self.targets.flags.writeable = False

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def feature_columns(self) -> list[ColumnSchema]:
        return [c for c in self.schema if c.role == ROLE_FEATURE]

    def feature_names(self) -> list[str]:
        return [c.name for c in self.feature_columns()]

    def class_counts(self) -> dict[int, int]:
        if self.labels is None:
            return {}
        codes, counts = np.unique(self.labels, return_counts=True)
        return {int(c): int(n) for c, n in zip(codes, counts)}

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            schema=self.schema,
            rows=self.rows[idx],
            labels=None if self.labels is None else self.labels[idx],
            targets=None if self.targets is None else self.targets[idx],
            text_columns={k: [v[i] for i in idx] for k, v in self.text_columns.items()},
        )

    def with_rows(self, rows, labels=None, targets=None) -> "Dataset":
        """New dataset sharing this schema (text columns dropped)."""
        return Dataset(schema=self.schema, rows=rows, labels=labels, targets=targets)


def check_seed(seed: int) -> None:
    """Refuse a seed that numpy's generators or the uint64 tree keys cannot take."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0,1), got {self.train_fraction}")


def _parse_cell(text, row_i, col_name):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"row {row_i}, column {col_name!r}: cannot parse {text!r}") from None


def load_csv(path, schema: list[ColumnSchema]) -> Dataset:
    """Read a headered UTF-8 CSV into a Dataset.

    The header must contain exactly the schema names, any order. Empty
    feature cells become NaN missing markers. Non-numeric cells are a
    ParseError for continuous columns; categorical/binary feature columns
    fall back to text mode and are encoded later by the preprocessor.
    Label and regression-target cells must always be present and numeric.
    """
    schema = validate_schema(schema)
    path = Path(path)
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            raw = [row for row in reader if row]
        except StopIteration:
            raise SchemaError("file has no header row") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    header = [h.strip() for h in header]

    names = [c.name for c in schema]
    missing = [n for n in names if n not in header]
    if missing:
        raise SchemaError(f"missing column: {missing[0]}")
    extra = [h for i, h in enumerate(header) if h not in names or h in header[:i]]
    if extra:
        raise SchemaError(f"{'duplicate' if extra[0] in names else 'unexpected'} column: {extra[0]}")
    pos = {n: header.index(n) for n in names}

    n = len(raw)
    feat_cols = [c for c in schema if c.role == ROLE_FEATURE]
    label_col = next((c for c in schema if c.role == ROLE_CLASS_LABEL), None)
    target_col = next((c for c in schema if c.role == ROLE_REGRESSION_TARGET), None)

    for i, row in enumerate(raw):
        if len(row) != len(header):
            raise ParseError(f"row {i}: expected {len(header)} cells, found {len(row)}")

    rows = np.full((n, len(feat_cols)), np.nan, dtype=np.float64)
    text_columns: dict[str, list] = {}
    for j, col in enumerate(feat_cols):
        p = pos[col.name]
        cells = [r[p].strip() for r in raw]
        numeric = True
        if col.kind != KIND_CONTINUOUS:
            for c in cells:
                if c == "":
                    continue
                try:
                    float(c)
                except ValueError:
                    numeric = False
                    break
        if numeric:
            for i, c in enumerate(cells):
                if c == "":
                    continue  # missing marker stays NaN
                rows[i, j] = _parse_cell(c, i, col.name)
        else:
            text_columns[col.name] = [c if c != "" else None for c in cells]

    labels = None
    if label_col is not None:
        p = pos[label_col.name]
        labels = np.empty(n, dtype=np.int64)
        for i, r in enumerate(raw):
            c = r[p].strip()
            if c == "":
                raise ParseError(f"row {i}, column {label_col.name!r}: empty class label")
            v = _parse_cell(c, i, label_col.name)
            if not 0 <= v < 2 ** 63 or v != int(v):
                raise ParseError(
                    f"row {i}, column {label_col.name!r}: class code must be a nonnegative integer, got {c!r}"
                )
            labels[i] = int(v)

    targets = None
    if target_col is not None:
        p = pos[target_col.name]
        targets = np.empty(n, dtype=np.float64)
        for i, r in enumerate(raw):
            c = r[p].strip()
            if c == "":
                raise ParseError(f"row {i}, column {target_col.name!r}: empty target value")
            targets[i] = _parse_cell(c, i, target_col.name)

    return Dataset(schema=schema, rows=rows, labels=labels, targets=targets,
                   text_columns=text_columns)


def write_csv(ds: Dataset, path) -> None:
    """Write a dataset back to CSV in schema order (used by the fixture CLI)."""
    feat_names = ds.feature_names()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in ds.schema])
        cols = []
        for c in ds.schema:
            if c.role == ROLE_FEATURE:
                if c.name in ds.text_columns:
                    cols.append(ds.text_columns[c.name])
                else:
                    cols.append(ds.rows[:, feat_names.index(c.name)])
            elif c.role == ROLE_CLASS_LABEL:
                cols.append(ds.labels)
            elif c.role == ROLE_REGRESSION_TARGET:
                cols.append(ds.targets)
            else:
                cols.append(np.full(ds.n_rows, np.nan))
        for i in range(ds.n_rows):
            out = []
            for col in cols:
                v = col[i]
                if isinstance(v, (np.integer, int)):
                    out.append(str(int(v)))
                elif v is None or (isinstance(v, float) and np.isnan(v)):
                    out.append("")
                elif isinstance(v, str):
                    out.append(v)
                else:
                    f = float(v)
                    out.append(str(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f))
            writer.writerow(out)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def train_test_split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic seeded partition; stratified mode keeps per-class
    proportions within one row using largest-remainder allocation."""
    n = ds.n_rows
    rng = np.random.default_rng(spec.seed)
    n_train = _round_half_up(spec.train_fraction * n)

    if not spec.stratified:
        perm = rng.permutation(n)
        train_idx = np.sort(perm[:n_train])
        test_idx = np.sort(perm[n_train:])
        return ds.take(train_idx), ds.take(test_idx)

    if ds.labels is None:
        raise ConfigError("stratified split requires class labels")
    counts = ds.class_counts()
    small = [c for c, k in counts.items() if k < 2]
    if small:
        raise ConfigError(f"stratified split needs >=2 rows per class; class {small[0]} has {counts[small[0]]}")

    codes = sorted(counts)
    floors = {c: int(np.floor(spec.train_fraction * counts[c])) for c in codes}
    short = n_train - sum(floors.values())
    frac = {c: spec.train_fraction * counts[c] - floors[c] for c in codes}
    for c in sorted(codes, key=lambda c: (-frac[c], c)):
        if short <= 0:
            break
        if floors[c] < counts[c]:
            floors[c] += 1
            short -= 1

    train_parts, test_parts = [], []
    for c in codes:
        members = np.nonzero(ds.labels == c)[0]
        perm = members[rng.permutation(members.size)]
        take = floors[c]
        train_parts.append(perm[:take])
        test_parts.append(perm[take:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return ds.take(train_idx), ds.take(test_idx)


# ---------------------------------------------------------------------------
# Synthetic fixture: a CI stand-in for the real heart table. The class label
# follows a steep planted logistic rule on four features; the risk score is
# an exact linear function of five mutually independent features plus
# configurable Gaussian noise, so OLS has a known optimum.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixtureSpec:
    noise_sigma: float = 0.1
    logistic_steepness: float = 6.0

    def __post_init__(self):
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


# (feature, weight, nominal mean, nominal sd) in standardized units; the
# chosen features are drawn independently, so the target variance is close
# to sum(weight^2) + sigma^2 = 1 + sigma^2.
_TARGET_PLAN = [
    ("age", 0.35, 54.0, 9.0),
    ("chol", 0.30, 246.0, 50.0),
    ("oldpeak", 0.62, 1.0, 0.9),
    ("sex", 0.25, 0.5, 0.5),
    ("cp", 0.40, 1.5, 1.1),
]
_TARGET_WEIGHT_NORM = float(np.sqrt(sum(w * w for _, w, _, _ in _TARGET_PLAN)))
_TARGET_INTERCEPT_BASE = 5.0

_LABEL_PLAN = [
    ("oldpeak", 1.0, 1.0, 0.9),
    ("thalach", -0.9, 149.0, 23.0),
    ("cp", 0.8, 1.5, 1.1),
    ("chol", 0.45, 246.0, 50.0),
]
_LABEL_WEIGHT_NORM = float(np.sqrt(sum(w * w for _, w, _, _ in _LABEL_PLAN)))


def planted_coefficients() -> tuple[np.ndarray, float]:
    """Raw-unit weights (one per heart16 feature column) and intercept of the
    fixture's noiseless regression target."""
    names = [c.name for c in HEART16 if c.role == ROLE_FEATURE]
    w = np.zeros(len(names))
    intercept = _TARGET_INTERCEPT_BASE
    for name, wt, mu, sd in _TARGET_PLAN:
        scaled = wt / _TARGET_WEIGHT_NORM
        w[names.index(name)] = scaled / sd
        intercept -= scaled * mu / sd
    return w, intercept


def make_fixture(n: int, spec: FixtureSpec = FixtureSpec(), seed: int = 0) -> Dataset:
    if n < 4:
        raise ConfigError(f"fixture needs n >= 4, got {n}")
    rng = np.random.default_rng(seed)

    age = np.round(np.clip(rng.normal(54.0, 9.0, n), 29, 77))
    sex = rng.integers(0, 2, n).astype(np.float64)
    cp = rng.integers(0, 4, n).astype(np.float64)
    resting_bp = np.round(np.clip(rng.normal(131.0, 17.0, n), 94, 200))
    chol = np.round(np.clip(rng.normal(246.0, 50.0, n), 126, 564))
    fbs = (rng.random(n) < 0.15).astype(np.float64)
    restecg = rng.integers(0, 3, n).astype(np.float64)
    thalach = np.round(np.clip(rng.normal(149.0, 23.0, n), 71, 202))
    exang = (rng.random(n) < 0.33).astype(np.float64)
    oldpeak = np.round(np.clip(np.abs(rng.normal(0.0, 1.3, n)), 0, 6.2), 1)
    slope = rng.integers(0, 3, n).astype(np.float64)
    ca = rng.integers(0, 4, n).astype(np.float64)
    thal = rng.integers(1, 4, n).astype(np.float64)
    reserve = np.round((220.0 - age) - thalach + rng.normal(0.0, 3.0, n))

    by_name = {
        "age": age, "sex": sex, "cp": cp, "resting_BP": resting_bp, "chol": chol,
        "fbs": fbs, "restecg": restecg, "thalach": thalach, "exang": exang,
        "oldpeak": oldpeak, "slope": slope, "ca": ca, "thal": thal,
        "Max Heart Rate Reserve": reserve,
    }

    z = np.zeros(n)
    for name, wt, mu, sd in _LABEL_PLAN:
        z += (wt / _LABEL_WEIGHT_NORM) * (by_name[name] - mu) / sd
    z *= spec.logistic_steepness
    p = 1.0 / (1.0 + np.exp(-z))
    labels = (rng.random(n) < p).astype(np.int64)

    signal = np.zeros(n)
    for name, wt, mu, sd in _TARGET_PLAN:
        signal += (wt / _TARGET_WEIGHT_NORM) * (by_name[name] - mu) / sd
    targets = signal + _TARGET_INTERCEPT_BASE
    if spec.noise_sigma > 0:
        targets = targets + rng.normal(0.0, spec.noise_sigma, n)

    feat_order = [c.name for c in HEART16 if c.role == ROLE_FEATURE]
    rows = np.column_stack([by_name[fn] for fn in feat_order])
    return Dataset(schema=HEART16, rows=rows, labels=labels, targets=targets)
