"""Fit-on-train preprocessing: encode, impute, outlier-filter, scale.

Statistics come from the training partition only. The fixed order is
label encoding, then median/mode imputation, then interquartile-range
row filtering (train rows only), then z-score scaling with population
(divide-by-n) standard deviations. Quantiles use linear interpolation
between order statistics. ``transform`` never drops rows; the filter is
applied to training data via ``transform_filtered``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (
    Dataset,
    KIND_CONTINUOUS,
)
from .errors import ConfigError, FitError, TransformError


@dataclass(frozen=True)
class PreprocessConfig:
    # iqr_columns None means every continuous feature column; [] disables
    iqr_columns: list | None = None
    iqr_factor: float = 1.5
    scale: bool = True

    def __post_init__(self):
        if not 0 <= self.iqr_factor < np.inf:
            raise ConfigError(f"iqr_factor must be finite and >= 0, got {self.iqr_factor}")


@dataclass(frozen=True)
class PreprocessorState:
    """Frozen statistics fitted on one training partition, one entry per
    feature column in each array."""

    features: list            # the fitted feature ColumnSchemas
    label_maps: dict          # column -> {text: code}, codes lexicographic
    fills: np.ndarray         # median (continuous) or mode (tie: smallest code) of train cells
    lower: np.ndarray         # outlier bounds in raw units; -inf/inf where not filtered
    upper: np.ndarray
    means: np.ndarray         # after imputation + filtering; 0 where not scaled
    sds: np.ndarray           # population sd; 1 where not scaled
    constant_columns: list = field(default_factory=list)


def _mode(values: np.ndarray) -> float:
    vals, counts = np.unique(values, return_counts=True)
    return float(vals[np.argmax(counts)])  # unique is sorted, argmax takes first


def fit_preprocessor(train: Dataset, config: PreprocessConfig = PreprocessConfig()) -> PreprocessorState:
    if train.n_rows == 0:
        raise FitError("cannot fit preprocessor on an empty training set")
    feat_cols = train.feature_columns()

    label_maps: dict = {}
    for name, cells in train.text_columns.items():
        seen = sorted({c for c in cells if c is not None})
        if not seen:
            raise FitError(f"column {name!r} has no observed values")
        label_maps[name] = {text: code for code, text in enumerate(seen)}

    encoded = _encode(label_maps, train)

    fills = np.empty(len(feat_cols))
    for j, col in enumerate(feat_cols):
        vals = encoded[:, j]
        present = vals[~np.isnan(vals)]
        if present.size == 0:
            raise FitError(f"column {col.name!r} has no observed values")
        fills[j] = np.median(present) if col.kind == KIND_CONTINUOUS else _mode(present)

    x = np.where(np.isnan(encoded), fills, encoded)
    lower, upper = np.full(len(feat_cols), -np.inf), np.full(len(feat_cols), np.inf)
    names = [c.name for c in feat_cols]
    f, iqr_names = config.iqr_factor, config.iqr_columns
    if iqr_names is None:
        iqr_names = [c.name for c in feat_cols if c.kind == KIND_CONTINUOUS]
    for name in iqr_names:
        if name not in names:
            raise ConfigError(f"unknown column for outlier filter: {name!r}")
        j = names.index(name)
        if feat_cols[j].kind != KIND_CONTINUOUS:
            raise ConfigError(f"outlier filter requires a continuous column, got {name!r}")
        q1, q3 = np.quantile(x[:, j], [0.25, 0.75])
        if not q1 <= q3:
            raise FitError(f"column {name!r}: q1 {q1} > q3 {q3}")
        lower[j], upper[j] = q1 - f * (q3 - q1), q3 + f * (q3 - q1)
    kept = x[_inside(x, lower, upper)]
    if kept.shape[0] == 0:
        raise FitError(f"outlier filter (iqr_factor {config.iqr_factor}) left no training rows")

    means = kept.mean(axis=0)
    sds = np.sqrt(np.mean((kept - means) ** 2, axis=0))
    # constant detection by spread: the mean of n identical floats can carry
    # rounding noise, which would leave sd at ~1e-16 instead of exactly 0
    spread = kept.max(axis=0) - kept.min(axis=0)
    scaled = (sds > 0.0) & (spread > 0.0)
    constant = [c.name for c, ok in zip(feat_cols, scaled) if not ok]
    scaled &= config.scale

    return PreprocessorState(
        features=feat_cols,
        label_maps=label_maps,
        fills=fills,
        lower=lower,
        upper=upper,
        means=np.where(scaled, means, 0.0),
        sds=np.where(scaled, sds, 1.0),
        constant_columns=constant,
    )


def _encode(label_maps: dict, ds: Dataset) -> np.ndarray:
    """Resolve text columns to integer codes; returns a fresh matrix."""
    out = np.array(ds.rows, dtype=np.float64)
    feat_names = ds.feature_names()
    for name, cells in ds.text_columns.items():
        if name not in label_maps:
            raise TransformError(f"column {name!r} was numeric at fit time but has text now")
        mapping = label_maps[name]
        j = feat_names.index(name)
        for i, text in enumerate(cells):
            if text is None:
                out[i, j] = np.nan
            elif text in mapping:
                out[i, j] = mapping[text]
            else:
                raise TransformError(f"column {name!r}: unseen category {text!r}")
    for name, mapping in label_maps.items():
        if name in ds.text_columns:
            continue
        j = feat_names.index(name)
        col = out[:, j]
        ok = np.isnan(col) | (np.isin(col, list(mapping.values())))
        if not ok.all():
            bad = col[~ok][0]
            raise TransformError(f"column {name!r}: unseen category {bad!r}")
    return out


def _inside(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Rows none of whose cells lie outside [lower, upper]: the outlier
    rule both fit_preprocessor and transform_filtered apply."""
    return ~((x < lower) | (x > upper)).any(axis=1)


def _apply(state: PreprocessorState, ds: Dataset, filtered: bool) -> Dataset:
    """Encode, fill missing cells, drop rows with a cell outside the fitted
    outlier bounds when filtered (bounds are in pre-scaling units), then
    scale. x - 0 and x / 1 are exact, so unscaled columns pass through."""
    if ds.feature_columns() != state.features:
        raise TransformError("dataset schema does not match fitted state")
    x = _encode(state.label_maps, ds)
    ds = ds.with_rows(np.where(np.isnan(x), state.fills, x), labels=ds.labels, targets=ds.targets)
    if filtered:
        ds = ds.take(np.flatnonzero(_inside(ds.rows, state.lower, state.upper)))
    return ds.with_rows((ds.rows - state.means) / state.sds, labels=ds.labels, targets=ds.targets)


def transform(state: PreprocessorState, ds: Dataset) -> Dataset:
    """Encode, impute and scale; never removes rows."""
    return _apply(state, ds, filtered=False)


def transform_filtered(state: PreprocessorState, train: Dataset) -> Dataset:
    """Training-partition variant of transform that also drops rows outside
    the fitted outlier bounds."""
    return _apply(state, train, filtered=True)
