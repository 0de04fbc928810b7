import numpy as np
import pytest

from heartlab.data import ColumnSchema, Dataset
from heartlab.errors import ConfigError, FitError, TransformError
from heartlab.preprocess import (
    PreprocessConfig,
    fit_preprocessor,
    transform,
    transform_filtered,
)

from conftest import make_ds


# -- iqr filter --------------------------------------------------------------


def test_iqr_bounds_known_values():
    # oracle by hand: q1=2, q3=4, iqr=2 -> keep [2-3, 4+3] = [-1, 7]
    ds = make_ds(np.array([[1.0], [2.0], [3.0], [4.0], [100.0]]))
    state = fit_preprocessor(ds, PreprocessConfig(scale=False))
    assert state.lower.tolist() == [-1.0] and state.upper.tolist() == [7.0]
    assert transform_filtered(state, ds).rows[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_iqr_boundary_values_kept():
    ds = make_ds(np.array([[-1.0], [7.0], [2.0], [4.0], [3.0]]))
    state = fit_preprocessor(ds, PreprocessConfig(scale=False))
    # bounds from these five points are [-1, 7]; exactly-on-bound rows stay
    assert state.lower.tolist() == [-1.0] and state.upper.tolist() == [7.0]
    assert transform_filtered(state, ds).n_rows == 5


def test_transform_filtered_idempotent(rng):
    ds = make_ds(rng.normal(size=(300, 2)) ** 3)  # heavy tails
    state = fit_preprocessor(ds, PreprocessConfig(scale=False))
    once = transform_filtered(state, ds)
    twice = transform_filtered(state, once)
    assert 0 < once.n_rows < 300
    assert np.array_equal(twice.rows, once.rows)


def test_iqr_columns_unknown_or_noncontinuous_rejected():
    ds = make_ds(np.array([[1.0, 0.0]]), kinds=["continuous", "binary"])
    with pytest.raises(ConfigError, match="unknown column for outlier filter: 'nope'"):
        fit_preprocessor(ds, PreprocessConfig(iqr_columns=["nope"]))
    with pytest.raises(ConfigError, match="requires a continuous column, got 'f1'"):
        fit_preprocessor(ds, PreprocessConfig(iqr_columns=["f1"]))


# -- scaling -----------------------------------------------------------------


def test_zscore_population_sd():
    ds = make_ds(np.array([[1.0], [2.0], [3.0]]))
    state = fit_preprocessor(ds, PreprocessConfig(iqr_columns=[]))
    out = transform(state, ds)
    want = np.array([-1.22474487, 0.0, 1.22474487])
    assert np.allclose(out.rows[:, 0], want, atol=1e-4)
    # population sd: divide by n, not n-1
    assert abs(state.sds[0] - np.sqrt(2.0 / 3.0)) < 1e-12


def test_standardization_idempotent(rng):
    ds = make_ds(rng.normal(loc=5, scale=3, size=(200, 3)))
    state = fit_preprocessor(ds, PreprocessConfig(iqr_columns=[]))
    once = transform(state, ds)
    state2 = fit_preprocessor(once, PreprocessConfig(iqr_columns=[]))
    twice = transform(state2, once)
    assert np.allclose(twice.rows, once.rows, atol=1e-9)


def test_constant_column_passes_through():
    rows = np.column_stack([np.full(10, 4.2), np.arange(10, dtype=float)])
    ds = make_ds(rows)
    state = fit_preprocessor(ds, PreprocessConfig(iqr_columns=[]))
    assert list(state.constant_columns) == ["f0"]
    out = transform(state, ds)
    assert np.all(out.rows[:, 0] == 4.2)
    assert np.isfinite(out.rows).all()


def test_scale_disabled():
    ds = make_ds(np.array([[1.0], [5.0], [9.0]]))
    state = fit_preprocessor(ds, PreprocessConfig(iqr_columns=[], scale=False))
    out = transform(state, ds)
    assert np.array_equal(out.rows, ds.rows)


# -- imputation --------------------------------------------------------------


def test_median_impute_uses_train_statistics():
    train = make_ds(np.array([[1.0], [2.0], [9.0]]))
    test = make_ds(np.array([[np.nan], [100.0]]))
    state = fit_preprocessor(train, PreprocessConfig(iqr_columns=[], scale=False))
    out = transform(state, test)
    assert out.rows[0, 0] == 2.0  # train median, nothing from test
    assert out.n_rows == 2


def test_mode_impute_categorical_tie_to_smallest():
    rows = np.array([[0.0], [0.0], [1.0], [1.0], [np.nan]])
    ds = make_ds(rows, kinds=["categorical-integer"])
    state = fit_preprocessor(ds, PreprocessConfig(iqr_columns=[], scale=False))
    out = transform(state, ds)
    assert out.rows[4, 0] == 0.0  # tie between 0 and 1 goes low


def test_all_missing_column_rejected():
    ds = make_ds(np.array([[np.nan], [np.nan]]))
    with pytest.raises(FitError, match="f0"):
        fit_preprocessor(ds, PreprocessConfig())


def test_negative_iqr_factor_rejected():
    with pytest.raises(ConfigError, match="iqr_factor"):
        PreprocessConfig(iqr_factor=-1.0)


def test_outlier_filter_that_drops_every_row_is_a_fit_error():
    # at factor 0 only f0 in {2, 3} and f1 in {2, 3} survive, never in one row
    ds = make_ds(np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 4.0], [4.0, 3.0]]))
    with pytest.raises(FitError, match="outlier filter"):
        fit_preprocessor(ds, PreprocessConfig(iqr_factor=0.0))


def test_empty_dataset_rejected():
    ds = make_ds(np.empty((0, 2)))
    with pytest.raises(FitError):
        fit_preprocessor(ds, PreprocessConfig())


# -- label encoding ----------------------------------------------------------


def _text_ds(values, extra=None):
    rows = np.full((len(values), 2), np.nan)
    rows[:, 1] = extra if extra is not None else np.arange(len(values), dtype=float)
    schema = [
        ColumnSchema("sex", "binary"),
        ColumnSchema("age", "continuous"),
    ]
    return Dataset(schema=schema, rows=rows, text_columns={"sex": list(values)})


def test_label_encoding_lexicographic():
    ds = _text_ds(["male", "female", "female", "male"])
    state = fit_preprocessor(ds, PreprocessConfig(iqr_columns=[], scale=False))
    assert state.label_maps["sex"] == {"female": 0, "male": 1}
    out = transform(state, ds)
    assert out.rows[:, 0].tolist() == [1.0, 0.0, 0.0, 1.0]


def test_unseen_category_rejected_with_name():
    train = _text_ds(["a", "b", "a"])
    test = _text_ds(["a", "c", "b"])
    state = fit_preprocessor(train, PreprocessConfig(iqr_columns=[], scale=False))
    with pytest.raises(TransformError, match="sex.*'c'"):
        transform(state, test)


def test_missing_text_cell_imputed_by_mode():
    train = _text_ds(["a", "a", "b", None])
    state = fit_preprocessor(train, PreprocessConfig(iqr_columns=[], scale=False))
    out = transform(state, train)
    assert out.rows[3, 0] == 0.0  # mode of codes {0,0,1} is 0


# -- pipeline order and leakage ----------------------------------------------


def test_transform_never_drops_rows(rng):
    train = make_ds(rng.normal(size=(100, 1)))
    test_rows = np.array([[50.0], [0.0], [np.nan]])
    test = make_ds(test_rows)
    state = fit_preprocessor(train, PreprocessConfig())
    out = transform(state, test)
    assert out.n_rows == 3
    assert np.isfinite(out.rows).all()


def test_transform_filtered_drops_train_outliers():
    vals = np.concatenate([np.linspace(0, 1, 40), [500.0]])
    train = make_ds(vals.reshape(-1, 1))
    state = fit_preprocessor(train, PreprocessConfig())
    filtered = transform_filtered(state, train)
    assert filtered.n_rows == 40
    # scale statistics were computed on the filtered rows: mean ~0 sd ~1
    assert abs(float(filtered.rows.mean())) < 1e-9
    assert abs(float(filtered.rows.std()) - 1.0) < 1e-9


def test_fit_statistics_ignore_outliers_for_scaling():
    vals = np.concatenate([np.linspace(0, 1, 40), [500.0]])
    train = make_ds(vals.reshape(-1, 1))
    state = fit_preprocessor(train, PreprocessConfig())
    inlier_mean = float(np.mean(np.linspace(0, 1, 40)))
    assert abs(state.means[0] - inlier_mean) < 1e-12


def test_schema_mismatch_rejected(rng):
    train = make_ds(rng.normal(size=(10, 2)))
    other = make_ds(rng.normal(size=(10, 3)))
    state = fit_preprocessor(train, PreprocessConfig(iqr_columns=[]))
    with pytest.raises(TransformError):
        transform(state, other)


def test_kind_mismatched_schema_rejected(rng):
    # same names, no missing cell: the fitted column kinds decide
    train = make_ds(rng.normal(size=(10, 2)))
    other = make_ds(rng.normal(size=(10, 2)), kinds=["continuous", "binary"])
    state = fit_preprocessor(train, PreprocessConfig(iqr_columns=[]))
    with pytest.raises(TransformError, match="schema"):
        transform(state, other)


def test_transform_filtered_keeps_the_rows_the_quartile_mask_keeps(rng):
    rows = rng.standard_t(2, size=(300, 3))  # heavy tails
    rows[rng.random(rows.shape) < 0.1] = np.nan
    train = make_ds(rows, labels=np.arange(300) % 2)
    cols = ["f0", "f2", "f0"]
    state = fit_preprocessor(train, PreprocessConfig(iqr_columns=cols, scale=False))
    imputed = transform(state, train)  # scale off: encode and fill only
    keep = np.ones(300, dtype=bool)
    for j in (0, 2):
        col = imputed.rows[:, j]
        q1, q3 = np.quantile(col, [0.25, 0.75])
        keep &= (col >= q1 - 1.5 * (q3 - q1)) & (col <= q3 + 1.5 * (q3 - q1))
    want = imputed.take(np.flatnonzero(keep))
    got = transform_filtered(state, train)
    assert 0 < got.n_rows < 300
    assert np.array_equal(got.rows, want.rows) and np.array_equal(got.labels, want.labels)
    scaled = fit_preprocessor(train, PreprocessConfig(iqr_columns=cols))
    assert np.array_equal(transform_filtered(scaled, train).rows, transform(scaled, want).rows)


def test_iqr_disabled_with_empty_list(rng):
    vals = np.concatenate([rng.normal(size=50), [9999.0]])
    train = make_ds(vals.reshape(-1, 1))
    state = fit_preprocessor(train, PreprocessConfig(iqr_columns=[]))
    filtered = transform_filtered(state, train)
    assert filtered.n_rows == 51
