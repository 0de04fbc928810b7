import numpy as np
import pytest

from heartlab.data import (
    ColumnSchema,
    FixtureSpec,
    HEART16,
    SplitSpec,
    load_csv,
    make_fixture,
    planted_coefficients,
    train_test_split,
    validate_schema,
    write_csv,
    _round_half_up,
)
from heartlab.errors import ConfigError, ParseError, SchemaError

from conftest import make_ds


# -- schema ------------------------------------------------------------------


def test_schema_rejects_duplicate_names():
    cols = [ColumnSchema("a", "continuous"), ColumnSchema("a", "continuous")]
    with pytest.raises(SchemaError):
        validate_schema(cols)


def test_schema_rejects_two_labels():
    cols = [
        ColumnSchema("a", "continuous"),
        ColumnSchema("y1", "binary", "class-label"),
        ColumnSchema("y2", "binary", "class-label"),
    ]
    with pytest.raises(SchemaError):
        validate_schema(cols)


def test_schema_rejects_unknown_kind_and_role():
    with pytest.raises(SchemaError):
        ColumnSchema("a", "floatish")
    with pytest.raises(SchemaError):
        ColumnSchema("a", "continuous", "outcome")


def test_heart16_shape():
    assert len(HEART16) == 16
    names = [c.name for c in HEART16]
    assert "target" in names
    assert "Heart Disease Risk Score" in names
    feats = [c for c in HEART16 if c.role == "feature"]
    assert len(feats) == 14


# -- csv loading -------------------------------------------------------------


def _write(tmp_path, text):
    p = tmp_path / "d.csv"
    p.write_text(text)
    return str(p)


SMALL_SCHEMA = [
    ColumnSchema("age", "continuous"),
    ColumnSchema("sex", "binary"),
    ColumnSchema("target", "binary", "class-label"),
]


def test_load_csv_round_trip(tmp_path):
    ds = make_ds([[1.25, 0.0], [2.0, 1.0]], labels=[0, 1],
                 names=["age", "sex"], kinds=["continuous", "binary"])
    path = str(tmp_path / "rt.csv")
    write_csv(ds, path)
    back = load_csv(path, ds.schema)
    assert np.array_equal(back.rows, ds.rows)
    assert np.array_equal(back.labels, ds.labels)


def test_load_csv_header_any_order(tmp_path):
    p = _write(tmp_path, "target,sex,age\n1,0,63\n0,1,41\n")
    ds = load_csv(p, SMALL_SCHEMA)
    assert ds.rows[0].tolist() == [63.0, 0.0]
    assert ds.labels.tolist() == [1, 0]


def test_load_csv_missing_column(tmp_path):
    p = _write(tmp_path, "age,target\n63,1\n")
    with pytest.raises(SchemaError, match="missing column: sex"):
        load_csv(p, SMALL_SCHEMA)


def test_load_csv_unexpected_column(tmp_path):
    p = _write(tmp_path, "age,sex,target,extra\n63,0,1,9\n")
    with pytest.raises(SchemaError, match="unexpected column"):
        load_csv(p, SMALL_SCHEMA)


def test_load_csv_duplicated_column_names_it(tmp_path):
    # the second age column used to be dropped without a word
    p = _write(tmp_path, "age,sex,target,age\n63,0,1,999\n")
    with pytest.raises(SchemaError, match="duplicate column: age"):
        load_csv(p, SMALL_SCHEMA)


def test_load_csv_ragged_row(tmp_path):
    p = _write(tmp_path, "age,sex,target\n63,0,1\n41,1\n")
    with pytest.raises(ParseError):
        load_csv(p, SMALL_SCHEMA)


def test_load_csv_empty_cell_becomes_nan(tmp_path):
    p = _write(tmp_path, "age,sex,target\n,0,1\n41,1,0\n")
    ds = load_csv(p, SMALL_SCHEMA)
    assert np.isnan(ds.rows[0, 0])
    assert ds.rows[1, 0] == 41.0


def test_load_csv_bad_continuous_cell_names_row_and_column(tmp_path):
    p = _write(tmp_path, "age,sex,target\nsixty,0,1\n")
    with pytest.raises(ParseError, match="age"):
        load_csv(p, SMALL_SCHEMA)


def test_load_csv_text_categorical_column(tmp_path):
    schema = [
        ColumnSchema("age", "continuous"),
        ColumnSchema("sex", "binary"),
        ColumnSchema("target", "binary", "class-label"),
    ]
    p = _write(tmp_path, "age,sex,target\n63,male,1\n41,female,0\n")
    ds = load_csv(p, schema)
    assert "sex" in ds.text_columns
    assert ds.text_columns["sex"] == ["male", "female"]
    assert np.isnan(ds.rows[:, 1]).all()


def test_load_csv_bad_label(tmp_path):
    p = _write(tmp_path, "age,sex,target\n63,0,-1\n")
    with pytest.raises(ParseError):
        load_csv(p, SMALL_SCHEMA)
    p = _write(tmp_path, "age,sex,target\n63,0,\n")
    with pytest.raises(ParseError):
        load_csv(p, SMALL_SCHEMA)


# -- splitting ---------------------------------------------------------------


def test_round_half_up():
    assert _round_half_up(0.5) == 1
    assert _round_half_up(1.5) == 2
    assert _round_half_up(2.4999) == 2
    assert _round_half_up(-0.5) == 0


def _stratified_oracle(labels, fraction):
    """Largest-remainder allocation, ties to the lower class code."""
    codes, counts = np.unique(labels, return_counts=True)
    exact = fraction * counts
    floors = np.floor(exact).astype(int)
    short = int(_round_half_up(fraction * labels.size)) - floors.sum()
    fracs = exact - floors
    order = sorted(range(codes.size), key=lambda i: (-fracs[i], codes[i]))
    take = floors.copy()
    for i in order[:short]:
        take[i] += 1
    return {int(c): int(t) for c, t in zip(codes, take)}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("fraction", [0.5, 0.8, 0.73])
def test_stratified_split_class_counts_match_oracle(seed, fraction):
    g = np.random.default_rng(seed)
    n = 157
    labels = (g.random(n) < 0.37).astype(np.int64)
    ds = make_ds(g.normal(size=(n, 3)), labels=labels)
    tr, te = train_test_split(ds, SplitSpec(train_fraction=fraction, seed=seed))
    want = _stratified_oracle(labels, fraction)
    got = tr.class_counts()
    assert got == want
    assert tr.n_rows + te.n_rows == n


def test_split_disjoint_and_covering(rng):
    n = 90
    rows = rng.normal(size=(n, 2))
    rows[:, 0] = np.arange(n)  # unique key column
    ds = make_ds(rows, labels=(np.arange(n) % 2))
    tr, te = train_test_split(ds, SplitSpec(seed=3))
    seen = np.concatenate([tr.rows[:, 0], te.rows[:, 0]])
    assert sorted(seen.tolist()) == list(range(n))


def test_split_deterministic(rng):
    ds = make_ds(rng.normal(size=(50, 2)), labels=(np.arange(50) % 2))
    a1, b1 = train_test_split(ds, SplitSpec(seed=9))
    a2, b2 = train_test_split(ds, SplitSpec(seed=9))
    assert np.array_equal(a1.rows, a2.rows)
    assert np.array_equal(b1.rows, b2.rows)
    a3, _ = train_test_split(ds, SplitSpec(seed=10))
    assert not np.array_equal(a1.rows, a3.rows)


def test_split_rows_keep_original_order(rng):
    ds = make_ds(np.arange(40, dtype=float).reshape(40, 1),
                 labels=(np.arange(40) % 2))
    tr, te = train_test_split(ds, SplitSpec(seed=0))
    assert np.all(np.diff(tr.rows[:, 0]) > 0)
    assert np.all(np.diff(te.rows[:, 0]) > 0)


def test_split_bad_fraction(rng):
    ds = make_ds(rng.normal(size=(10, 2)), labels=(np.arange(10) % 2))
    # 0.02 and 0.97 of 10 rows round to an empty train or test partition
    for f in (0.0, 1.0, -0.2, 1.7, 0.02, 0.97):
        with pytest.raises(ConfigError):
            train_test_split(ds, SplitSpec(train_fraction=f))


def test_stratified_split_needs_labels(rng):
    ds = make_ds(rng.normal(size=(10, 2)), targets=np.ones(10))
    with pytest.raises(ConfigError):
        train_test_split(ds, SplitSpec(stratified=True))


def test_split_tiny_class_rejected(rng):
    ds = make_ds(rng.normal(size=(5, 2)), labels=[0, 0, 0, 0, 1])
    with pytest.raises(ConfigError):
        train_test_split(ds, SplitSpec(train_fraction=0.8))


# -- fixture -----------------------------------------------------------------


def test_fixture_shape_and_determinism():
    a = make_fixture(200, FixtureSpec(), seed=5)
    b = make_fixture(200, FixtureSpec(), seed=5)
    c = make_fixture(200, FixtureSpec(), seed=6)
    assert a.n_rows == 200
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.targets, b.targets)
    assert not np.array_equal(a.rows, c.rows)
    assert set(np.unique(a.labels)) <= {0, 1}
    assert a.rows.shape[1] == 14


def test_fixture_noiseless_target_is_exactly_linear():
    # with sigma=0 an OLS fit on the raw features recovers the planted
    # coefficients to machine precision
    ds = make_fixture(400, FixtureSpec(noise_sigma=0.0), seed=2)
    w, b = planted_coefficients()
    pred = ds.rows @ w + b
    assert np.max(np.abs(pred - ds.targets)) < 1e-9


def test_fixture_noise_floor_matches_analytic_r2():
    # oracle first: with noise sigma, the best attainable R2 is
    # 1 - sigma^2 / var(y). The planted-model predictions must land there.
    sigma = 0.3
    ds = make_fixture(20000, FixtureSpec(noise_sigma=sigma), seed=11)
    w, b = planted_coefficients()
    pred = ds.rows @ w + b
    resid = ds.targets - pred
    var_y = float(np.var(ds.targets))
    r2 = 1.0 - float(np.mean(resid**2)) / var_y
    analytic = 1.0 - sigma**2 / var_y
    assert abs(r2 - analytic) < 0.01
    # noise actually has the configured scale
    assert abs(float(np.std(resid)) - sigma) < 0.01


def test_fixture_classes_not_degenerate():
    ds = make_fixture(1000, FixtureSpec(), seed=3)
    counts = ds.class_counts()
    assert min(counts.values()) > 200
