"""Property tests of the two parsers that read user files: parse_config
on JSON-shaped documents, and load_csv on mutated fixture CSVs. Each
may refuse its input only with its documented error types (exit 2 at the
CLI), never with another exception."""

import copy
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartlab.data import (
    ROLE_CLASS_LABEL,
    ROLE_FEATURE,
    ROLE_REGRESSION_TARGET,
    SCHEMAS,
    load_csv,
    make_fixture,
    write_csv,
)
from heartlab.errors import ConfigError, ModelSpecError, ParseError, SchemaError
from heartlab.explain import LimeConfig
from heartlab.linear import PenaltyConfig
from heartlab.preprocess import PreprocessConfig
from heartlab.runner import parse_config

# -- parse_config --------------------------------------------------------------

_scalars = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
            | st.text(max_size=4))
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6)
# a JSON array of [key, value] pairs, which dict() would turn into an object
_pairs = st.lists(st.lists(st.text(max_size=3) | st.integers(0, 3), min_size=2, max_size=2),
                  min_size=1, max_size=3)
_non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_edge = st.sampled_from([0, -1, 1, 2.5, 1e300, "3", "false", "", [], {}, True]) | _non_finite
_values = _edge | _json | _pairs


def _base_doc():
    return {"dataset": {"fixture": {"n": 40, "seed": 1}},
            "models": [{"name": "rf", "family": "random_forest", "task": "classification",
                        "hyperparams": {"n_trees": 3}},
                       {"name": "knn", "family": "knn", "task": "classification",
                        "hyperparams": {"k": 3}},
                       {"name": "ols", "family": "ols", "task": "regression"}],
            "output_dir": "out", "seed": 1, "smote": {"mode": "balance"},
            "split": {"train_fraction": 0.7}, "preprocess": {"iqr_factor": 1.5},
            "explain": [{"model": "rf", "method": "shap", "rows": [0], "background_size": 4},
                        {"model": "ols", "method": "lime", "n_samples": 200}]}


# key paths into _base_doc; the last key is set, so it may be new
_PATHS = [
    (), ("seed",), ("output_dir",), ("metrics",), ("dataset",), ("dataset", "fixture"),
    ("dataset", "fixture", "n"), ("dataset", "fixture", "noise_sigma"), ("dataset", "path"),
    ("dataset", "schema"), ("split",), ("split", "train_fraction"), ("split", "stratified"),
    ("preprocess",), ("preprocess", "iqr_factor"), ("preprocess", "scale"), ("smote",),
    ("smote", "k"), ("smote", "mode"), ("models",), ("models", 0), ("models", 0, "name"),
    ("models", 0, "family"), ("models", 0, "task"), ("models", 0, "seed"),
    ("models", 0, "hyperparams"), ("models", 0, "hyperparams", "n_trees"),
    ("models", 0, "hyperparams", "feature_subsample"), ("models", 0, "hyperparams", "bootstrap"),
    ("models", 1, "hyperparams", "k"), ("models", 1, "hyperparams", "weighting"),
    ("models", 2, "hyperparams"), ("explain",), ("explain", 0), ("explain", 0, "model"),
    ("explain", 0, "method"), ("explain", 0, "rows"), ("explain", 0, "track"),
    ("explain", 0, "mode"), ("explain", 0, "background_size"), ("explain", 1, "sigma"),
    ("explain", 1, "n_features"),
]


def _parses_or_refuses(doc):
    try:
        parse_config(doc)
    except (ConfigError, ModelSpecError):
        pass


@settings(max_examples=150, deadline=None)
@given(doc=_values | st.dictionaries(st.sampled_from(sorted(_base_doc())), _values))
def test_parse_config_on_random_documents(doc):
    _parses_or_refuses(doc)


@settings(max_examples=600, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(_PATHS), _values), min_size=1, max_size=3))
def test_parse_config_on_edited_documents(edits):
    doc = _base_doc()
    for path, value in edits:
        if not path:
            doc = value
            continue
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed the path
    _parses_or_refuses(doc)


# every float-valued key of _base_doc's sections and of some model families,
# with the text the refusal must name
_FLOAT_KEYS = [
    (("dataset", "fixture", "noise_sigma"), "dataset.fixture.noise_sigma"),
    (("dataset", "fixture", "logistic_steepness"), "dataset.fixture.logistic_steepness"),
    (("split", "train_fraction"), "split.train_fraction"),
    (("preprocess", "iqr_factor"), "preprocess.iqr_factor"),
    (("explain", 1, "sigma"), "explain[1].sigma"),
    (("explain", 1, "ridge"), "explain[1].ridge"),
    (("models", 2, "hyperparams", "lam"), "'lam'"),
    (("models", 2, "hyperparams", "tol"), "'tol'"),
    (("models", 2, "hyperparams", "lam_svm"), "'lam_svm'"),
    (("models", 2, "hyperparams", "eps"), "'eps'"),
    (("models", 2, "hyperparams", "learning_rate"), "'learning_rate'"),
    (("models", 2, "hyperparams", "lambda_leaf"), "'lambda_leaf'"),
]
_FLOAT_FAMILIES = {"lam": ("lasso", "regression"), "tol": ("lasso", "regression"),
                   "lam_svm": ("linear_svr", "regression"), "eps": ("linear_svr", "regression"),
                   "learning_rate": ("gbt", "classification"),
                   "lambda_leaf": ("gbt", "classification")}


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(_FLOAT_KEYS), value=_non_finite)
def test_parse_config_refuses_non_finite_floats(key, value):
    path, names = key
    doc = _base_doc()
    if path[0] == "models":
        family, task = _FLOAT_FAMILIES[path[-1]]
        doc["models"][2] = {"name": "ols", "family": family, "task": task}
        doc["models"][2]["hyperparams"] = {path[-1]: value}
    else:
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        parent[path[-1]] = value
    with pytest.raises((ConfigError, ModelSpecError), match=re.escape(names)):
        parse_config(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("build", [
    lambda v: PreprocessConfig(iqr_factor=v), lambda v: PenaltyConfig(lam=v),
    lambda v: PenaltyConfig(tol=v), lambda v: PenaltyConfig(eps=v),
    lambda v: PenaltyConfig(lam_svm=v), lambda v: PenaltyConfig(ridge=v),
    lambda v: LimeConfig(sigma=v),
], ids=["iqr_factor", "lam", "tol", "eps", "lam_svm", "ridge", "lime-sigma"])
def test_config_dataclasses_refuse_non_finite_floats(build, value):
    """Built in Python, without parse_config, a range check still refuses."""
    with pytest.raises(ConfigError, match="finite"):
        build(value)


def test_parse_config_refuses_a_list_of_pairs_as_an_object():
    doc = _base_doc()
    doc["models"][0] = [["family", "cart"], ["task", "classification"]]
    with pytest.raises(ConfigError, match=r"models\[0\] must be dict"):
        parse_config(doc)
    doc = _base_doc()
    doc["split"] = [[1, 2], ["a", 3]]    # mixed key types could not even be sorted
    with pytest.raises(ConfigError, match="split must be dict"):
        parse_config(doc)


# -- load_csv ------------------------------------------------------------------

_cells = st.sampled_from(["", "inf", "-inf", "nan", "1e20", "-1", "2.5", "1e400", "x", '"',
                          " 3 ", "0x1", "1_0", "\x00", "\r"]) | st.text(max_size=5)


# heart16 column positions by role, in the column order write_csv uses
_ROLE_COLUMNS = [[j for j, col in enumerate(SCHEMAS["heart16"]) if col.role == role]
                 for role in (ROLE_FEATURE, ROLE_CLASS_LABEL, ROLE_REGRESSION_TARGET)]


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "fixture.csv"
    write_csv(make_fixture(8, seed=3), path)
    return path


@st.composite
def _mutations(draw, text):
    lines = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["cell"] * 6 + ["header", "drop_cell", "add_cell",
                                                  "drop_line", "copy_line"]))
        # a data row, except for "header"; a column of a role drawn first, as
        # the class label and the target have parse rules of their own
        i = 0 if op == "header" else draw(st.sampled_from(range(1, len(lines))))
        j = min(draw(st.sampled_from(draw(st.sampled_from(_ROLE_COLUMNS)))),
                max(0, len(lines[i]) - 1))
        if op in ("cell", "header") and lines[i]:
            lines[i][j] = draw(_cells)
        elif op == "drop_cell" and lines[i]:
            del lines[i][j]
        elif op == "add_cell":
            lines[i].insert(j, draw(_cells))
        elif op == "drop_line" and len(lines) > 2:
            del lines[i]
        elif op == "copy_line":
            lines.insert(i, list(lines[i]))
    data = "\n".join(",".join(cells) for cells in lines).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_csv_on_mutated_fixtures(fixture_csv, data):
    path = fixture_csv.with_name("mutated.csv")
    path.write_bytes(data.draw(_mutations(fixture_csv.read_text())))
    try:
        load_csv(path, SCHEMAS["heart16"])
    except (ParseError, SchemaError):
        pass


@pytest.mark.parametrize("label", ["inf", "-inf", "nan", "1e20", "1e400"])
def test_load_csv_refuses_a_label_outside_int64(fixture_csv, label):
    lines = fixture_csv.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = label                    # target, the class label, is the last column
    path = fixture_csv.with_name("label.csv")
    path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]))
    with pytest.raises(ParseError, match="row 0, column 'target'"):
        load_csv(path, SCHEMAS["heart16"])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("column", ["chol", "cp", "Heart Disease Risk Score"])
def test_load_csv_refuses_a_non_finite_cell(fixture_csv, column, value):
    # float() reads each of these; a continuous feature, a categorical one
    # and the regression target must all refuse them rather than load NaN or inf
    lines = fixture_csv.read_text().splitlines()
    cells = lines[1].split(",")
    cells[lines[0].split(",").index(column)] = value
    path = fixture_csv.with_name("non_finite.csv")
    path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]))
    with pytest.raises(ParseError, match=f"row 0, column '{column}'"):
        load_csv(path, SCHEMAS["heart16"])
