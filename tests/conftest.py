import numpy as np
import pytest

from heartlab.data import (
    ColumnSchema,
    Dataset,
    KIND_BINARY,
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    ROLE_CLASS_LABEL,
    ROLE_FEATURE,
    ROLE_REGRESSION_TARGET,
)
from heartlab.trees import TASK_CLASSIFICATION


def make_ds(rows, labels=None, targets=None, kinds=None, names=None):
    """Build a Dataset around plain arrays with a generated schema."""
    rows = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
    if rows.ndim != 2:
        raise ValueError("rows must be 2d")
    n = rows.shape[1]
    cols = []
    for j in range(n):
        kind = kinds[j] if kinds is not None else KIND_CONTINUOUS
        name = names[j] if names is not None else f"f{j}"
        cols.append(ColumnSchema(name=name, kind=kind, role=ROLE_FEATURE))
    if labels is not None:
        cols.append(ColumnSchema(name="label", kind=KIND_BINARY, role=ROLE_CLASS_LABEL))
        labels = np.asarray(labels, dtype=np.int64)
    if targets is not None:
        cols.append(ColumnSchema(name="score", kind=KIND_CONTINUOUS,
                                 role=ROLE_REGRESSION_TARGET))
        targets = np.asarray(targets, dtype=np.float64)
    return Dataset(schema=list(cols), rows=rows, labels=labels, targets=targets)


def tree_leaf(tree, x) -> int:
    """Node position of the leaf that one row reaches, walking the node
    arrays in Python: x[feature] <= threshold goes left."""
    x = np.asarray(x, dtype=np.float64)
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return int(i)


def tree_predict_row(tree, x):
    """Majority class of one row's leaf (ties to the lower code), or its mean."""
    value = tree.leaf_value[tree_leaf(tree, x)]
    if tree.task == TASK_CLASSIFICATION:
        return int(np.argmax(value))
    return float(value)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def two_blob_ds():
    """Two well-separated Gaussian blobs, 60 rows per class."""
    g = np.random.default_rng(7)
    a = g.normal(loc=(-2.0, -2.0), scale=0.6, size=(60, 2))
    b = g.normal(loc=(2.0, 2.0), scale=0.6, size=(60, 2))
    rows = np.vstack([a, b])
    labels = np.array([0] * 60 + [1] * 60)
    return make_ds(rows, labels=labels)


__all__ = ["make_ds", "tree_leaf", "tree_predict_row", "KIND_CATEGORICAL", "KIND_CONTINUOUS", "KIND_BINARY",
           "ROLE_FEATURE", "ROLE_CLASS_LABEL", "ROLE_REGRESSION_TARGET"]
