"""Bagged forests and gradient-boosted trees on the CART core.

Forest: each tree t draws its bootstrap resample, then its 64-bit tree key,
from an independent stream seeded with (seed, t), so a tree does not depend
on the trees grown before it. The key fixes the tree's per-split feature
subsets: a node's subset is a function of the key and the node's path from
the root alone (trees.draw_features). Classification predicts by majority
vote (ties to the lower class code) and reports vote fractions as
probabilities; regression averages tree means.

A bootstrap classification tree grows on its draw's distinct rows weighted
by their integer counts, from one presort per forest: every gain, leaf and
node size, and so the tree, equals the draw's. Regression trees grow on the
draw, as a weighted target sum (c*y) rounds unlike y added c times. Without
bootstrap, every tree grows on X itself from one presort per forest. Trees
grow in batches (trees.grow), which change no tree.

GBT: stagewise additive model F_m = F_{m-1} + eta * tree_m. Each round
fits a tree to the gradients g and sets every leaf to the second-order
step sum(g) / (sum(h) + lambda_leaf) over its rows (Chen & Guestrin
2016, eq. 5). Squared loss starts from the target mean, with g = y - F
and h = 1, so lambda_leaf = 0 gives mean-residual leaves; logistic loss
starts from the base-rate log-odds, with g = y - p and h = p(1-p). The
per-round training loss is recorded.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor  # unused; perfbench/tracer.py patches it
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ContractError, FitError
from .linear import check_binary, sigmoid
from .trees import (
    CartConfig,
    FlatTree,
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    by_argmax,
    fit_cart_matrix,
    grow,
    presort,
)

LOSS_SQUARED = "squared"
LOSS_LOGISTIC = "logistic"
LOSS_OF_TASK = {TASK_CLASSIFICATION: LOSS_LOGISTIC, TASK_REGRESSION: LOSS_SQUARED}
_BATCH_ENTRIES = 2 ** 16  # sorted-list entries (features x rows) that close a batch of trees


def default_jobs() -> int:  # read by perfbench/child.py
    """The number of threads heartlab fits in: one."""
    return 1


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    cart: CartConfig = field(default_factory=CartConfig)
    bootstrap: bool = True
    # per-split candidate count: "auto" = ceil(sqrt(M)) classification,
    # ceil(M/3) regression; or an explicit count; or "all"
    feature_subsample: object = "auto"
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.feature_subsample not in ("auto", "all") and (
                type(self.feature_subsample) is not int or self.feature_subsample < 1):
            raise ConfigError("feature_subsample must be 'auto', 'all', or a positive count, "
                              f"got {self.feature_subsample!r}")


@dataclass(frozen=True)
class Forest:
    trees: tuple[FlatTree, ...]
    task: str
    n_classes: int
    config: ForestConfig

    def predict(self, X: np.ndarray) -> np.ndarray:
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)

    def scored(self, X: np.ndarray) -> tuple:
        """Each tree votes its leaf's majority class; vote fractions are probabilities."""
        votes = np.zeros((self.n_classes, X.shape[0]), dtype=np.int64)  # per class, per row
        codes = np.arange(self.n_classes)[:, None]
        for tree in self.trees:
            votes += by_argmax(tree.leaf_value)[0].take(tree.route(X)) == codes
        return by_argmax(np.divide(votes.T, len(self.trees), order="C"))

    def check(self, n_cols: int, task: str, config: ForestConfig) -> None:
        """n_trees `task` trees, each by its own rules, no leaf wider than
        n_classes, fitted with config."""
        for tree in self.trees:
            tree.check(n_cols, task)
        if self.task != task or len(self.trees) != self.config.n_trees or any(
                t.leaf_value.shape[1:] > (self.n_classes,) for t in self.trees):
            raise ContractError(f"forest does not hold {self.config.n_trees} {task} trees "
                                f"with leaves of no more than {self.n_classes} classes")
        if self.config != config:
            raise ContractError(f"forest config {self.config} is not the spec's {config}")


def _resolve_subsample(spec, n_features: int, task: str):
    if spec == "auto":
        if task == TASK_CLASSIFICATION:
            return min(n_features, math.ceil(math.sqrt(n_features)))
        return min(n_features, math.ceil(n_features / 3))
    return spec


def fit_random_forest(X: np.ndarray, y: np.ndarray, config: ForestConfig = ForestConfig(),
                      task: str = TASK_CLASSIFICATION) -> Forest:
    """y holds int labels (classification) or float targets (regression)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, m = X.shape
    n_classes = int(y.max()) + 1 if task == TASK_CLASSIFICATION else 0
    y = np.asarray(y, dtype=np.int64 if n_classes else np.float64)
    sub = _resolve_subsample(config.feature_subsample, m, task)
    cart = replace(config.cart, feature_subsample=sub)
    lists = presort(X) if task == TASK_CLASSIFICATION or not config.bootstrap else None

    def segment(t: int):
        """Tree t's key, rows of X, their sorted lists (ids among them) and weights."""
        rng = np.random.default_rng([config.seed, t])
        take = rng.integers(0, n, size=n) if config.bootstrap else None
        key = int(rng.integers(2 ** 64, dtype=np.uint64))
        if take is None:  # every tree grows on all of X
            return key, np.arange(n), lists, None
        if lists is None:  # a bootstrap regression tree: see the module docstring
            return key, take, presort(X[take]), None
        counts = np.bincount(take, minlength=n)
        drawn = counts > 0
        local = np.cumsum(drawn, dtype=np.int32) - 1  # row id -> its id among the drawn rows
        rows = local.take(lists.ravel().compress(drawn.take(lists).ravel()))
        return key, np.flatnonzero(drawn), rows.reshape(m, -1), counts[drawn]

    def joined(batch):
        """A batch of segments as grow takes them, emptying the batch."""
        keys, rows, seg_lists, w = zip(*batch)
        batch.clear()
        at = np.cumsum([0] + [r.size for r in rows]).tolist()  # each segment's first row
        rows = np.concatenate(rows)
        return (X[rows], y[rows], np.concatenate([a + i for a, i in zip(seg_lists, at)], axis=1),
                keys, np.diff(at), None if w[0] is None else np.concatenate(w))

    trees, batch = [], []
    for t in range(config.n_trees):  # in batches, each closed once it holds _BATCH_ENTRIES
        batch.append(segment(t))
        if t == config.n_trees - 1 or sum(b[2].size for b in batch) >= _BATCH_ENTRIES:
            trees += [FlatTree(*arrays, task=task)
                      for arrays, _ in grow(*joined(batch), cart, task, n_classes)]
    return Forest(trees=tuple(trees), task=task, n_classes=n_classes, config=config)


@dataclass(frozen=True)
class GbtConfig:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    loss: str = LOSS_SQUARED
    lambda_leaf: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.learning_rate <= 1.0):
            raise ConfigError(f"learning_rate must be in (0,1], got {self.learning_rate}")
        if self.n_rounds < 1:
            raise ConfigError(f"n_rounds must be >= 1, got {self.n_rounds}")
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.loss not in (LOSS_SQUARED, LOSS_LOGISTIC):
            raise ConfigError(f"loss must be squared or logistic, got {self.loss!r}")
        if not 0 <= self.lambda_leaf < math.inf:
            raise ConfigError(f"lambda_leaf must be finite and >= 0, got {self.lambda_leaf}")


@dataclass(frozen=True)
class GbtModel:
    base_score: float
    trees: tuple[FlatTree, ...]
    config: GbtConfig
    train_losses: tuple[float, ...]  # length n_rounds + 1, loss before any round first

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The raw score: base plus the shrunk tree outputs."""
        out = np.full(X.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += self.config.learning_rate * tree.predict(X)
        return out

    def scored(self, X: np.ndarray) -> tuple:
        p = sigmoid(self.predict(X))
        return by_argmax(np.column_stack([1.0 - p, p]))

    def check(self, n_cols: int, task: str, config: GbtConfig) -> None:
        """n_rounds regression trees, each by its own rules, one loss more,
        the loss of `task`, fitted with config."""
        for tree in self.trees:
            tree.check(n_cols, TASK_REGRESSION)
        want = (self.config.n_rounds, self.config.n_rounds + 1, LOSS_OF_TASK[task])
        if (len(self.trees), len(self.train_losses), self.config.loss) != want:
            raise ContractError(f"gbt needs {want[0]} trees, {want[1]} losses and loss {want[2]!r}")
        if self.config != config:
            raise ContractError(f"gbt config {self.config} is not the spec's {config}")


def _squared_loss(y, raw) -> float:
    d = y - raw
    return float(np.mean(d * d))


def _log_loss(y, raw) -> float:
    # mean(softplus(raw) - y*raw), algebraically -mean(y log p + (1-y) log(1-p))
    return float(np.mean(np.logaddexp(0.0, raw) - y * raw))


def fit_gbt(X: np.ndarray, y: np.ndarray, config: GbtConfig = GbtConfig()) -> GbtModel:
    """y holds 0/1 labels (logistic loss) or float targets (squared loss)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cart = CartConfig(max_depth=config.max_depth, seed=config.seed)

    base, loss_fn = float(y.mean()), _squared_loss  # the target mean, or the base rate
    if config.loss == LOSS_LOGISTIC:
        check_binary(y, "logistic gbt")
        base, loss_fn = math.log(base / (1.0 - base)), _log_loss

    raw = np.full(X.shape[0], base, dtype=np.float64)
    losses = [loss_fn(y, raw)]
    sorted_rows = presort(X)  # every round splits the same X
    trees = []
    for m in range(config.n_rounds):
        p = sigmoid(raw) if config.loss == LOSS_LOGISTIC else None
        g = y - (raw if p is None else p)
        flat, ids = fit_cart_matrix(X, g, cart, TASK_REGRESSION, sorted_rows=sorted_rows,
                                    leaves=True)
        k = flat.leaf_value.shape[0]  # h is p(1 - p), or 1 per row for squared loss
        h = np.bincount(ids, None if p is None else p * (1.0 - p), k) + config.lambda_leaf
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.divide(np.bincount(ids, g, k), h, out=np.zeros(k),
                             where=flat.feature < 0)  # no row reaches an inner node
        if not np.isfinite(step).all():  # p(1 - p) is 0 on every row of a leaf
            raise FitError(f"gbt round {m + 1}: a Newton leaf step is not finite "
                           f"at lambda_leaf {config.lambda_leaf}")
        trees.append(replace(flat, leaf_value=step))
        raw = raw + config.learning_rate * step[ids]
        losses.append(loss_fn(y, raw))

    return GbtModel(base_score=base, trees=tuple(trees), config=config,
                    train_losses=tuple(losses))

