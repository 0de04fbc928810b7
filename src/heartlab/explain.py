"""Model-agnostic attributions: exact and sampled Shapley values with an
interventional coalition value, and LIME local linear surrogates.

The coalition value v(S) is the mean model output over a background set
with the explained row's values spliced in on S. One coalition table
computes v for both SHAP modes, from one boolean membership row per
coalition, running the model once on each distinct spliced row, at most
_BLOCK_ROWS rows a call.
Exact mode tables all 2^M subsets; sampled mode averages marginal
contributions over antithetic permutation pairs, tabling each distinct
coalition of their chains once, and distributes the (tiny) efficiency
residual uniformly. Distinct coalitions and spliced rows are found by one
stable sort of their packed membership bits. Models are passed either as a
TrainedModel or as any callable mapping a row matrix to a real vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ExplainError
from .models import TrainedModel, scalar_output


@dataclass(frozen=True)
class ShapConfig:
    background_size: int = 32
    mode: str | None = None      # None: exact up to exact_feature_cap features, else sampled
    n_permutations: int = 2000
    exact_feature_cap: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (None, "exact", "sampled"):
            raise ConfigError(f"shap mode must be exact or sampled, got {self.mode!r}")
        if self.n_permutations < 1:
            raise ConfigError(f"n_permutations must be >= 1, got {self.n_permutations}")
        if self.background_size < 1:
            raise ConfigError(f"background_size must be >= 1, got {self.background_size}")


@dataclass(frozen=True)
class Attribution:
    phi: np.ndarray
    base_value: float
    fx: float
    mode: str
    standard_errors: np.ndarray | None = None


# Most spliced rows per model call in _coalition_table; this bounds its
# buffer to _BLOCK_ROWS * M floats for any M and mode.
_BLOCK_ROWS = 1 << 14


def _as_fn(model):
    if isinstance(model, TrainedModel):
        return scalar_output(model)
    if callable(model):
        return lambda X: np.asarray(model(np.asarray(X, dtype=np.float64)),
                                    dtype=np.float64)
    raise ConfigError("model must be a TrainedModel or a callable")


def sample_background(rows: np.ndarray, size: int = 32, seed: int = 0) -> np.ndarray:
    """Seeded background draw from a training matrix (without replacement
    when possible)."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] == 0:
        raise ConfigError("cannot sample a background from zero rows")
    rng = np.random.default_rng(seed)
    if rows.shape[0] <= size:
        return rows.copy()
    take = np.sort(rng.choice(rows.shape[0], size=size, replace=False))
    return rows[take]


def _inputs(model, x, background):
    """The model as a row-matrix function; x and a non-empty background as floats."""
    background = np.asarray(background, dtype=np.float64)
    if background.ndim != 2 or background.shape[0] == 0:
        raise ConfigError("background must be a non-empty row matrix")
    return _as_fn(model), np.asarray(x, dtype=np.float64), background


def coalition_value(model, x, S, background) -> float:
    """Mean model output over background rows with x's values on S."""
    fn, x, background = _inputs(model, x, background)
    member = np.zeros((1, x.size), dtype=bool)
    member[0, list(S)] = True
    return float(_coalition_table(fn, x, background, member)[0])


def _distinct_rows(packed: np.ndarray) -> tuple:
    """np.unique(bits, axis=0, return_index=True, return_inverse=True)[1:] of
    packed = np.packbits(bits, axis=1), by a stable sort of the packed bytes."""
    order = np.lexsort(packed.T[::-1])
    ranked = packed[order]
    new = np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])
    inverse = np.empty(order.size, np.int32)
    inverse[order] = new.cumsum() - 1
    return order[new], inverse


def _coalition_table(fn, x, background, member: np.ndarray) -> np.ndarray:
    """v(S) for each row S of a (k, M) boolean membership matrix: the mean
    model output over background rows b with x's values spliced in on S.

    That row depends only on S & D_b, D_b being the features whose bits
    differ between x and b, so the model sees each distinct spliced row of
    each b once, from one buffer of at most _BLOCK_ROWS rows a call.
    """
    k, M = member.shape
    bg = background.shape[0]
    out = np.empty((k, bg))
    packed = np.packbits(member, axis=1)
    differs = np.packbits(background.view(np.int64) != x.view(np.int64), axis=1)
    buf = np.empty((min(_BLOCK_ROWS, k * bg), M))
    pieces = []  # (b, inverse of b's distinct rows, the first of them in buf, count)

    def flush(fill):
        res = fn(buf[:fill])
        pos = 0
        for b, inv, i, count in pieces:
            here = (inv >= i) & (inv < i + count)
            out[here, b] = res[inv[here] + (pos - i)]
            pos += count
        pieces.clear()

    fill = 0
    for b in range(bg):
        first, inv = _distinct_rows(packed & differs[b])
        i = 0
        while i < first.size:
            count = min(first.size - i, len(buf) - fill)
            rows = buf[fill:fill + count]
            rows[:] = background[b]
            np.copyto(rows, x, where=member[first[i:i + count]])
            pieces.append((b, inv, i, count))
            i += count
            fill += count
            if fill == len(buf):
                flush(fill)
                fill = 0
    if fill:
        flush(fill)
    return out.mean(axis=1)


def shap_mode(mode: str | None, n_features: int, cap: int) -> str:
    """The mode a SHAP request runs in: a null mode is exact up to cap
    features, else sampled; exact above the cap is refused."""
    if mode is None:
        return "exact" if n_features <= cap else "sampled"
    if mode == "exact" and n_features > cap:
        raise ConfigError(f"{n_features} features exceed the exact cap {cap}; "
                          "use sampled mode or raise exact_feature_cap")
    return mode


def shap_exact(model, x, background, config: ShapConfig = ShapConfig()) -> Attribution:
    """Full 2^M subset enumeration of phi_j = sum_S w(|S|) (v(S+j) - v(S))
    with w(s) = s!(M-1-s)!/M!."""
    fn, x, background = _inputs(model, x, background)
    M = x.size
    shap_mode("exact", M, config.exact_feature_cap)

    masks = np.arange(1 << M, dtype=np.int64)
    member = ((masks[:, None] >> np.arange(M)) & 1).astype(bool)
    v = _coalition_table(fn, x, background, member)

    fact = [math.factorial(i) for i in range(M + 1)]
    wgt = np.array([fact[s] * fact[M - 1 - s] / fact[M] for s in range(M)])
    sizes = member.sum(axis=1)

    phi = np.zeros(M)
    for j in range(M):
        without = masks[~member[:, j]]
        phi[j] = float(np.sum(wgt[sizes[without]] * (v[without | 1 << j] - v[without])))
    return Attribution(phi=phi, base_value=float(v[0]), fx=float(v[-1]), mode="exact")


def shap_sampled(model, x, background, config: ShapConfig = ShapConfig(mode="sampled")) -> Attribution:
    """Antithetic permutation sampling of marginal contributions; the
    efficiency residual is spread uniformly and per-feature standard
    errors are reported."""
    fn, x, background = _inputs(model, x, background)
    M = x.size
    n_perm = config.n_permutations

    perms = []
    pair = 0
    while len(perms) < n_perm:
        rng = np.random.default_rng([config.seed, pair])
        p = rng.permutation(M)
        perms.append(p)
        if len(perms) < n_perm:
            perms.append(p[::-1].copy())
        pair += 1
    perms = np.array(perms)

    # row p * (M + 1) + s of chains: permutation p's first s features (rank[p,
    # j] is the step that adds j); each distinct coalition is evaluated once
    rank = np.argsort(perms, axis=1)
    chains = (rank[:, None, :] < np.arange(M + 1)[:, None]).reshape(-1, M)
    first, inverse = _distinct_rows(np.packbits(chains, axis=1))
    means = _coalition_table(fn, x, background, chains[first])[inverse].reshape(n_perm, M + 1)
    base, fx = float(means[0, 0]), float(means[0, -1])
    samples = np.take_along_axis(np.diff(means, axis=1), rank, axis=1)

    phi = samples.mean(axis=0)
    if n_perm > 1:
        se = samples.std(axis=0, ddof=1) / math.sqrt(n_perm)
    else:
        se = np.zeros(M)
    residual = (fx - base) - float(phi.sum())
    phi = phi + residual / M
    return Attribution(phi=phi, base_value=base, fx=fx, mode="sampled",
                       standard_errors=se)


def shap_values(model, x, background, config: ShapConfig = ShapConfig()) -> Attribution:
    """Runs the mode shap_mode picks."""
    if shap_mode(config.mode, np.size(x), config.exact_feature_cap) == "exact":
        return shap_exact(model, x, background, config)
    return shap_sampled(model, x, background, config)


@dataclass(frozen=True)
class LimeConfig:
    n_samples: int = 5000
    sigma: float | None = None   # kernel width; None = 0.75 * sqrt(M)
    n_features: int = 10         # surrogate size K
    ridge: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 100:
            raise ConfigError(f"lime needs n_samples >= 100, got {self.n_samples}")
        if self.sigma is not None and not 0 < self.sigma < math.inf:
            raise ConfigError(f"kernel width must be finite and positive, got {self.sigma}")
        if self.n_features < 1:
            raise ConfigError(f"n_features must be >= 1, got {self.n_features}")
        if not 0 <= self.ridge < math.inf:
            raise ConfigError(f"ridge must be finite and >= 0, got {self.ridge}")


@dataclass(frozen=True)
class LimeExplanation:
    feature_indices: np.ndarray  # selected features, ranked
    coefficients: np.ndarray     # surrogate weights for those features
    intercept: float
    fidelity_r2: float
    sigma: float
    fx: float


def lime_explain(model, x, config: LimeConfig = LimeConfig()) -> LimeExplanation:
    """Perturb around x with unit Gaussians (standardized feature space),
    weight by exp(-d^2/sigma^2), select the K features with largest
    absolute weighted correlation to the model output, and fit a weighted
    ridge surrogate. Fidelity is the weighted R^2 of the surrogate."""
    fn = _as_fn(model)
    x = np.asarray(x, dtype=np.float64)
    M = x.size
    sigma = config.sigma if config.sigma is not None else 0.75 * math.sqrt(M)

    rng = np.random.default_rng(config.seed)
    Z = x + rng.standard_normal((config.n_samples, M))
    d2 = np.sum((Z - x) ** 2, axis=1)
    # tiny sigma drives d2/sigma^2 to inf; exp then underflows to the zero
    # weights the error check below reports
    with np.errstate(over="ignore", divide="ignore"):
        w = np.exp(-d2 / (sigma * sigma))
    wsum = float(w.sum())
    if not np.isfinite(wsum) or wsum <= 0.0 or float(w.max()) < 1e-300:
        raise ExplainError("all perturbation weights vanished; increase the kernel width")

    y = fn(Z)
    fx = float(fn(x.reshape(1, -1))[0])

    zm = (w @ Z) / wsum
    ym = float(w @ y) / wsum
    Zc = Z - zm
    yc = y - ym
    cov = (w * yc) @ Zc / wsum
    var_z = (w @ (Zc * Zc)) / wsum
    var_y = float(w @ (yc * yc)) / wsum
    denom = np.sqrt(var_z * var_y)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0, cov / denom, 0.0)

    K = min(config.n_features, M)
    selected = np.argsort(-np.abs(corr), kind="stable")[:K]
    selected = np.sort(selected)

    Xs = Zc[:, selected]
    A = (Xs * w[:, None]).T @ Xs + config.ridge * np.eye(K)
    b = (Xs * w[:, None]).T @ yc
    coef = np.linalg.solve(A, b)
    intercept = ym - float(zm[selected] @ coef)

    pred = Xs @ coef + ym
    rss = float(w @ ((y - pred) ** 2))
    tss = float(w @ (yc * yc))
    if tss <= 1e-300:
        fidelity = 1.0
    else:
        fidelity = max(0.0, min(1.0, 1.0 - rss / tss))

    return LimeExplanation(feature_indices=selected, coefficients=coef,
                           intercept=intercept, fidelity_r2=fidelity,
                           sigma=sigma, fx=fx)
