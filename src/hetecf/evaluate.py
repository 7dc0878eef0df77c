"""Hold-out evaluation: splits, error metrics, baselines, experiment grid.

The protocol is a random hold-out per trial (not cross-validation): the
observed entries are partitioned uniformly at random into a training
fraction and a test remainder, the model is fit on the training part,
and MAE / RMSE are measured on the held-out part.  Every method in a
trial sees the same split.
"""

import csv
import io
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import RatingMatrix
from .model import Hyperparams, LaplacianSet, require_integer
from . import learner

log = logging.getLogger(__name__)

METHODS = ("user_mean", "item_mean", "nmf", "hete_cf")
# NMF stops once an update lowers its loss by at most this share of it.
NMF_TOL = 1e-6


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    trials: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must lie in (0, 1)")
        require_integer(self.trials, "trials", 1)
        require_integer(self.seed, "seed", 0)


def split(ratings, spec, trial):
    """Random hold-out partition of the observed entries for one trial.

    Returns (train, test) RatingMatrix pair over the same (n, m) shape.
    The train side gets round(fraction * observed) entries, clamped so
    both sides stay nonempty.
    """
    nnz = ratings.nnz
    if nnz < 2:
        raise ValueError(f"need at least 2 observed entries to split, got {nnz}")
    rng = np.random.default_rng([spec.seed, int(trial), 0x5EED])
    n_train = int(np.floor(spec.train_fraction * nnz + 0.5))
    n_train = min(max(n_train, 1), nnz - 1)
    perm = rng.permutation(nnz)
    mask = np.zeros(nnz, dtype=bool)
    mask[perm[:n_train]] = True
    return ratings.subset(mask), ratings.subset(~mask)


def _checked_pair(predicted, actual):
    """Both as float64 arrays of one shape, which must be nonempty."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise ValueError(f"shape mismatch {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise ValueError("empty prediction list")
    return predicted, actual


def mae(predicted, actual):
    predicted, actual = _checked_pair(predicted, actual)
    return float(np.mean(np.abs(predicted - actual)))


def rmse(predicted, actual):
    predicted, actual = _checked_pair(predicted, actual)
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))


class MeanPredictor:
    """Predicts each user's (``axis="user"``) or each item's (``axis="item"``)
    training-mean rating; unseen ones fall back to the global mean, and an
    empty training set to 0.5."""

    def __init__(self, train, axis):
        if axis not in ("user", "item"):
            raise ValueError(f"unknown axis {axis!r}; known: user, item")
        self.axis = axis
        keys, size = (train.rows, train.n) if axis == "user" else (train.cols, train.m)
        self.global_mean = float(train.vals.mean()) if train.nnz else 0.5
        sums = np.bincount(keys, weights=train.vals, minlength=size)
        counts = np.bincount(keys, minlength=size)
        self.means = np.full(size, self.global_mean)
        seen = counts > 0
        self.means[seen] = sums[seen] / counts[seen]

    def predict(self, users, items):
        keys = users if self.axis == "user" else items
        return self.means[np.asarray(keys, dtype=np.int64)]


class NMFPredictor:
    """Nonnegative MF fit to the observed entries by multiplicative updates
    (missing entries carry zero weight); predictions are clipped to [0, 1]."""

    def __init__(self, train, d, max_iter=500, seed=0):
        import scipy.sparse as sp

        rng = np.random.default_rng(seed)
        n, m = train.n, train.m
        mean = float(train.vals.mean()) if train.nnz else 0.5
        scale = np.sqrt(max(mean, 1e-6) / d)
        L = rng.uniform(0.1, 1.0, size=(n, d)) * scale
        F = rng.uniform(0.1, 1.0, size=(m, d)) * scale
        X = train.to_csr()
        rows, cols, vals = train.rows, train.cols, train.vals
        eps = 1e-12
        best = (np.inf, L, F)
        prev = np.inf
        for _ in range(max_iter):
            pred = np.einsum("ij,ij->i", L[rows], F[cols])
            P = sp.csr_array((pred, (rows, cols)), shape=(n, m))
            L = L * ((X @ F) / (P @ F + eps))
            pred = np.einsum("ij,ij->i", L[rows], F[cols])
            P = sp.csr_array((pred, (rows, cols)), shape=(n, m))
            F = F * ((X.T @ L) / (P.T @ L + eps))
            pred = np.einsum("ij,ij->i", L[rows], F[cols])
            loss = float(np.sum((pred - vals) ** 2))
            if loss < best[0]:
                best = (loss, L.copy(), F.copy())
            if np.isfinite(prev) and abs(prev - loss) <= NMF_TOL * max(prev, 1.0):
                break
            prev = loss
        if best[0] < loss:
            log.warning(
                "multiplicative updates did not converge monotonically; "
                "returning best iterate (loss %.4g < final %.4g)", best[0], loss
            )
        _, self.L, self.F = best

    def predict(self, users, items):
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        raw = np.einsum("ij,ij->i", self.L[users], self.F[items])
        return np.clip(raw, 0.0, 1.0)


class HeteCFPredictor:
    """Wraps the factor model trained on ``train``."""

    def __init__(self, train, rels, hp):
        self.model = learner.train(train, rels, hp).model

    def predict(self, users, items):
        return self.model.predict_pairs(users, items)


def fit_method(method, train, rels, hp, trial_seed):
    if method == "user_mean":
        return MeanPredictor(train, "user")
    if method == "item_mean":
        return MeanPredictor(train, "item")
    if method == "nmf":
        return NMFPredictor(train, hp.d, seed=trial_seed)
    if method == "hete_cf":
        return HeteCFPredictor(train, rels, hp.with_overrides(seed=trial_seed))
    raise ValueError(f"unknown method {method!r}; known: {', '.join(METHODS)}")


@dataclass
class ReportCell:
    method: str
    fraction: float
    d: int
    metric: str
    mean: float
    sd: float
    values: list


@dataclass
class MetricReport:
    cells: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def cell(self, method, fraction, d, metric):
        for c in self.cells:
            if (c.method, c.fraction, c.d, c.metric) == (method, fraction, d, metric):
                return c
        raise KeyError((method, fraction, d, metric))

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["method", "fraction", "d", "metric", "mean", "sd"])
        for c in self.cells:
            writer.writerow(
                [c.method, repr(c.fraction), c.d, c.metric, repr(c.mean), repr(c.sd)]
            )
        return buf.getvalue()

    def format_table(self):
        lines = []
        header = f"{'method':<12} {'fraction':>8} {'d':>4} {'MAE':>18} {'RMSE':>18}"
        lines.append(header)
        lines.append("-" * len(header))
        for method, fraction, d in dict.fromkeys((c.method, c.fraction, c.d) for c in self.cells):
            try:
                a = self.cell(method, fraction, d, "MAE")
                r = self.cell(method, fraction, d, "RMSE")
            except KeyError:
                continue
            lines.append(
                f"{method:<12} {fraction:>8.2f} {d:>4} "
                f"{a.mean:>10.4f} ± {a.sd:<6.4f} {r.mean:>10.4f} ± {r.sd:<6.4f}"
            )
        for method, fraction, d, trial, err in self.failures:
            lines.append(
                f"FAILED {method} fraction={fraction} d={d} trial={trial}: {err}"
            )
        return "\n".join(lines)


def run_experiment(
    ratings,
    rels,
    methods=METHODS,
    fractions=(0.4, 0.6),
    d_values=(5, 10),
    trials=10,
    seed=0,
    hp=None,
):
    """Full protocol grid: methods x fractions x d x {MAE, RMSE}.

    A failing (method, fraction, d, trial) cell is recorded in
    ``report.failures`` and skipped in the aggregates; other methods
    are unaffected.  Every hete_cf fit shares the Laplacians ``rels``
    carries; a set without them has them built once, before the grid.  If
    that fails, one warning is logged and every hete_cf cell is recorded
    as failed with its message.
    """
    hp = hp or Hyperparams()
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; known: {', '.join(METHODS)}")
    laps_error = None
    if "hete_cf" in methods and fractions and d_values:
        try:
            rels = replace(rels, laps=LaplacianSet.from_relation_set(rels))
        except Exception as exc:  # noqa: BLE001 - recorded per hete_cf cell
            log.warning("hete_cf failed: no Laplacians for its relation set: %s", exc)
            laps_error = str(exc)
    report = MetricReport()
    for fraction in fractions:
        spec = SplitSpec(train_fraction=fraction, trials=trials, seed=seed)
        splits = [split(ratings, spec, t) for t in range(trials)]
        for d in d_values:
            hp_d = hp.with_overrides(d=int(d))
            for method in methods:
                scores = {"MAE": [], "RMSE": []}
                for trial, (train, test) in enumerate(splits):
                    if method == "hete_cf" and laps_error is not None:
                        report.failures.append((method, fraction, d, trial, laps_error))
                        continue
                    try:
                        predictor = fit_method(
                            method, train, rels, hp_d, trial_seed=hp_d.seed + trial)
                        pred = predictor.predict(test.rows, test.cols)
                        scores["MAE"].append(mae(pred, test.vals))
                        scores["RMSE"].append(rmse(pred, test.vals))
                    except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                        log.warning(
                            "%s failed at fraction=%s d=%s trial=%s: %s",
                            method, fraction, d, trial, exc,
                        )
                        report.failures.append((method, fraction, d, trial, str(exc)))
                for metric, values in scores.items():
                    arr = np.asarray(values)
                    report.cells.append(
                        ReportCell(
                            method=method,
                            fraction=fraction,
                            d=int(d),
                            metric=metric,
                            mean=float(arr.mean()) if arr.size else float("nan"),
                            sd=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                            values=list(values),
                        )
                    )
    return report


def report_weights(weights, groups):
    """Learned path weights normalized per group to [0, 1] by the group max.

    Returns rows of (group, path string, normalized weight); an all-zero
    group normalizes to all zeros.
    """
    rows = []
    for group, paths, values in (
        ("UU", groups.user_user, weights.alpha),
        ("II", groups.item_item, weights.beta),
        ("UI", groups.user_item, weights.w),
    ):
        if len(paths) != len(values):
            raise ValueError(
                f"{group} has {len(paths)} paths but {len(values)} weights"
            )
        top = float(values.max()) if len(values) else 0.0
        for path, value in zip(paths, values):
            norm = float(value) / top if top > 0 else 0.0
            rows.append((group, path.to_string(), norm))
    return rows


def weights_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["group", "path", "weight"])
    for group, path, value in rows:
        writer.writerow([group, path, repr(value)])
    return buf.getvalue()
