"""Logistic-bounded matrix factorization with graph and relation regularizers.

The training objective combines five terms:

    J =   sum over observed (i, j) of (f(U_i . V_j) - R_ij)^2
        + sum_k alpha_k * Tr(U^T L_uu^k U)
        + sum_k beta_k  * Tr(V^T L_ii^k V)
        + mu * sum_k w_k * sum over entries of the k-th user-item relation
              of (f(U_i . V_j) - Rk_ij)^2
        + lam * (sum_i c_i ||U_i||^2 + sum_j c_j ||V_j||^2
                 + ||alpha||^2 + ||beta||^2 + ||w||^2)

where f is the logistic function, L = D - S is the Laplacian of a
symmetric nonnegative similarity matrix, and the ridge weights c are the
per-user / per-item observed-rating counts (cold nodes fall back to 1).
All rating-fit sums run over explicitly observed entries only.
``learner.Problem`` computes J; this module holds its parts and the
model file format.
"""

import json
import math
import os
import re
import tempfile
import zipfile
from dataclasses import dataclass, field, asdict, replace

import numpy as np
import scipy.sparse as sp

# Version 2: the header's graph_hash is taken from the CSR arrays.
# Version 3: the path weights are header lists, not npz members.
MODEL_FORMAT_VERSION = 3


class NumericalError(RuntimeError):
    """A non-finite value surfaced during objective or gradient evaluation."""


class ModelFormatError(ValueError):
    """A model file that is not a readable model of this format version."""


def logistic(x, out=None):
    """The logistic f(x) = 1 / (1 + exp(-x)) of each element of ``x``,
    written into ``out``, a float array of x's shape (x itself may be it),
    when given.

    numpy's vectorised ``exp`` evaluates the formula scipy's ``expit``
    evaluates with the scalar libm one, and agrees with it within 4 ulp.
    f is exactly 0 for x < -709.782712893384, where exp(-x) overflows to
    inf (the overflow is silenced), and exactly 1 for x > 36.7368005696771,
    where 1 + exp(-x) rounds to 1; expit has the same limits.  Between
    them f is positive and below 1.  f(-inf) = 0, f(inf) = 1 and f(nan)
    is nan.
    Elementwise: each element gets the same bytes whether computed alone
    or in any slice or strided view of a larger array.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


def logistic_and_slope(x, out=None):
    """Return (f(x), f'(x)) with f the :func:`logistic`, whose limits it
    keeps, and f'(x) = f(x) * (1 - f(x)), which is 0 wherever f is 0 or
    1.  Both are written into ``out``, a pair of float arrays of x's
    shape (x itself may be the first), when given.  Elementwise, like f."""
    x = np.asarray(x, dtype=np.float64)
    p, slope = (np.empty_like(x), np.empty_like(x)) if out is None else out
    logistic(x, p)
    np.subtract(1.0, p, out=slope)
    np.multiply(p, slope, out=slope)
    return p, slope


@dataclass
class FactorModel:
    """Latent factors: U is (n, d) for users, V is (m, d) for items."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        if self.U.ndim != 2 or self.V.ndim != 2:
            raise ValueError("U and V must be 2-d")
        if self.U.shape[1] != self.V.shape[1]:
            raise ValueError(
                f"factor dimension mismatch: U has {self.U.shape[1]}, "
                f"V has {self.V.shape[1]}"
            )

    @property
    def n(self):
        return self.U.shape[0]

    @property
    def m(self):
        return self.V.shape[0]

    @property
    def d(self):
        return self.U.shape[1]

    def predict_pairs(self, rows, cols):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        z = np.einsum("ij,ij->i", self.U[rows], self.V[cols])
        return logistic(z)


@dataclass
class PathWeights:
    """Nonnegative per-path weights: alpha (user-user), beta (item-item), w (user-item)."""

    alpha: np.ndarray
    beta: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "beta", "w"):
            v = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            # a handful of paths: a Python pass beats numpy's reductions
            if not all(0.0 <= x < math.inf for x in v.tolist()):
                raise ValueError(f"{name} must be finite and nonnegative")
            setattr(self, name, v)

    @property
    def counts(self):
        return (self.alpha.size, self.beta.size, self.w.size)


def require_integer(value, name, minimum):
    """Refuse a ``value`` that is not an integer (a numpy integer is one;
    a bool or a float is not) or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")


@dataclass
class Hyperparams:
    """Training hyperparameters; ``mu=None`` selects the density rule.

    ``learn_rate`` is the initial step of both descent phases.  The factor
    step grows after accepted steps and may exceed 1 during a run.  The
    default is 0.2.  While the step grows, a start that is too small
    costs about four accepted steps per doubling (ln 2 / ln 1.2), and a
    start that is too large costs one rejected candidate per halving.
    From 0.1, runs on a 3000 x 600 network rated at 0.5% density, whose
    fit gradient is weak near the small initial factors, were still
    leaving that start when 15 capped factor steps ran out, so the
    objective they reached depended on where the cap fell.
    """

    d: int = 10
    lam: float = 0.001
    mu: float = None
    learn_rate: float = 0.2
    inner_tol: float = 1e-4
    outer_tol: float = 1e-4
    max_inner: int = 100
    max_outer: int = 50
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("d", 1), ("max_inner", 1), ("max_outer", 0), ("seed", 0)):
            require_integer(getattr(self, name), name, minimum)
        if not (self.lam > 0):
            raise ValueError("lam must be positive")
        if self.mu is not None and not (0 <= self.mu):
            raise ValueError("mu must be nonnegative")
        if not (0 < self.learn_rate < 1):
            raise ValueError("learn_rate must lie in (0, 1)")
        for name in ("inner_tol", "outer_tol"):
            v = float(getattr(self, name))
            # inf is allowed and means "stop after the first accepted step"
            if not ((0 < v < 1) or np.isposinf(v)):
                raise ValueError(f"{name} must lie in (0, 1) or be inf")

    def with_overrides(self, **kwargs):
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


def laplacian(similarity, tol=1e-9):
    """Graph Laplacian L = D - S with D(i,i) = row sum of S.

    Accepts a SimilarityMatrix or a raw sparse/dense symmetric matrix;
    asymmetry beyond ``tol`` (max absolute entry of S - S^T) is an error.
    A SimilarityMatrix marked ``symmetric`` was checked to equal its
    transpose exactly when it was built, so its check is skipped.
    scipy assembles ``diags_array(deg) - S``, which stores no entry
    equal to 0.
    """
    S = getattr(similarity, "matrix", similarity)
    S = sp.csr_array(S, dtype=np.float64)
    if not S.has_canonical_format:  # duplicate or unsorted entries: summed on a copy
        S = S.copy()
        S.sum_duplicates()
    if S.shape[0] != S.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {S.shape}")
    if not getattr(similarity, "symmetric", False):
        gap = S - S.T
        if gap.nnz and np.max(np.abs(gap.data)) > tol:
            raise ValueError(
                f"similarity matrix asymmetric beyond {tol} "
                f"(max |S - S^T| = {np.max(np.abs(gap.data)):.3e})"
            )
    deg = np.asarray(S.sum(axis=1)).ravel()
    return sp.csr_array(sp.diags_array(deg) - S)


@dataclass
class LaplacianSet:
    """Precomputed Laplacians for the user-user and item-item path groups."""

    user: list = field(default_factory=list)
    item: list = field(default_factory=list)

    @classmethod
    def from_relation_set(cls, rels):
        return cls(
            [laplacian(s) for s in rels.user_user],
            [laplacian(s) for s in rels.item_item],
        )


def trace_quad(L, X, LX=None):
    """Tr(X^T L X) for a sparse or dense L; equals half the
    similarity-weighted squared-difference sum when L is a Laplacian.
    Pass ``LX = L @ X`` when it is already at hand."""
    if LX is None:
        LX = L @ X
    # overflow surfaces as a checked NumericalError downstream, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.add.reduce(X * LX, axis=None))


def mu_from_density(ratings):
    """Density rule: mu = |observed| / (n * m).

    Reported full-scale reference points — roughly 0.7 for a large
    bibliographic network and 0.4 for a large event-RSVP network — come
    from private extractions of those datasets and are recorded here as
    context only; nothing at this repository's scale reproduces them.
    Pass ``mu`` explicitly in :class:`Hyperparams` to override the rule.
    """
    return ratings.density


def effective_mu(hp, ratings):
    return mu_from_density(ratings) if hp.mu is None else hp.mu


def rating_counts(ratings):
    """Per-user and per-item observed counts; cold nodes fall back to 1."""
    n_user = np.bincount(ratings.rows, minlength=ratings.n).astype(np.float64)
    n_item = np.bincount(ratings.cols, minlength=ratings.m).astype(np.float64)
    n_user[n_user == 0] = 1.0
    n_item[n_item == 0] = 1.0
    return n_user, n_item


def atomic_write_bytes(path, payload):
    """Write ``payload`` to ``path`` through a temporary file in the same
    directory and a rename, so readers never see a partial file; the
    temporary file is removed if anything fails."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(path, model, weights, hp, graph_hash="", source=None):
    """Write the factor model to an .npz with a JSON header; bit-exact round trip.

    The npz holds three members: ``header``, ``U`` and ``V``.  The header
    carries the path weights as the lists ``alpha``, ``beta`` and ``w``;
    ``json`` writes each float as its ``repr``, which reads back as the
    same float.  ``source``, when given, is ``(source_digest, user_ids,
    item_ids)`` of the files the model was trained on: the header then
    records the digest and both id lists in index order (as JSON lists,
    which keep every string exactly).  No file path is stored.
    """
    import io

    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "n": model.n,
        "m": model.m,
        "d": model.d,
        "alpha": weights.alpha.tolist(),
        "beta": weights.beta.tolist(),
        "w": weights.w.tolist(),
        "hyperparams": asdict(hp),
        "graph_hash": graph_hash,
    }
    if source is not None:
        digest, user_ids, item_ids = source
        header.update(source_digest=digest, user_ids=list(user_ids), item_ids=list(item_ids))
    buf = io.BytesIO()
    np.savez(
        buf,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        # the C-ordered little-endian float64 members load_model reads
        U=np.ascontiguousarray(model.U, dtype="<f8"),
        V=np.ascontiguousarray(model.V, dtype="<f8"),
    )
    atomic_write_bytes(path, buf.getvalue())


_WEIGHT_KEYS = ("alpha", "beta", "w")


# The .npy header np.savez writes for each member of a model file: format
# 1.0, a dtype, C order and a 1-d or 2-d shape, padded with spaces.
_NPY_HEADER = re.compile(
    rb"\x93NUMPY\x01\x00(?P<size>..)\{'descr': '(?P<descr>[^']*)', "
    rb"'fortran_order': False, 'shape': \((?P<rows>\d+),(?: (?P<cols>\d+))?\), \} *\n",
    re.DOTALL,
)


def _npy_member(archive, name, descr, ndim):
    """The payload and shape of the ``.npy`` member ``name`` of ``archive``.

    ``ZipFile.read`` checks the member's CRC.  A member whose header is not
    the one ``np.savez`` writes for a C-ordered ``ndim``-dimensional array
    of dtype ``descr`` (little-endian float64 factors, byte header) raises
    ValueError.
    """
    raw = archive.read(name)
    match = _NPY_HEADER.match(raw)
    shape = match and tuple(int(x) for x in match.group("rows", "cols") if x is not None)
    if (match is None or match["descr"] != descr.encode() or len(shape) != ndim
            or match.end() != 10 + int.from_bytes(match["size"], "little")):
        raise ValueError(f"member {name} is not a C-ordered {ndim}-d {descr} array")
    return memoryview(raw)[match.end():], shape


def _factor(archive, name):
    """A writeable float64 factor matrix read from member ``name``; a
    payload of another size than its shape raises ValueError."""
    payload, shape = _npy_member(archive, name, "<f8", 2)
    return np.frombuffer(payload, dtype="<f8").reshape(shape).copy()


def load_model(path):
    """Read a model file; returns (FactorModel, PathWeights, header dict).

    A file that is not a model of this format version raises
    ModelFormatError: one that is not a zip archive, a member whose CRC
    fails, and factors that are not C-ordered 2-d little-endian float64
    arrays are among them.  So does one whose header disagrees with its
    factors, whose factors are not finite, or whose weights are not lists
    of finite nonnegative numbers; and one whose header has only some of
    the source keys (``source_digest``, ``user_ids``, ``item_ids``) or a
    malformed one.  A header with none of them loads.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            text, _ = _npy_member(archive, "header.npy", "|u1", 1)
            header = json.loads(str(text, "utf-8"))
            if not isinstance(header, dict):
                raise ModelFormatError("model file header is not a JSON object")
            if header.get("format_version") != MODEL_FORMAT_VERSION:
                raise ModelFormatError(
                    f"unsupported model format version {header.get('format_version')!r}"
                )
            model = FactorModel(_factor(archive, "U.npy"), _factor(archive, "V.npy"))
        shape = (header["n"], header["m"], header["d"])
        weights = [header[key] for key in _WEIGHT_KEYS]
    except ModelFormatError:
        raise
    except (KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ModelFormatError(f"unreadable model file {path!r}: {exc}") from exc
    if (model.n, model.m, model.d) != shape:
        raise ModelFormatError("model file header disagrees with stored factors")
    if not (np.isfinite(model.U).all() and np.isfinite(model.V).all()):
        raise ModelFormatError("model file factors are not all finite")
    for key, values in zip(_WEIGHT_KEYS, weights):
        # a bool is an int to Python but not a number to JSON
        if not (isinstance(values, list)
                and all(type(x) in (int, float) for x in values)):
            raise ModelFormatError(f"model file header {key} is not a list of numbers")
    try:
        weights = PathWeights(*weights)
    except (ValueError, OverflowError) as exc:  # an int too large for a float overflows
        raise ModelFormatError(f"model file header {exc}") from None
    _check_source(header, model.n, model.m)
    return model, weights, header


_SOURCE_KEYS = ("source_digest", "user_ids", "item_ids")


def _check_source(header, n, m):
    """The optional source keys: all three or none, each well formed."""
    present = [key for key in _SOURCE_KEYS if key in header]
    if not present:
        return
    if len(present) < len(_SOURCE_KEYS):
        missing = [key for key in _SOURCE_KEYS if key not in header]
        raise ModelFormatError(
            f"model file header has {', '.join(present)} but not {', '.join(missing)}"
        )
    digest = header["source_digest"]
    if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)):
        raise ModelFormatError(
            f"model file header source_digest {digest!r} is not 64 lowercase hex digits"
        )
    for key, count in (("user_ids", n), ("item_ids", m)):
        ids = header[key]
        if not (isinstance(ids, list) and len(ids) == count and _all_strings(ids)):
            raise ModelFormatError(
                f"model file header {key} is not a list of {count} strings"
            )


def _all_strings(values):
    """Whether every item of the list ``values`` is a string: ``str.join``
    checks them in one pass in C, about 6 ns an id against 40 ns for an
    ``isinstance`` generator."""
    try:
        "".join(values)
    except TypeError:
        return False
    return True
