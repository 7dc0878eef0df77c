"""Objective machinery: logistic link, Laplacians, objective terms, model io."""

import numpy as np
import pytest
import scipy.sparse as sp

from hetecf import (
    FactorModel,
    Hyperparams,
    NumericalError,
    PathWeights,
    RatingMatrix,
    load_model,
    save_model,
)
from hetecf.learner import build_problem
from hetecf.metapath import SimilarityMatrix
from hetecf.model import (
    MODEL_FORMAT_VERSION,
    ModelFormatError,
    LaplacianSet,
    effective_mu,
    laplacian,
    logistic,
    logistic_and_slope,
    mu_from_density,
    rating_counts,
    trace_quad,
)

from conftest import random_instance, random_symmetric_similarity
from oracles import count_observed, naive_objective, objective


def unpack(rels):
    uu = [s.matrix for s in rels.user_user]
    ii = [s.matrix for s in rels.item_item]
    rel_triples = []
    for s in rels.user_item:
        coo = sp.coo_array(s.matrix)
        rel_triples.append(list(zip(coo.row, coo.col, coo.data)))
    return uu, ii, rel_triples


# ----------------------------------------------------------------- logistic


def test_logistic_frozen_values():
    assert logistic(0.0) == 0.5
    assert logistic(1.0) == pytest.approx(0.7310585786300049, abs=1e-16)
    assert logistic(-1.0) == pytest.approx(0.2689414213699951, abs=1e-16)


def test_logistic_symmetry():
    xs = np.linspace(-30, 30, 101)
    assert np.allclose(logistic(xs) + logistic(-xs), 1.0, atol=1e-15)


def test_logistic_saturates_without_overflow():
    assert logistic(500.0) == 1.0
    assert logistic(-500.0) > 0.0
    assert logistic(1e300) == 1.0
    assert logistic(-1e300) == 0.0


def test_logistic_slope():
    p, s = logistic_and_slope(0.0)
    assert p == 0.5 and s == 0.25
    p, s = logistic_and_slope(3.0)
    assert s == pytest.approx(p * (1 - p))


def test_logistic_within_4_ulp_of_expit():
    from scipy.special import expit

    x = np.linspace(-745.0, 745.0, 1_000_001)
    got, want = logistic(x), expit(x)
    # nonnegative doubles order like their bit patterns
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4


def test_logistic_equals_expit_at_pinned_points():
    from scipy.special import expit

    x = np.array([0.0, 1.0, -1.0, 3.0, 500.0, -500.0, 1e300, -1e300, np.inf, -np.inf])
    assert logistic(x).tobytes() == expit(x).tobytes()
    assert logistic(x).tolist()[-4:] == [1.0, 0.0, 1.0, 0.0]
    p, s = logistic_and_slope(np.array([np.nan, -np.inf, np.inf]))
    assert np.isnan(p[0]) and np.isnan(s[0])
    assert p[1:].tolist() == [0.0, 1.0] and s[1:].tolist() == [0.0, 0.0]


def test_logistic_limits_are_the_documented_ones():
    # filterwarnings = error: an overflow warning from exp(-x) would raise
    low, high = -709.782712893384, 36.7368005696771
    assert logistic(np.nextafter(low, -np.inf)) == 0.0 < logistic(low)
    assert logistic(high) < 1.0 == logistic(np.nextafter(high, np.inf))
    assert logistic(np.array([-1e300, -746.0, -710.0])).tolist() == [0.0, 0.0, 0.0]


def test_logistic_of_a_slice_view_or_element_gives_the_whole_arrays_bytes():
    """The split entry half computes f of two ranges of one array."""
    x = np.random.default_rng(4).uniform(-40.0, 40.0, 10_001)
    whole = logistic(x)
    for part in (slice(3, 7000), slice(1, None, 3), slice(None, None, -2), slice(5, 6)):
        assert logistic(x[part]).tobytes() == whole[part].tobytes()
        p, s = logistic_and_slope(x[part])
        assert p.tobytes() == whole[part].tobytes()
    for k in (0, 17, 10_000):
        assert logistic(x[k]).tobytes() == whole[k:k + 1].tobytes()
    out = np.zeros(2 * x.size)
    logistic(x, out[::2])  # written into a strided view
    assert out[::2].tobytes() == whole.tobytes()


# -------------------------------------------------------------- FactorModel


def test_predict_zero_factors_gives_half():
    model = FactorModel(np.zeros((3, 2)), np.zeros((4, 2)))
    rows, cols = np.divmod(np.arange(12), 4)
    assert np.all(model.predict_pairs(rows, cols) == 0.5)


def test_predict_matches_manual():
    rng = np.random.default_rng(1)
    model = FactorModel(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
    i, j = 2, 3
    want = 1.0 / (1.0 + np.exp(-(model.U[i] @ model.V[j])))
    pairs = model.predict_pairs([0, 2], [1, 3])
    assert pairs[1] == pytest.approx(want, rel=1e-15)
    rows, cols = np.divmod(np.arange(15), 5)
    every = model.predict_pairs(rows, cols)
    assert every.shape == (15,)
    assert np.all((every > 0) & (every < 1))


def test_factor_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        FactorModel(np.zeros((2, 3)), np.zeros((2, 4)))


# -------------------------------------------------------------- PathWeights


def test_path_weights_validation():
    w = PathWeights([0.5, 0.0], [1.0], [])
    assert w.counts == (2, 1, 0)
    with pytest.raises(ValueError, match="alpha"):
        PathWeights([-0.1], [], [])
    with pytest.raises(ValueError, match="w"):
        PathWeights([], [], [np.nan])


# -------------------------------------------------------------- Hyperparams


def test_hyperparams_defaults_valid():
    hp = Hyperparams()
    assert hp.d == 10 and hp.mu is None


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(d=0)
    with pytest.raises(ValueError):
        Hyperparams(lam=0.0)
    with pytest.raises(ValueError):
        Hyperparams(mu=-0.5)
    with pytest.raises(ValueError):
        Hyperparams(learn_rate=0.0)
    with pytest.raises(ValueError):
        Hyperparams(learn_rate=1.0)
    with pytest.raises(ValueError):
        Hyperparams(inner_tol=0.0)
    with pytest.raises(ValueError):
        Hyperparams(outer_tol=1.5)
    with pytest.raises(ValueError):
        Hyperparams(max_inner=0)
    with pytest.raises(ValueError):
        Hyperparams(max_outer=-1)
    with pytest.raises(ValueError):
        Hyperparams(seed=-1)
    for name in ("d", "max_inner", "max_outer", "seed"):
        for value in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                Hyperparams(**{name: value})
    # explicitly allowed: inf tolerances (one accepted step per phase), mu=0
    Hyperparams(inner_tol=np.inf, outer_tol=np.inf, mu=0.0, max_outer=0)
    Hyperparams(d=np.int64(3), max_inner=np.int32(2), seed=np.uint8(4))


def test_hyperparams_overrides_skip_none():
    hp = Hyperparams(d=5, lam=0.01)
    hp2 = hp.with_overrides(d=None, lam=0.1, seed=4)
    assert hp2.d == 5 and hp2.lam == 0.1 and hp2.seed == 4
    assert hp.lam == 0.01  # original untouched


# ---------------------------------------------------------------- laplacian


def test_laplacian_two_node_frozen():
    L = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(L.toarray(), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_row_sums_zero_and_psd():
    rng = np.random.default_rng(4)
    for n in (2, 5, 9):
        S = random_symmetric_similarity(n, 0.5, rng)
        L = laplacian(S)
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
        eig = np.linalg.eigvalsh(L.toarray())
        assert eig.min() >= -1e-10


def test_laplacian_accepts_similarity_wrapper(toy_graph, biblio_schema):
    import hetecf as h
    from hetecf.metapath import path_count, pathsim

    p = h.parse_path("Author -writes-> Paper <-writes- Author", biblio_schema)
    sim = pathsim(path_count(toy_graph, p))
    L = laplacian(sim)
    assert L.shape == (3, 3)


def test_laplacian_rejects_asymmetric():
    with pytest.raises(ValueError, match="asymmetric"):
        laplacian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_laplacian_checks_every_matrix_not_marked_symmetric(biblio_schema):
    import hetecf as h

    path = h.parse_path("Author -writes-> Paper <-writes- Author", biblio_schema)
    asym = np.array([[0.0, 0.5], [0.25, 0.0]])
    for raw in (asym, sp.csr_array(asym), sp.coo_array(asym)):
        with pytest.raises(ValueError, match="asymmetric"):
            laplacian(raw)
    with pytest.raises(ValueError, match="asymmetric"):
        laplacian(SimilarityMatrix(path, sp.csr_array(asym)))
    # a matrix marked when built is trusted, and gives the checked result
    S = random_symmetric_similarity(9, 0.5, np.random.default_rng(5))
    marked = laplacian(SimilarityMatrix(path, S, symmetric=True))
    checked = laplacian(S)
    for a, b in ((marked.indptr, checked.indptr), (marked.indices, checked.indices),
                 (marked.data, checked.data)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _scipy_laplacian(S):
    """``diags_array(deg) - S`` through scipy's DIA and CSR arithmetic."""
    S = sp.csr_array(S, dtype=np.float64)
    deg = np.asarray(S.sum(axis=1)).ravel()
    return sp.csr_array(sp.diags_array(deg, format="csr") - S)


def test_laplacian_equals_scipy_assembly_byte_for_byte():
    # rows without entries, self-loops, a diagonal that cancels to 0,
    # explicit zeros, 64-bit indices and a non-canonical matrix, which is
    # compared with scipy's assembly of its canonical form
    rng = np.random.default_rng(12)
    for trial in range(300):
        n = int(rng.integers(1, 25))
        A = (rng.random((n, n)) < rng.random()) * rng.choice(
            [0.5, 1.0, 2.0, 0.1, 1e-300, 3.7], size=(n, n))
        A = A + A.T
        A[rng.integers(0, n), :] = 0.0
        A = np.minimum(A, A.T)
        i = rng.integers(0, n)
        A[i, :] = A[:, i] = 0.0
        A[i, i] = 2.0  # a self-loop alone: its Laplacian row is 0
        S = sp.csr_array(A)
        if trial % 3 == 0:  # explicit zeros, symmetric
            zero = rng.random((n, n)) < 0.2
            rows = np.repeat(np.arange(n), np.diff(S.indptr))
            S.data[(zero | zero.T)[rows, S.indices]] = 0.0
        if trial % 5 == 0:
            S = sp.csr_array((S.data, S.indices.astype(np.int64),
                              S.indptr.astype(np.int64)), shape=S.shape)
        if trial % 7 == 0 and S.nnz > 1:  # each row stored twice over, in halves
            rows = [slice(a, b) for a, b in zip(S.indptr[:-1], S.indptr[1:])]
            S = sp.csr_array(
                (np.concatenate([np.tile(S.data[r], 2) * 0.5 for r in rows]),
                 np.concatenate([np.tile(S.indices[r], 2) for r in rows]),
                 np.concatenate([[0], np.cumsum(2 * np.diff(S.indptr))])),
                shape=S.shape,
            )
            assert not S.has_canonical_format
        C = S.copy()
        C.sum_duplicates()
        before = [x.copy() for x in (S.indptr, S.indices, S.data)]
        got, want = laplacian(S), _scipy_laplacian(C)
        for a, b in zip(before, (S.indptr, S.indices, S.data)):
            assert a.tobytes() == b.tobytes(), trial  # the input is left as it was
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), trial


def test_laplacian_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        laplacian(np.zeros((2, 3)))


def test_trace_quad_equals_pairwise_sum():
    rng = np.random.default_rng(8)
    n, d = 7, 3
    S = random_symmetric_similarity(n, 0.6, rng).toarray()
    X = rng.normal(size=(n, d))
    L = laplacian(S)
    pairwise = 0.5 * sum(
        S[i, j] * np.sum((X[i] - X[j]) ** 2) for i in range(n) for j in range(n)
    )
    assert trace_quad(L, X) == pytest.approx(pairwise, rel=1e-12)


# ----------------------------------------------------------------- mu rule


def test_mu_from_density_frozen():
    r = RatingMatrix.from_entries(
        3, 5, [(0, 0, 0.2), (0, 1, 0.4), (1, 2, 0.6), (1, 3, 0.8),
               (2, 4, 1.0), (2, 0, 0.5)]
    )
    assert mu_from_density(r) == pytest.approx(6 / 15)


def test_mu_matches_counting_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        vals = rng.choice([0.0, 0.25, 0.5, 1.0], size=n * m,
                          p=[0.6, 0.1, 0.2, 0.1])
        r = RatingMatrix(
            n, m,
            np.repeat(np.arange(n), m)[vals != 0],
            np.tile(np.arange(m), n)[vals != 0],
            vals[vals != 0],
        )
        assert mu_from_density(r) == count_observed(vals) / (n * m)


def test_effective_mu_override():
    r = RatingMatrix.from_entries(2, 2, [(0, 0, 0.5)])
    assert effective_mu(Hyperparams(), r) == 0.25
    assert effective_mu(Hyperparams(mu=0.7), r) == 0.7


def test_rating_counts_cold_fallback():
    r = RatingMatrix.from_entries(3, 2, [(0, 0, 0.5), (0, 1, 0.5)])
    n_user, n_item = rating_counts(r)
    assert list(n_user) == [2.0, 1.0, 1.0]  # users 1, 2 are cold
    assert list(n_item) == [1.0, 1.0]


# ---------------------------------------------------------------- objective


def test_objective_zero_model_closed_form():
    rng = np.random.default_rng(3)
    ratings, rels, hp = random_instance(rng, n=6, m=5, d=2)
    model = FactorModel(np.zeros((6, 2)), np.zeros((5, 2)))
    weights = PathWeights([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    J = objective(model, weights, ratings, rels, hp)
    assert J == pytest.approx(np.sum((0.5 - ratings.vals) ** 2), rel=1e-14)


def test_objective_matches_double_loop_oracle():
    rng = np.random.default_rng(21)
    for _ in range(8):
        ratings, rels, hp = random_instance(rng)
        n, m, d = ratings.n, ratings.m, hp.d
        model = FactorModel(rng.normal(size=(n, d)), rng.normal(size=(m, d)))
        weights = PathWeights(rng.random(2), rng.random(2), rng.random(2))
        J = objective(model, weights, ratings, rels, hp)
        uu, ii, rel_triples = unpack(rels)
        want = naive_objective(
            model.U, model.V, weights.alpha, weights.beta, weights.w,
            list(zip(ratings.rows, ratings.cols, ratings.vals)), n, m,
            uu, ii, rel_triples, hp.lam, hp.mu,
        )
        assert J == pytest.approx(want, rel=1e-10)


def test_objective_weight_count_mismatch():
    rng = np.random.default_rng(5)
    ratings, rels, hp = random_instance(rng)
    problem = build_problem(ratings, rels, hp)
    point = problem.evaluate(
        FactorModel(np.zeros((ratings.n, hp.d)), np.zeros((ratings.m, hp.d)))
    )
    weights = PathWeights([1.0], [], [])
    for measure in (problem.value, problem.terms, problem.factor_gradient):
        with pytest.raises(ValueError, match="weight counts"):
            measure(point, weights)


def test_objective_rejects_nan_factors():
    rng = np.random.default_rng(6)
    ratings, rels, hp = random_instance(rng)
    problem = build_problem(ratings, rels, hp)
    U = np.zeros((ratings.n, hp.d))
    U[0, 0] = np.nan
    point = problem.evaluate(FactorModel(U, np.zeros((ratings.m, hp.d))))
    weights = PathWeights(np.ones(2), np.ones(2), np.ones(2))
    with pytest.raises(NumericalError, match="rating fit"):
        problem.value(point, weights)
    with pytest.raises(NumericalError, match="non-finite factor gradient"):
        problem.factor_gradient(point, weights)


def test_objective_names_overflowing_regularizer():
    rng = np.random.default_rng(7)
    ratings, rels, hp = random_instance(rng)
    problem = build_problem(ratings, rels, hp)
    # factors large enough that the quadratic regularizer overflows while
    # the logistic fit term stays saturated and finite
    U = np.full((ratings.n, hp.d), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        point = problem.evaluate(FactorModel(U, np.zeros((ratings.m, hp.d))), every_path=True)
    weights = PathWeights(np.ones(2), np.ones(2), np.ones(2))
    with pytest.raises(NumericalError, match="user graph regularizer"):
        problem.value(point, weights)
    with pytest.raises(NumericalError, match="non-finite weight gradient"):
        problem.weight_gradient(point, weights)


def test_weight_objective_tracks_full_objective_differences():
    # the weight phase values its candidates in closed form at the frozen
    # factors; its differences in the weight variables must equal those of
    # the full objective
    rng = np.random.default_rng(30)
    ratings, rels, hp = random_instance(rng)
    model = FactorModel(
        rng.normal(size=(ratings.n, hp.d)), rng.normal(size=(ratings.m, hp.d))
    )
    laps = LaplacianSet.from_relation_set(rels)
    mu = effective_mu(hp, ratings)
    w1 = PathWeights(rng.random(2), rng.random(2), rng.random(2))
    w2 = PathWeights(rng.random(2), rng.random(2), rng.random(2))
    dJ = objective(model, w1, ratings, rels, hp, laps, mu) - objective(
        model, w2, ratings, rels, hp, laps, mu
    )
    problem = build_problem(ratings, rels, hp)
    point = problem.evaluate(model)
    dJw = problem.value(point, w1) - problem.value(point, w2)
    assert dJ == pytest.approx(dJw, rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------- model io


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    model = FactorModel(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))
    weights = PathWeights(rng.random(2), rng.random(1), rng.random(3))
    hp = Hyperparams(d=3, lam=0.02, mu=0.5, seed=7)
    f = str(tmp_path / "model.npz")
    save_model(f, model, weights, hp, graph_hash="abc123")
    m2, w2, header = load_model(f)
    assert np.array_equal(m2.U, model.U) and np.array_equal(m2.V, model.V)
    assert np.array_equal(w2.alpha, weights.alpha)
    assert np.array_equal(w2.beta, weights.beta)
    assert np.array_equal(w2.w, weights.w)
    assert header["graph_hash"] == "abc123"
    assert header["format_version"] == 3
    assert header["hyperparams"]["lam"] == 0.02
    assert (header["n"], header["m"], header["d"]) == (4, 5, 3)


def test_load_model_rejects_bad_version(tmp_path):
    import json

    f = str(tmp_path / "m.npz")
    header = {"format_version": 99}
    np.savez(
        f,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        U=np.zeros((1, 1)), V=np.zeros((1, 1)),
        alpha=np.zeros(0), beta=np.zeros(0), w=np.zeros(0),
    )
    with pytest.raises(ValueError, match="format version"):
        load_model(f)


def test_load_model_rejects_inconsistent_header(tmp_path):
    import json

    f = str(tmp_path / "m.npz")
    header = {
        "format_version": MODEL_FORMAT_VERSION, "n": 7, "m": 1, "d": 1,
        "alpha": [], "beta": [], "w": [], "hyperparams": {}, "graph_hash": "",
    }
    np.savez(
        f,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        U=np.zeros((1, 1)), V=np.zeros((1, 1)),
    )
    with pytest.raises(ValueError, match="disagrees"):
        load_model(f)


@pytest.mark.parametrize("header", [[2], None])
def test_load_model_rejects_header_that_is_not_an_object(tmp_path, header):
    import json

    f = str(tmp_path / "m.npz")
    np.savez(
        f,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        U=np.zeros((1, 1)), V=np.zeros((1, 1)),
        alpha=np.zeros(0), beta=np.zeros(0), w=np.zeros(0),
    )
    with pytest.raises(ModelFormatError, match="not a JSON object"):
        load_model(f)


def write_model_with_header(path, U=None, V=None, **keys):
    """A 2-user, 1-item model file, with factors ``U`` and ``V`` (zeros by
    default), whose header adds or replaces the given ``keys``."""
    import json

    header = {
        "format_version": MODEL_FORMAT_VERSION, "n": 2, "m": 1, "d": 1,
        "alpha": [], "beta": [], "w": [], "hyperparams": {}, "graph_hash": "", **keys,
    }
    np.savez(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        U=np.zeros((2, 1)) if U is None else U,
        V=np.zeros((1, 1)) if V is None else V,
    )
    return path


GOOD_SOURCE = {"source_digest": "0a" * 32, "user_ids": ["u1", "u\x00"], "item_ids": ["i1"]}


def test_save_model_records_source_ids_exactly(tmp_path):
    f = str(tmp_path / "m.npz")
    model = FactorModel(np.zeros((2, 1)), np.zeros((1, 1)))
    source = tuple(GOOD_SOURCE.values())
    save_model(f, model, PathWeights([], [], []), Hyperparams(d=1), "h", source)
    _, _, header = load_model(f)
    assert {k: header[k] for k in GOOD_SOURCE} == GOOD_SOURCE  # trailing NUL kept
    save_model(f, model, PathWeights([], [], []), Hyperparams(d=1), "h")
    _, _, header = load_model(f)
    assert not set(GOOD_SOURCE) & set(header)
    load_model(write_model_with_header(str(tmp_path / "plain.npz")))


@pytest.mark.parametrize("key,value", [
    ("user_ids", ["u1"]),                 # not n long
    ("user_ids", ["u1", 2]),              # not all strings
    ("item_ids", "i1"),                   # not a list
    ("item_ids", ["i1", "i2"]),           # not m long
])
def test_load_model_rejects_malformed_source_ids(tmp_path, key, value):
    f = write_model_with_header(str(tmp_path / "m.npz"), **dict(GOOD_SOURCE, **{key: value}))
    with pytest.raises(ModelFormatError, match=f"{key} is not a list of"):
        load_model(f)


@pytest.mark.parametrize("digest", ["0A" * 32, "0a" * 31, "0a" * 32 + "\n", "g" * 64, 7])
def test_load_model_rejects_malformed_source_digest(tmp_path, digest):
    f = write_model_with_header(
        str(tmp_path / "m.npz"), **dict(GOOD_SOURCE, source_digest=digest)
    )
    with pytest.raises(ModelFormatError, match="64 lowercase hex"):
        load_model(f)


@pytest.mark.parametrize("missing", ["source_digest", "user_ids", "item_ids"])
def test_load_model_rejects_partial_source_keys(tmp_path, missing):
    source = {k: v for k, v in GOOD_SOURCE.items() if k != missing}
    f = write_model_with_header(str(tmp_path / "m.npz"), **source)
    with pytest.raises(ModelFormatError, match=f"but not {missing}"):
        load_model(f)


def test_model_file_holds_only_header_and_factors(tmp_path):
    rng = np.random.default_rng(3)
    model = FactorModel(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)))
    # floats whose shortest repr needs all 17 digits, and ones at the ends of the range
    weights = PathWeights([0.1 + 0.2, 5e-324], [np.nextafter(1.0, 2.0)],
                          [1.7976931348623157e308, 0.0])
    f = str(tmp_path / "m.npz")
    save_model(f, model, weights, Hyperparams(d=2))
    with np.load(f) as data:
        assert sorted(data.files) == ["U", "V", "header"]
        assert data["U"].dtype == data["V"].dtype == np.float64
        assert data["U"].tobytes() == model.U.tobytes()
        assert data["V"].tobytes() == model.V.tobytes()
    _, w2, header = load_model(f)
    for name in ("alpha", "beta", "w"):
        assert getattr(w2, name).tobytes() == getattr(weights, name).tobytes()
        assert header[name] == getattr(weights, name).tolist()
    assert not {"n_user_paths", "n_item_paths", "n_cross_paths"} & set(header)


def test_load_model_refuses_format_version_2(tmp_path):
    import json

    f = str(tmp_path / "m.npz")
    header = {  # a version-2 file: weights as members, their counts in the header
        "format_version": 2, "n": 2, "m": 1, "d": 1,
        "n_user_paths": 1, "n_item_paths": 0, "n_cross_paths": 0,
        "hyperparams": {}, "graph_hash": "",
    }
    np.savez(
        f,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        U=np.zeros((2, 1)), V=np.zeros((1, 1)),
        alpha=np.ones(1), beta=np.zeros(0), w=np.zeros(0),
    )
    with pytest.raises(ModelFormatError, match="unsupported model format version 2$"):
        load_model(f)


@pytest.mark.parametrize("factor", ["U", "V"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_model_refuses_non_finite_factors(tmp_path, factor, value):
    bad = np.zeros((2, 1) if factor == "U" else (1, 1))
    bad[-1, 0] = value
    f = write_model_with_header(str(tmp_path / "m.npz"), **{factor: bad})
    with pytest.raises(ModelFormatError, match="factors are not all finite"):
        load_model(f)


@pytest.mark.parametrize("key", ["alpha", "beta", "w"])
@pytest.mark.parametrize("value,message", [
    (0.5, "is not a list of numbers"),            # a number, not a list
    ({"0": 0.5}, "is not a list of numbers"),     # an object
    (None, "is not a list of numbers"),
    (["0.5"], "is not a list of numbers"),        # a string that float() would read
    ([0.5, "x"], "is not a list of numbers"),
    ([True], "is not a list of numbers"),         # a bool is not a number
    ([[0.5]], "is not a list of numbers"),        # nested
    ([-0.25], "must be finite and nonnegative"),
    ([float("nan")], "must be finite and nonnegative"),   # json writes NaN
    ([float("inf")], "must be finite and nonnegative"),
    ([10 ** 400], "too large"),                   # an int no float holds
])
def test_load_model_refuses_malformed_weights(tmp_path, key, value, message):
    f = write_model_with_header(str(tmp_path / "m.npz"), **{key: value})
    with pytest.raises(ModelFormatError, match=message):
        load_model(f)


def test_load_model_requires_every_weight_list(tmp_path):
    import json

    f = str(tmp_path / "m.npz")
    header = {"format_version": MODEL_FORMAT_VERSION, "n": 1, "m": 1, "d": 1,
              "alpha": [], "beta": [], "hyperparams": {}, "graph_hash": ""}
    np.savez(f, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
             U=np.zeros((1, 1)), V=np.zeros((1, 1)))
    with pytest.raises(ModelFormatError, match="unreadable model file .*'w'"):
        load_model(f)


def test_load_model_accepts_integer_weights(tmp_path):
    f = write_model_with_header(str(tmp_path / "m.npz"), alpha=[1, 0], w=[2.5])
    _, weights, _ = load_model(f)
    assert weights.alpha.tolist() == [1.0, 0.0] and weights.alpha.dtype == np.float64
    assert weights.counts == (2, 0, 1)
