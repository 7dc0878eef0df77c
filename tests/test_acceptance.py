"""End-to-end acceptance suite: one test per advertised guarantee.

Each test prints a single always-visible summary line (PASS/FAIL plus the
measured margins) so a full run reads as a checklist.  The hard bounds
live in the assertions; the printed numbers are for the human skimming
the output.  Budgeted checks also assert their own wall-clock limits.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

import hetecf as h
from hetecf import Hyperparams, PathWeights, RatingMatrix, SplitSpec, split, train
from hetecf.evaluate import METHODS, NMFPredictor, rmse, run_experiment
from hetecf.learner import build_problem, grad_factors, grad_weights, init, set_up
from hetecf.metapath import (
    RelationSet,
    SimilarityMatrix,
    path_count,
    pathsim,
)
from hetecf.model import FactorModel, mu_from_density
from hetecf.synth import (
    SynthSpec,
    default_paths,
    default_target_path,
    generate,
    scaling_benchmark,
)

from conftest import CITE_SCHEMA, PATH_TEXTS, random_instance, random_ratings
from oracles import (
    PlainLogisticMF,
    central_difference,
    count_observed,
    dfs_path_count,
    objective,
)


def _report(capsys, index, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{index}/9] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _grad_mismatch(analytic, numeric):
    """Worst error as a fraction of the allowance (<= 1.0 passes).

    Entries with |numeric| >= 1e-8 are held to 1e-4 relative error, the
    rest to a 1e-8 absolute floor.
    """
    a = np.asarray(analytic, dtype=float).ravel()
    g = np.asarray(numeric, dtype=float).ravel()
    small = np.abs(g) < 1e-8
    diff = np.abs(a - g)
    worst = 0.0
    if small.any():
        worst = max(worst, float(diff[small].max()) / 1e-8)
    if (~small).any():
        worst = max(worst, float((diff[~small] / np.abs(g[~small])).max()) / 1e-4)
    return worst


# ------------------------------------------------------------ 1: gradients


def test_1_gradients_match_central_differences(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    instances = 50
    for _ in range(instances):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(2, 11))
        d = int(rng.integers(1, 5))
        n_uu = int(rng.integers(0, 4))
        n_ii = int(rng.integers(0, 4))
        n_ui = int(rng.integers(0, 4))
        ratings, rels, hp = random_instance(
            rng, n=n, m=m, d=d, n_uu=n_uu, n_ii=n_ii, n_ui=n_ui
        )
        data = build_problem(ratings, rels, hp)
        state = init(hp, (n, m, n_uu, n_ii, n_ui))
        state.model = FactorModel(
            rng.normal(scale=0.5, size=(n, d)), rng.normal(scale=0.5, size=(m, d))
        )

        dU, dV = grad_factors(state, data)

        def f_factors(vec):
            model = FactorModel(
                vec[: n * d].reshape(n, d), vec[n * d :].reshape(m, d)
            )
            return objective(
                model, state.weights, ratings, rels, hp, laps=data.laps, mu=data.mu
            )

        x0 = np.concatenate([state.model.U.ravel(), state.model.V.ravel()])
        worst = max(
            worst,
            _grad_mismatch(
                np.concatenate([dU.ravel(), dV.ravel()]),
                central_difference(f_factors, x0),
            ),
        )

        if n_uu + n_ii + n_ui:
            dA, dB, dW = grad_weights(state, data)

            def f_weights(theta):
                wts = PathWeights(
                    theta[:n_uu], theta[n_uu : n_uu + n_ii], theta[n_uu + n_ii :]
                )
                return objective(
                    state.model, wts, ratings, rels, hp, laps=data.laps, mu=data.mu
                )

            theta0 = np.concatenate(
                [state.weights.alpha, state.weights.beta, state.weights.w]
            )
            worst = max(
                worst,
                _grad_mismatch(
                    np.concatenate([dA, dB, dW]),
                    central_difference(f_weights, theta0),
                ),
            )
    dt = time.perf_counter() - t0
    ok = worst <= 1.0 and dt < 60.0
    _report(
        capsys, 1, "analytic gradients vs central differences", ok,
        f"{instances} instances, worst error {worst:.2%} of allowance, {dt:.1f}s",
    )
    assert worst <= 1.0
    assert dt < 60.0


# ----------------------------------------- 2 & 3: path counts and PathSim


def test_2_path_counts_equal_dfs_enumeration(capsys, graph_corpus):
    paths = [h.parse_path(t, CITE_SCHEMA) for t in PATH_TEXTS]
    t0 = time.perf_counter()
    checked = 0
    exact = True
    for g in graph_corpus:
        for p in paths:
            got = path_count(g, p).matrix.toarray()
            want = dfs_path_count(g, p)
            exact = exact and np.array_equal(got, want)
            checked += 1
    dt = time.perf_counter() - t0
    ok = exact and dt < 60.0
    _report(
        capsys, 2, "sparse path counts vs DFS enumeration", ok,
        f"{len(graph_corpus)} graphs x {len(paths)} paths = {checked} matrices, "
        f"exact integers, {dt:.1f}s",
    )
    assert exact
    assert dt < 60.0


def test_3_pathsim_range_and_palindromic_symmetry(capsys, graph_corpus):
    paths = [h.parse_path(t, CITE_SCHEMA) for t in PATH_TEXTS]
    lo, hi = np.inf, -np.inf
    asym = 0.0
    n_sym = 0
    for g in graph_corpus:
        for p in paths:
            pc = path_count(g, p)
            dense = pathsim(pc).matrix.toarray()
            if dense.size:
                lo = min(lo, float(dense.min()))
                hi = max(hi, float(dense.max()))
            if p.is_palindromic:
                asym = max(asym, float(np.abs(dense - dense.T).max()))
                n_sym += 1
    ok = lo >= 0.0 and hi <= 1.0 and asym <= 1e-12
    _report(
        capsys, 3, "similarity range and palindromic symmetry", ok,
        f"values in [{lo:.3f}, {hi:.3f}], worst asymmetry {asym:.1e} "
        f"over {n_sym} palindromic matrices",
    )
    assert lo >= 0.0 and hi <= 1.0
    assert asym <= 1e-12


# -------------------------------------------------------------- 4: descent


def test_4_objective_descends_on_twenty_seeds(capsys):
    non_increasing = True
    improved = True
    checked_final = 0
    for seed in range(20):
        rng = np.random.default_rng([404, seed])
        ratings, rels, hp = random_instance(rng, n=8, m=6, d=3)
        hp = hp.with_overrides(
            seed=seed, learn_rate=0.1, inner_tol=1e-6, outer_tol=1e-8,
            max_inner=10, max_outer=5,
        )
        data = build_problem(ratings, rels, hp)
        st0 = init(hp, (8, 6, 2, 2, 2))
        dU, dV = grad_factors(st0, data)
        dA, dB, dW = grad_weights(st0, data)
        g0 = float(
            np.sqrt(
                (dU**2).sum() + (dV**2).sum()
                + (dA**2).sum() + (dB**2).sum() + (dW**2).sum()
            )
        )
        st = train(ratings, rels, hp)
        steps = np.asarray(st.step_trace)
        non_increasing = non_increasing and bool(np.all(np.diff(steps) <= 0.0))
        if g0 > 1e-6:
            checked_final += 1
            improved = improved and st.j_value < st.j_trace[0]
    ok = non_increasing and improved
    _report(
        capsys, 4, "accepted-step objective descent", ok,
        f"20 seeds, trace monotone: {non_increasing}, "
        f"final < initial on {checked_final} seeds with live gradient: {improved}",
    )
    assert non_increasing
    assert improved


# ------------------------------------------------------------ 5: reduction


def test_5_reduction_matches_plain_logistic_mf(capsys):
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng([505, seed])
        ratings = random_ratings(rng, 7, 5)
        hp = Hyperparams(
            d=3, lam=0.02, learn_rate=0.15, inner_tol=1e-5, outer_tol=1e-6,
            max_inner=8, max_outer=6, mu=0.3, seed=seed,
        )
        st = train(ratings, RelationSet([], [], []), hp)
        oracle = PlainLogisticMF(hp).fit(ratings)
        worst = max(
            worst,
            float(np.max(np.abs(st.model.U - oracle.U))),
            float(np.max(np.abs(st.model.V - oracle.V))),
            float(np.max(np.abs(np.asarray(st.j_trace) - np.asarray(oracle.j_trace)))),
        )
    ok = worst < 1e-12
    _report(
        capsys, 5, "empty-path reduction equals plain logistic MF", ok,
        f"5 seeds, max trajectory deviation {worst:.1e}",
    )
    assert worst < 1e-12


# ----------------------------------------------------- 6: synthetic recovery


def _knn_similarity(X, k, scale):
    """Symmetric k-nearest-neighbour graph in factor space."""
    n = X.shape[0]
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    idx = np.argsort(d2, axis=1)[:, :k]
    rows = np.repeat(np.arange(n), k)
    cols = idx.ravel()
    w = scale * np.exp(-d2[rows, cols] / np.median(d2[np.isfinite(d2)]))
    s = sp.coo_array((w, (rows, cols)), shape=(n, n)).tocsr()
    return sp.csr_array((s + s.T) * 0.5)


def _noise_similarity(n, density, scale, rng):
    """Random symmetric graph with the same scale but scrambled structure."""
    mask = np.triu(rng.random((n, n)) < density, 1)
    vals = scale * rng.random((n, n))
    return sp.csr_array(mask * vals + (mask * vals).T)


def _recovery_trial(seed):
    n, m, k, sim_scale, slope = 200, 100, 6, 3e-6, 1.2
    rng = np.random.default_rng([seed, 0xC6])
    u_true = rng.normal(size=(n, 2))
    v_true = rng.normal(size=(m, 2))
    full = expit(slope * (u_true @ v_true.T))
    observed = rng.random((n, m)) < 0.20
    rows, cols = np.nonzero(observed)
    ratings = RatingMatrix(n, m, rows, cols, full[rows, cols])
    tr, te = split(ratings, SplitSpec(train_fraction=0.75, seed=seed), trial=0)

    schema = h.Schema(("U", "I"), "U", "I", (h.Relation("r", "U", "I"),))
    p_uu = h.make_path(schema, [("r", True), ("r", False)])
    p_ii = h.make_path(schema, [("r", False), ("r", True)])
    p_ui = h.make_path(schema, [("r", True)])
    uu = [
        SimilarityMatrix(p_uu, _knn_similarity(u_true, k, sim_scale)),
        SimilarityMatrix(p_uu, _noise_similarity(n, 2 * k / n, sim_scale, rng)),
    ]
    ii = [
        SimilarityMatrix(p_ii, _knn_similarity(v_true, k, sim_scale)),
        SimilarityMatrix(p_ii, _noise_similarity(m, 2 * k / m, sim_scale, rng)),
    ]
    extra = (rng.random((n, m)) < 0.10) & ~observed
    r2, c2 = np.nonzero(extra)
    r3, c3 = np.nonzero(rng.random((n, m)) < 0.10)
    ui = [
        SimilarityMatrix(
            p_ui, sp.csr_array((full[r2, c2], (r2, c2)), shape=(n, m))
        ),
        SimilarityMatrix(
            p_ui,
            sp.csr_array(
                (rng.integers(0, 2, r3.size) * 0.998 + 0.001, (r3, c3)), shape=(n, m)
            ),
        ),
    ]
    rels = RelationSet(uu, ii, ui)

    hp = Hyperparams(
        d=2, lam=1e-4, learn_rate=0.2, inner_tol=1e-3, outer_tol=1e-6,
        max_inner=60, max_outer=25, mu=1e-5, seed=seed,
    )
    st = train(tr, rels, hp)
    err_model = rmse(st.model.predict_pairs(te.rows, te.cols), te.vals)
    err_nmf = rmse(NMFPredictor(tr, d=2, seed=seed).predict(te.rows, te.cols), te.vals)
    wts = st.weights
    ranked = (
        wts.alpha[0] > wts.alpha[1],
        wts.beta[0] > wts.beta[1],
        wts.w[0] > wts.w[1],
    )
    return err_model, err_nmf, ranked


def test_6_synthetic_recovery_beats_nmf_and_ranks_paths(capsys):
    t0 = time.perf_counter()
    model_errs, nmf_errs, ranks = [], [], []
    for seed in range(20):
        err_model, err_nmf, ranked = _recovery_trial(seed)
        model_errs.append(err_model)
        nmf_errs.append(err_nmf)
        ranks.append(ranked)
    dt = time.perf_counter() - t0
    med_model = float(np.median(model_errs))
    med_nmf = float(np.median(nmf_errs))
    counts = [sum(int(r[i]) for r in ranks) for i in range(3)]
    ok = med_model < med_nmf and all(c >= 15 for c in counts) and dt < 600.0
    _report(
        capsys, 6, "synthetic recovery beats NMF and ranks informative paths", ok,
        f"median held-out RMSE {med_model:.4f} vs NMF {med_nmf:.4f}; informative "
        f"path ranked first in {counts[0]}/{counts[1]}/{counts[2]} of 20 seeds "
        f"(user/item/cross), {dt:.0f}s",
    )
    assert med_model < med_nmf
    assert all(c >= 15 for c in counts)
    assert dt < 600.0


# ------------------------------------------------------------ 7: density rule


def test_7_density_rule_exact_on_1000_matrices(capsys):
    rng = np.random.default_rng(707)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 30))
        total = n * m
        k = int(rng.integers(0, total + 1))
        flat = rng.choice(total, size=k, replace=False)
        vals = rng.uniform(0.01, 1.0, size=k)
        ratings = RatingMatrix(n, m, flat // m, flat % m, vals)
        exact = exact and mu_from_density(ratings) == count_observed(vals) / total
    _report(
        capsys, 7, "density rule exact against counting oracle", exact,
        "1000 random sparse matrices, exact float equality",
    )
    assert exact


# ------------------------------------------------------------ 8: scaling


def _r_squared(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())


def test_8_training_time_linear_in_d_and_grid_size(capsys):
    t0 = time.perf_counter()
    scaling_benchmark(repeats=1)  # warm caches and allocators off the record
    rows = scaling_benchmark(base_spec=SynthSpec().scaled(3.0), repeats=5)
    dt = time.perf_counter() - t0
    d_rows, size_rows = rows[:4], rows[4:]
    r2_d = _r_squared([r.d for r in d_rows], [r.seconds_median for r in d_rows])
    r2_size = _r_squared(
        [r.n * r.m for r in size_rows], [r.seconds_median for r in size_rows]
    )
    ok = r2_d > 0.95 and r2_size > 0.95 and dt < 900.0
    d_ms = ", ".join(f"d={r.d} {r.seconds_median * 1e3:.2f}" for r in d_rows)
    size_ms = ", ".join(f"{r.n}x{r.m} {r.seconds_median * 1e3:.2f}" for r in size_rows)
    _report(
        capsys, 8, "training time linear in d and in grid size", ok,
        f"R^2 vs d {r2_d:.3f}, R^2 vs n*m {r2_size:.3f}, {dt:.0f}s;"
        f" median ms: {d_ms}; {size_ms}",
    )
    assert r2_d > 0.95, f"R^2 vs d {r2_d:.3f}; median ms: {d_ms}"
    assert r2_size > 0.95, f"R^2 vs n*m {r2_size:.3f}; median ms: {size_ms}"
    assert dt < 900.0


# ------------------------------------------------------- 9: report protocol


def test_9_experiment_grid_shape_and_metric_order(capsys):
    spec = SynthSpec(seed=9)
    inputs = set_up(generate(spec), default_paths(spec.schema), default_target_path(spec.schema))
    hp = Hyperparams(
        d=5, lam=0.01, learn_rate=0.1, inner_tol=1e-4, outer_tol=1e-4,
        max_inner=5, max_outer=2, seed=0,
    )
    report = run_experiment(
        inputs.ratings, inputs.rels, methods=METHODS, fractions=(0.4, 0.6),
        d_values=(5, 10), trials=10, seed=0, hp=hp,
    )
    expected_cells = len(METHODS) * 2 * 2 * 2
    shape_ok = len(report.cells) == expected_cells and not report.failures
    order_ok = True
    for method in METHODS:
        for fraction in (0.4, 0.6):
            for d in (5, 10):
                mae = report.cell(method, fraction, d, "MAE")
                rms = report.cell(method, fraction, d, "RMSE")
                shape_ok = shape_ok and len(mae.values) == 10 == len(rms.values)
                shape_ok = shape_ok and np.isfinite([mae.mean, mae.sd, rms.mean, rms.sd]).all()
                order_ok = order_ok and all(
                    r >= a for r, a in zip(rms.values, mae.values)
                )
                order_ok = order_ok and rms.mean >= mae.mean
    ok = shape_ok and order_ok
    _report(
        capsys, 9, "evaluation grid shape and metric ordering", ok,
        f"{len(report.cells)} cells = {len(METHODS)} methods x 2 fractions x "
        f"2 ranks x 2 metrics, 10 trials each, RMSE >= MAE everywhere: {order_ok}",
    )
    assert shape_ok
    assert order_ok
