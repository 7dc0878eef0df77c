"""Two-phase descent: init, gradients, accept/reject, convergence, active set."""

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

import hetecf.learner as learner
import hetecf.model
from hetecf import (
    DivergenceError,
    FactorModel,
    Hyperparams,
    NumericalError,
    PathWeights,
    RatingMatrix,
    load_graph,
    load_path_spec,
    parse_path,
    train,
)
from hetecf.learner import (
    build_problem,
    grad_factors,
    grad_weights,
    init,
    set_up,
    update_factors,
    update_weights,
    write_training_log,
)
from hetecf.metapath import RelationSet
from hetecf.model import trace_quad

from conftest import random_instance, random_ratings
from oracles import PlainLogisticMF, central_difference, objective


def empty_rels():
    return RelationSet([], [], [])


# --------------------------------------------------------------------- init


def test_init_deterministic_and_in_range():
    hp = Hyperparams(d=4, seed=11)
    s1 = init(hp, (6, 5, 2, 1, 3))
    s2 = init(hp, (6, 5, 2, 1, 3))
    assert np.array_equal(s1.model.U, s2.model.U)
    assert np.array_equal(s1.weights.w, s2.weights.w)
    assert s1.model.U.shape == (6, 4) and s1.model.V.shape == (5, 4)
    assert np.all(np.abs(s1.model.U) <= 0.01) and np.all(np.abs(s1.model.V) <= 0.01)
    for arr in (s1.weights.alpha, s1.weights.beta, s1.weights.w):
        assert np.all((arr >= 0) & (arr < 1))
    assert s1.weights.counts == (2, 1, 3)
    assert s1.factor_step == s1.weight_step == hp.learn_rate


def test_init_seed_changes_start():
    shapes = (4, 4, 1, 1, 1)
    a = init(Hyperparams(seed=0), shapes)
    b = init(Hyperparams(seed=1), shapes)
    assert not np.array_equal(a.model.U, b.model.U)


def test_init_factor_stream_independent_of_weight_counts():
    # zero-size weight draws consume no generator state, so the factors of a
    # run without auxiliary paths coincide with those of a full run
    hp = Hyperparams(d=3, seed=5)
    bare = init(hp, (5, 4, 0, 0, 0))
    full = init(hp, (5, 4, 2, 2, 2))
    assert np.array_equal(bare.model.U, full.model.U)
    assert np.array_equal(bare.model.V, full.model.V)


def test_init_rejects_empty_sides():
    with pytest.raises(ValueError):
        init(Hyperparams(), (0, 3, 0, 0, 0))


# ---------------------------------------------------------------- gradients


def test_gradient_zero_at_stationary_point():
    # all observed targets (ratings and relation entries) at 0.5 with zero
    # factors and zero weights: every term of the gradient vanishes
    rng = np.random.default_rng(2)
    ratings, rels, hp = random_instance(rng, n=6, m=5, d=3)
    ratings = RatingMatrix(
        ratings.n, ratings.m, ratings.rows, ratings.cols,
        np.full(ratings.nnz, 0.5),
    )
    for sim in rels.user_item:
        sim.matrix.data[:] = 0.5
    data = build_problem(ratings, rels, hp)
    state = init(hp, (6, 5, 2, 2, 2))
    state.model = FactorModel(np.zeros((6, 3)), np.zeros((5, 3)))
    state.weights = PathWeights(np.zeros(2), np.zeros(2), np.zeros(2))
    dU, dV = grad_factors(state, data)
    assert np.all(dU == 0.0) and np.all(dV == 0.0)
    dA, dB, dW = grad_weights(state, data)
    assert np.all(dA == 0.0) and np.all(dB == 0.0) and np.all(dW == 0.0)


def test_factor_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    for _ in range(3):
        ratings, rels, hp = random_instance(rng, n=5, m=4, d=2)
        n, m, d = 5, 4, 2
        data = build_problem(ratings, rels, hp)
        state = init(hp, (n, m, 2, 2, 2))
        state.model = FactorModel(
            rng.normal(scale=0.5, size=(n, d)), rng.normal(scale=0.5, size=(m, d))
        )
        dU, dV = grad_factors(state, data)

        def f(vec):
            model = FactorModel(
                vec[: n * d].reshape(n, d), vec[n * d:].reshape(m, d)
            )
            return objective(
                model, state.weights, ratings, rels, hp,
                laps=data.laps, mu=data.mu,
            )

        x0 = np.concatenate([state.model.U.ravel(), state.model.V.ravel()])
        num = central_difference(f, x0)
        got = np.concatenate([dU.ravel(), dV.ravel()])
        assert np.allclose(got, num, rtol=1e-5, atol=1e-7)


def test_weight_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    ratings, rels, hp = random_instance(rng, n=5, m=4, d=2)
    data = build_problem(ratings, rels, hp)
    state = init(hp, (5, 4, 2, 2, 2))
    state.model = FactorModel(
        rng.normal(scale=0.5, size=(5, 2)), rng.normal(scale=0.5, size=(4, 2))
    )
    dA, dB, dW = grad_weights(state, data)

    def f(theta):
        wts = PathWeights(theta[:2], theta[2:4], theta[4:6])
        return objective(
            state.model, wts, ratings, rels, hp, laps=data.laps, mu=data.mu
        )

    theta0 = np.concatenate(
        [state.weights.alpha, state.weights.beta, state.weights.w]
    )
    num = central_difference(f, theta0)
    got = np.concatenate([dA, dB, dW])
    assert np.allclose(got, num, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("n_uu, n_ii", [(2, 0), (0, 2)])
def test_graph_paths_of_one_side_only_match_the_oracle(n_uu, n_ii):
    # the Problem keeps the Laplacians in one list, user-user first: with
    # paths of one side only, the boundary sits at either end of the list
    rng = np.random.default_rng(36 + n_uu)
    n, m, d = 5, 4, 2
    ratings, rels, hp = random_instance(rng, n=n, m=m, d=d, n_uu=n_uu, n_ii=n_ii)
    data = build_problem(ratings, rels, hp)
    state = init(hp, (n, m, n_uu, n_ii, 2))
    state.model = FactorModel(
        rng.normal(scale=0.5, size=(n, d)), rng.normal(scale=0.5, size=(m, d))
    )
    dU, dV = grad_factors(state, data)
    dA, dB, dW = grad_weights(state, data)
    k = (n + m) * d

    def f(vec):
        model = FactorModel(vec[: n * d].reshape(n, d), vec[n * d:k].reshape(m, d))
        theta = vec[k:]
        wts = PathWeights(theta[:n_uu], theta[n_uu:n_uu + n_ii], theta[n_uu + n_ii:])
        return objective(model, wts, ratings, rels, hp)

    wts = state.weights
    x0 = np.concatenate([state.model.U.ravel(), state.model.V.ravel(),
                         wts.alpha, wts.beta, wts.w])
    got = np.concatenate([dU.ravel(), dV.ravel(), dA, dB, dW])
    assert dA.shape == (n_uu,) and dB.shape == (n_ii,)
    assert np.allclose(got, central_difference(f, x0), rtol=1e-5, atol=1e-7)
    assert data.value(state.point, wts) == pytest.approx(f(x0), rel=1e-12)
    terms = data.terms(state.point, wts)
    assert (terms["user_graph"] > 0.0, terms["item_graph"] > 0.0) == (n_uu > 0, n_ii > 0)


def test_cold_user_gradient_is_pure_ridge():
    # a user with no ratings and no auxiliary paths: gradient reduces to the
    # fallback-count ridge term 2 * lam * U_i
    rng = np.random.default_rng(16)
    ratings = RatingMatrix.from_entries(
        4, 3, [(0, 0, 0.8), (1, 1, 0.3), (2, 2, 0.9)]
    )  # user 3 cold
    hp = Hyperparams(d=2, lam=0.05, mu=0.3)
    data = build_problem(ratings, empty_rels(), hp)
    state = init(hp, (4, 3, 0, 0, 0))
    state.model = FactorModel(rng.normal(size=(4, 2)), rng.normal(size=(3, 2)))
    state.weights = PathWeights([], [], [])
    dU, _ = grad_factors(state, data)
    assert np.allclose(dU[3], 2 * hp.lam * state.model.U[3], rtol=1e-15)


# ------------------------------------------------------------ descent loops


def test_inner_tol_inf_means_one_accepted_step_per_phase():
    rng = np.random.default_rng(17)
    ratings, rels, hp = random_instance(rng, n=6, m=5, d=2)
    hp = hp.with_overrides(
        inner_tol=np.inf, outer_tol=1e-9, max_outer=3, learn_rate=0.01
    )
    state = train(ratings, rels, hp)
    assert state.factor_steps == state.outer_iters
    assert state.weight_steps == state.outer_iters


def test_max_inner_caps_accepted_steps():
    rng = np.random.default_rng(18)
    ratings, rels, hp = random_instance(rng, n=6, m=5, d=2)
    hp = hp.with_overrides(max_inner=2, max_outer=4, inner_tol=1e-9, outer_tol=1e-9)
    state = train(ratings, rels, hp)
    assert state.factor_steps <= 2 * state.outer_iters
    assert state.weight_steps <= 2 * state.outer_iters


def test_accepted_step_trace_never_increases():
    rng = np.random.default_rng(19)
    for seed in range(5):
        ratings, rels, hp = random_instance(rng, n=7, m=6, d=3)
        hp = hp.with_overrides(seed=seed, max_outer=5)
        state = train(ratings, rels, hp)
        trace = np.array([state.j_trace[0]] + state.step_trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert state.j_trace[-1] <= state.j_trace[0]


def test_training_descends_from_random_start():
    rng = np.random.default_rng(20)
    ratings, rels, hp = random_instance(rng, n=8, m=6, d=3)
    state = train(ratings, rels, hp.with_overrides(max_outer=5))
    assert state.j_trace[-1] < state.j_trace[0]
    assert state.outer_iters >= 1


def test_max_outer_zero_returns_initial_state():
    rng = np.random.default_rng(21)
    ratings, rels, hp = random_instance(rng, n=5, m=4, d=2)
    hp = hp.with_overrides(max_outer=0)
    state = train(ratings, rels, hp)
    fresh = init(hp, (5, 4, 2, 2, 2))
    assert np.array_equal(state.model.U, fresh.model.U)
    assert state.outer_iters == 0
    assert len(state.j_trace) == 1
    assert not state.converged


def test_convergence_flag_on_tight_problem():
    # tiny problem, generous iteration budget: the outer loop must stop on
    # the relative-change criterion rather than exhaust max_outer
    rng = np.random.default_rng(22)
    ratings = random_ratings(rng, 4, 3, density=0.5)
    hp = Hyperparams(d=2, lam=0.01, learn_rate=0.3, inner_tol=1e-6,
                     outer_tol=1e-2, max_inner=200, max_outer=50, seed=3)
    state = train(ratings, empty_rels(), hp)
    assert state.converged
    assert state.outer_iters < 50


def test_weight_phase_skipped_when_no_paths():
    rng = np.random.default_rng(23)
    ratings = random_ratings(rng, 5, 4, density=0.5)
    state = train(ratings, empty_rels(), Hyperparams(d=2, max_outer=3))
    assert state.weight_steps == 0
    assert state.weights.counts == (0, 0, 0)


# ------------------------------------------------------------- weight phase


def weight_phase_state(rel_vals, w0, hp, n=4, m=3, nnz=6):
    """Zero factors, zero alpha/beta, a single user-item path whose entries
    all equal ``rel_vals``: the weight gradient is then exactly
    mu * ssq + 2 * lam * w with ssq = nnz * (0.5 - rel_vals)^2."""
    from hetecf import Schema, Relation, make_path
    from hetecf.metapath import SimilarityMatrix
    import scipy.sparse as sps

    schema = Schema(("U", "I"), "U", "I", (Relation("r", "U", "I"),))
    path = make_path(schema, [("r", True)])
    rows = np.arange(nnz) % n
    cols = np.arange(nnz) % m
    mat = sps.csr_array(
        (np.full(nnz, rel_vals), (rows, cols)), shape=(n, m)
    )
    rels = RelationSet([], [], [SimilarityMatrix(path, mat)])
    ratings = RatingMatrix(n, m, [0], [0], [0.5])
    data = build_problem(ratings, rels, hp)
    state = init(hp, (n, m, 0, 0, 1))
    state.model = FactorModel(np.zeros((n, hp.d)), np.zeros((m, hp.d)))
    state.weights = PathWeights([], [], [w0])
    return state, data


def test_weight_decay_is_geometric_when_residual_vanishes():
    # relation entries equal the flat prediction 0.5, so the data term of the
    # weight gradient is zero and each accepted step scales w by (1 - 2*lam*eta)
    hp = Hyperparams(d=2, lam=0.1, mu=1.0, learn_rate=0.25,
                     inner_tol=1e-9, max_inner=3, max_outer=1)
    state, data = weight_phase_state(rel_vals=0.5, w0=0.8, hp=hp)
    state.j_value = np.nan
    update_weights(state, data)
    factor = 1.0 - 2.0 * hp.lam * hp.learn_rate
    assert state.weights.w[0] == pytest.approx(0.8 * factor**3, rel=1e-12)
    assert state.weight_steps == 3


def test_weight_clamped_to_exact_zero_on_overshoot():
    hp = Hyperparams(d=2, lam=0.01, mu=1.0, learn_rate=0.5,
                     inner_tol=1e-9, max_inner=1, max_outer=1)
    # entries at 1.0: ssq = 6 * 0.25 = 1.5, step = 0.5 * 1.5 > w0
    state, data = weight_phase_state(rel_vals=1.0, w0=0.5, hp=hp)
    state.j_value = np.nan
    update_weights(state, data)
    assert state.weights.w[0] == 0.0
    assert state.weight_steps == 1


def test_informative_path_decays_slower_than_noise():
    # two user-item paths against the same zero-factor predictions: the one
    # whose entries sit at the prediction keeps more weight than the one far
    # from it, because only the latter accrues data-term decay
    from hetecf import Schema, Relation, make_path
    from hetecf.metapath import SimilarityMatrix
    import scipy.sparse as sps

    schema = Schema(("U", "I"), "U", "I", (Relation("r", "U", "I"),))
    path = make_path(schema, [("r", True)])
    n, m, nnz = 4, 3, 6
    rows, cols = np.arange(nnz) % n, np.arange(nnz) % m

    def sim(v):
        return SimilarityMatrix(
            path,
            sps.csr_array((np.full(nnz, v), (rows, cols)), shape=(n, m)),
        )

    rels = RelationSet([], [], [sim(0.5), sim(1.0)])
    ratings = RatingMatrix(n, m, [0], [0], [0.5])
    hp = Hyperparams(d=2, lam=0.01, mu=1.0, learn_rate=0.2,
                     inner_tol=1e-9, max_inner=10, max_outer=1)
    data = build_problem(ratings, rels, hp)
    state = init(hp, (n, m, 0, 0, 2))
    state.model = FactorModel(np.zeros((n, 2)), np.zeros((m, 2)))
    state.weights = PathWeights([], [], [0.7, 0.7])
    state.j_value = np.nan
    update_weights(state, data)
    assert state.weights.w[0] > state.weights.w[1]


# ---------------------------------------------------- equivalence reduction


def test_reduces_to_plain_logistic_mf_without_paths():
    rng = np.random.default_rng(24)
    for seed in (0, 7, 19):
        ratings = random_ratings(rng, 8, 6, density=0.4)
        hp = Hyperparams(d=3, lam=0.01, learn_rate=0.1, inner_tol=1e-3,
                         outer_tol=1e-3, max_inner=20, max_outer=8, seed=seed)
        state = train(ratings, empty_rels(), hp)
        oracle = PlainLogisticMF(hp).fit(ratings)
        assert np.max(np.abs(state.model.U - oracle.U)) < 1e-12
        assert np.max(np.abs(state.model.V - oracle.V)) < 1e-12
        assert state.j_trace == pytest.approx(oracle.j_trace, rel=1e-12)


def test_training_bit_identical_across_reruns():
    rng = np.random.default_rng(25)
    ratings, rels, hp = random_instance(rng, n=6, m=5, d=2)
    hp = hp.with_overrides(max_outer=4)
    s1 = train(ratings, rels, hp)
    s2 = train(ratings, rels, hp)
    assert np.array_equal(s1.model.U, s2.model.U)
    assert np.array_equal(s1.model.V, s2.model.V)
    assert np.array_equal(s1.weights.w, s2.weights.w)
    assert s1.j_trace == s2.j_trace


# ------------------------------------------------------- divergence handling


def test_divergence_error_after_halving_budget(monkeypatch):
    rng = np.random.default_rng(26)
    ratings, rels, hp = random_instance(rng, n=5, m=4, d=2)

    ticks = iter(range(10_000))

    def rising(*args, **kwargs):
        return float(next(ticks))

    monkeypatch.setattr(learner.Problem, "value", rising)
    with pytest.raises(DivergenceError) as err:
        train(ratings, rels, hp)
    assert "halvings" in str(err.value)
    assert err.value.j_trace == []  # no step was ever accepted


def test_divergence_records_halvings(monkeypatch):
    rng = np.random.default_rng(27)
    ratings, rels, hp = random_instance(rng, n=5, m=4, d=2)
    seen = {}

    orig = learner._descend

    def spy(state, data, propose, phase):
        try:
            return orig(state, data, propose, phase)
        finally:
            seen["halvings"] = state.halvings
            seen["factor_step"] = state.factor_step
            seen["weight_step"] = state.weight_step

    ticks = iter(range(10_000))
    monkeypatch.setattr(learner.Problem, "value", lambda *a, **k: float(next(ticks)))
    monkeypatch.setattr(learner, "_descend", spy)
    assert hp.max_inner > learner.MAX_HALVINGS  # the first factor phase diverges
    with pytest.raises(DivergenceError):
        train(ratings, rels, hp)
    assert seen["halvings"] == learner.MAX_HALVINGS + 1
    assert seen["factor_step"] == hp.learn_rate * 0.5 ** (learner.MAX_HALVINGS + 1)
    assert seen["weight_step"] == hp.learn_rate


# ------------------------------------------------------ step and stop rules


def record_steps(monkeypatch):
    """Record (phase, step, accepted steps so far) for every candidate."""
    seen = []
    descend = learner._descend

    def spy(state, data, propose, phase):
        def recorded(state, step):
            seen.append((phase, step, getattr(state, f"{phase}_steps")))
            return propose(state, step)
        return descend(state, data, recorded, phase)

    monkeypatch.setattr(learner, "_descend", spy)
    return seen


def test_factor_step_grows_by_a_fifth_per_accepted_step(monkeypatch):
    seen = record_steps(monkeypatch)
    ratings, rels, hp, _, _ = two_path_instance("dense")
    state = train(ratings, rels, hp)
    factor = [(step, acc) for phase, step, acc in seen if phase == "factor"]
    grew = halved = 0
    for (step, acc), (nxt, acc_next) in zip(factor, factor[1:]):
        if acc_next > acc:
            assert nxt == step * 1.2
            grew += 1
        else:
            assert nxt == step * 0.5
            halved += 1
    assert grew > 0 and halved > 0
    assert state.factor_step > hp.learn_rate
    # the weight step never grows: every weight candidate was accepted here
    weight = [step for phase, step, _ in seen if phase == "weight"]
    assert state.weight_steps == len(weight) > 0 and state.weight_rejected == 0
    assert weight == [hp.learn_rate] * len(weight)
    assert state.weight_step == hp.learn_rate


def rejecting_every_other_candidate(monkeypatch):
    """Make the 1st, 3rd, 5th ... objective value asked for read 1e6 higher."""
    value = learner.Problem.value
    calls = iter(range(10_000))
    monkeypatch.setattr(
        learner.Problem, "value",
        lambda self, *a: value(self, *a) + (1e6 if next(calls) % 2 == 0 else 0.0),
    )


@pytest.mark.parametrize("phase", ["factor", "weight"])
def test_each_rejection_halves_that_phases_step(phase, monkeypatch):
    # max_inner below 5: each rejection halves the step all the same
    ratings, rels, hp, _, state = density_instance("dense")
    hp = hp.with_overrides(learn_rate=0.01, inner_tol=1e-12, max_inner=4)
    problem = build_problem(ratings, rels, hp)
    state.factor_step = state.weight_step = hp.learn_rate
    state.j_value = problem.value(problem.evaluate(state.model, every_path=True),
                                  state.weights)
    seen = record_steps(monkeypatch)
    rejecting_every_other_candidate(monkeypatch)
    (update_factors if phase == "factor" else update_weights)(state, problem)
    assert getattr(state, f"{phase}_rejected") == 2
    assert getattr(state, f"{phase}_steps") == 2
    lr = hp.learn_rate
    grow = 1.2 if phase == "factor" else 1.0
    assert [step for _, step, _ in seen] == [lr, lr * 0.5, lr * 0.5 * grow,
                                            lr * 0.5 * grow * 0.5]
    assert getattr(state, f"{phase}_step") == lr * 0.5 * grow * 0.5 * grow
    other = "weight" if phase == "factor" else "factor"
    assert getattr(state, f"{other}_step") == lr
    assert state.halvings == 2


def test_divergence_budget_spans_both_phases(monkeypatch):
    # six rejected factor candidates, then five rejected weight candidates:
    # the eleventh halving with no accepted step in between aborts the run
    rng = np.random.default_rng(28)
    ratings, rels, hp = random_instance(rng, n=5, m=4, d=2)
    hp = hp.with_overrides(max_inner=6)
    seen = record_steps(monkeypatch)
    ticks = iter(range(10_000))
    monkeypatch.setattr(learner.Problem, "value", lambda *a, **k: float(next(ticks)))
    with pytest.raises(DivergenceError, match="without an accepted step"):
        train(ratings, rels, hp)
    phases = [phase for phase, _, _ in seen]
    assert phases == ["factor"] * 6 + ["weight"] * (learner.MAX_HALVINGS + 1 - 6)


def test_halvings_spread_across_accepted_steps_do_not_abort(monkeypatch):
    # a real run halves far more often than MAX_HALVINGS ...
    ratings, rels, hp, _, _ = two_path_instance("dense")
    state = train(ratings, rels, hp)
    assert state.halvings > learner.MAX_HALVINGS and state.stalled_halvings == 0
    assert state.outer_iters == hp.max_outer
    # ... and MAX_HALVINGS in a row, each time followed by an accepted
    # step, never abort
    rng = np.random.default_rng(29)
    ratings, rels, hp = random_instance(rng, n=5, m=4, d=2)
    hp = hp.with_overrides(max_inner=3 * (learner.MAX_HALVINGS + 1), max_outer=1,
                           inner_tol=1e-300)
    calls = iter(range(10_000))
    monkeypatch.setattr(
        learner.Problem, "value",
        lambda *a: 5.0 if next(calls) % (learner.MAX_HALVINGS + 1) else 0.0,
    )
    state = train(ratings, rels, hp)
    assert state.factor_rejected == state.weight_rejected == 3 * learner.MAX_HALVINGS
    assert state.halvings == 6 * learner.MAX_HALVINGS


def test_overflowing_candidate_is_rejected_and_halves_the_step():
    ratings, rels, hp, problem, state = density_instance("dense")
    problem = build_problem(ratings, rels, hp.with_overrides(max_inner=1))
    state.factor_step = 1e200
    dU, dV = grad_factors(state, problem)
    with np.errstate(over="ignore", invalid="ignore"):
        far = problem.evaluate(FactorModel(state.model.U - 1e200 * dU,
                                           state.model.V - 1e200 * dV))
    assert far.factor_ridge == np.inf
    U, j = state.model.U, problem.value(state.point, state.weights)
    state.j_value = j
    update_factors(state, problem)
    assert state.factor_rejected == 1 and state.factor_steps == 0
    assert state.factor_step == 0.5e200 and state.halvings == 1
    assert state.model.U is U and state.j_value == j


def test_decaying_weights_do_not_block_convergence(caplog):
    # graph paths so weak that their traces barely count: alpha and beta
    # decay through the ridge alone, by about 6% per outer iteration, while
    # U, V and J settle
    rng = np.random.default_rng([41, 2])
    ratings, rels, hp = random_instance(rng, n=8, m=6, d=2, n_uu=1, n_ii=1, n_ui=0)
    for sim in rels.user_user + rels.item_item:
        sim.matrix.data *= 1e-6
    hp = hp.with_overrides(outer_tol=1e-2, max_outer=60, max_inner=30)
    with caplog.at_level("INFO", logger="hetecf.learner"):
        state = train(ratings, rels, hp)
    assert state.converged and state.outer_iters < hp.max_outer
    last = state.log_rows[-1]
    assert min(last["rel_change_alpha"], last["rel_change_beta"]) > hp.outer_tol
    assert max(last["rel_change_U"], last["rel_change_V"]) < hp.outer_tol
    j0, j1 = state.j_trace[-2:]
    assert abs(j1 - j0) / abs(j0) < hp.outer_tol
    lines = [r.getMessage() for r in caplog.records if "converged" in r.getMessage()]
    assert len(lines) == 1
    assert lines[0].startswith(f"converged at iteration {state.outer_iters}: ")
    assert f"below outer_tol {hp.outer_tol:g}" in lines[0]


def test_oracle_takes_nothing_from_the_package():
    import ast
    import oracles

    with open(oracles.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported and not any(name.split(".")[0] == "hetecf" for name in imported)


# -------------------------------------------------------------- logging csv


def test_training_log_round_trip(tmp_path):
    import csv

    rng = np.random.default_rng(31)
    ratings, rels, hp = random_instance(rng, n=6, m=5, d=2)
    state = train(ratings, rels, hp.with_overrides(max_outer=3))
    f = str(tmp_path / "log.csv")
    write_training_log(f, state)
    with open(f, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == state.outer_iters
    assert rows[0]["iteration"] == "1"
    objs = [float(r["objective"]) for r in rows]
    assert objs == pytest.approx([r["objective"] for r in state.log_rows])
    assert set(rows[0]) == {
        "iteration", "objective", "rel_change_U", "rel_change_V",
        "rel_change_alpha", "rel_change_beta", "rel_change_w",
        "factor_step", "weight_step",
        "fit", "user_graph", "item_graph", "relation_fit", "ridge",
        "factor_accepted", "factor_rejected", "factor_seconds",
        "weight_accepted", "weight_rejected", "weight_seconds",
        "factor_pairs", "graph_products",
    }
    for row in rows:
        assert all(np.isfinite(float(v)) for v in row.values())  # plain numbers
        terms = [float(row[k]) for k in
                 ("fit", "user_graph", "item_graph", "relation_fit", "ridge")]
        assert sum(terms) == pytest.approx(float(row["objective"]), rel=1e-12)


def test_halvings_are_the_rejected_candidates_of_both_phases():
    # the bundled sample at its shipped settings rejects factor candidates
    root = pathlib.Path(__file__).resolve().parent.parent
    cfg = json.loads((root / "sample_data" / "config.json").read_text())
    graph = load_graph(*(str(root / cfg[k]) for k in ("nodes", "edges", "schema")))
    groups = load_path_spec(str(root / cfg["paths"]), graph.schema)
    inputs = set_up(graph, groups, parse_path(cfg["target_path"], graph.schema))
    state = train(inputs.ratings, inputs.rels, Hyperparams(**cfg["hyperparams"]))
    assert state.factor_rejected > 0
    assert state.halvings == state.factor_rejected + state.weight_rejected
    logged = sum(r["factor_rejected"] + r["weight_rejected"] for r in state.log_rows)
    assert logged == state.halvings
    with pytest.raises(AttributeError):
        state.halvings = 0


# ------------------------------------------------- dense and gather sides


def density_instance(side):
    """A fully rated instance (dense side) or one at <= 10% entry density
    (gather side), with random factors away from the start."""
    rng = np.random.default_rng(32)
    if side == "dense":
        n, m, density = 6, 5, 1.0
    else:
        n, m, density = 40, 30, 0.03
    ratings, rels, hp = random_instance(rng, n=n, m=m, d=2, density=density)
    problem = build_problem(ratings, rels, hp)
    if side == "dense":
        assert problem.dense and problem.density == 1.0
    else:
        assert not problem.dense and problem.density <= 0.1
    state = init(hp, (n, m, 2, 2, 2))
    state.model = FactorModel(
        rng.normal(scale=0.5, size=(n, 2)), rng.normal(scale=0.5, size=(m, 2))
    )
    return ratings, rels, hp, problem, state


def test_gathered_entry_half_and_serving_share_the_pair_kernel(monkeypatch):
    """On the gather side the entry half's slopes are f' of the very
    predictions serving makes for the same pairs, byte for byte; blocks
    of 7 pairs make the gather run several of them."""
    monkeypatch.setattr(hetecf.model, "_GATHER_CHUNK", 7)
    *_, problem, state = density_instance("gather")
    U, V = state.model.U, state.model.V
    assert problem.n_pairs > 7
    slope = problem._entry_half(U, V)["slope"]
    p = FactorModel(U, V).predict_pairs(problem._pair_rows, problem._pair_cols)
    assert slope.tobytes() == (p * (1 - p)).tobytes()


@pytest.mark.parametrize("side", ["dense", "gather"])
def test_problem_value_matches_objective(side):
    ratings, rels, hp, problem, state = density_instance(side)
    want = objective(state.model, state.weights, ratings, rels, hp)
    got = problem.value(problem.evaluate(state.model), state.weights)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("side", ["dense", "gather"])
def test_problem_factor_gradient_matches_finite_differences(side):
    ratings, rels, hp, problem, state = density_instance(side)
    n, d = state.model.U.shape
    m = state.model.m
    dU, dV = grad_factors(state, problem)

    def f(vec):
        model = FactorModel(vec[: n * d].reshape(n, d), vec[n * d:].reshape(m, d))
        return objective(model, state.weights, ratings, rels, hp)

    x0 = np.concatenate([state.model.U.ravel(), state.model.V.ravel()])
    num = central_difference(f, x0)
    got = np.concatenate([dU.ravel(), dV.ravel()])
    assert np.allclose(got, num, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("side", ["dense", "gather"])
def test_closed_form_weight_candidate_matches_objective(side):
    ratings, rels, hp, problem, state = density_instance(side)
    dA, dB, dW = grad_weights(state, problem)
    eta = 0.3
    candidate = PathWeights(
        np.maximum(state.weights.alpha - eta * dA, 0.0),
        np.maximum(state.weights.beta - eta * dB, 0.0),
        np.maximum(state.weights.w - eta * dW, 0.0),
    )
    got = problem.value(state.point, candidate)
    want = objective(state.model, candidate, ratings, rels, hp)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("side", ["dense", "gather"])
def test_weight_step_takes_the_gradient_of_grad_weights(side):
    # the weight phase steps along the gradient grad_weights returns, which
    # the finite-difference tests check, with numpy's bits
    ratings, rels, hp, _, state = density_instance(side)
    problem = build_problem(ratings, rels, hp.with_overrides(max_inner=1))
    dA, dB, dW = grad_weights(state, problem)
    before, eta = state.weights, state.weight_step
    update_weights(state, problem)
    assert state.weight_steps == 1
    for got, theta, grad in zip((state.weights.alpha, state.weights.beta, state.weights.w),
                                (before.alpha, before.beta, before.w), (dA, dB, dW)):
        assert np.array_equal(got, np.maximum(theta - eta * grad, 0.0))
        assert not np.array_equal(got, theta)


@pytest.mark.parametrize("side", ["dense", "gather"])
def test_training_bit_identical_on_each_side(side):
    ratings, rels, hp, _, _ = density_instance(side)
    hp = hp.with_overrides(max_outer=4)
    s1 = train(ratings, rels, hp)
    s2 = train(ratings, rels, hp)
    assert s1.factor_steps > 0 and s1.weight_steps > 0
    assert np.array_equal(s1.model.U, s2.model.U)
    assert np.array_equal(s1.model.V, s2.model.V)
    assert np.array_equal(s1.weights.alpha, s2.weights.alpha)
    assert np.array_equal(s1.weights.beta, s2.weights.beta)
    assert np.array_equal(s1.weights.w, s2.weights.w)
    assert s1.j_trace == s2.j_trace


# ------------------------------------------------------------- active set


def two_path_instance(side):
    """Ratings and two user-item relations on the dense or the gather side.

    Relation 0's entries sit at the start prediction 0.5, so its weight
    decays slowly and stays positive through four outer iterations;
    relation 1's are far from it, so an early weight phase (the first on
    the gather side, the second on the dense side) clamps its weight to
    exactly 0.  The step caps (30 candidates per phase from a
    step of 0.05) keep the factors slow enough for that.  Relation 1 gets
    a path of its own, so that log lines can name it.
    """
    from hetecf import Schema, Relation, make_path
    from hetecf.metapath import SimilarityMatrix

    rng = np.random.default_rng(33)
    n, m, density = (6, 5, 0.4) if side == "dense" else (40, 30, 0.03)
    ratings, rels, hp = random_instance(rng, n=n, m=m, d=2, density=density)
    # the Problem and state below use the instance's step, not the default
    hp = hp.with_overrides(max_outer=4, max_inner=30, learn_rate=0.05)
    rels.user_item[0].matrix.data[:] = 0.5
    schema = Schema(
        ("U", "X", "I"), "U", "I",
        (Relation("r1", "U", "X"), Relation("r2", "X", "I")),
    )
    path = make_path(schema, [("r1", True), ("r1", False), ("r1", True), ("r2", True)])
    rels.user_item[1] = SimilarityMatrix(path, rels.user_item[1].matrix)
    problem = build_problem(ratings, rels, hp)
    assert problem.dense == (side == "dense")
    state = init(hp, (n, m, 2, 2, 2))
    state.model = FactorModel(
        rng.normal(scale=0.5, size=(n, 2)), rng.normal(scale=0.5, size=(m, 2))
    )
    return ratings, rels, hp, problem, state


def distinct_pairs(ratings, *sims):
    pairs = set(zip(ratings.rows.tolist(), ratings.cols.tolist()))
    for sim in sims:
        coo = sim.matrix.tocoo()
        pairs |= set(zip(coo.row.tolist(), coo.col.tolist()))
    return len(pairs)


def comparable_rows(state):
    return [{k: v for k, v in row.items()
             if not k.endswith("_seconds") and k not in ("factor_pairs", "graph_products")}
            for row in state.log_rows]


@pytest.mark.parametrize("side", ["dense", "gather"])
def test_active_set_training_bit_identical_to_all_blocks(side, monkeypatch):
    ratings, rels, hp, _, _ = two_path_instance(side)
    got = train(ratings, rels, hp)
    assert got.weights.w[0] > 0.0 and got.weights.w[1] == 0.0
    pairs = [row["factor_pairs"] for row in got.log_rows]
    assert pairs[0] == distinct_pairs(ratings, *rels.user_item)
    assert pairs[-1] == distinct_pairs(ratings, rels.user_item[0]) < pairs[0]

    monkeypatch.setattr(learner, "active_relations", lambda w: tuple(range(w.size)))
    want = train(ratings, rels, hp)
    assert [row["factor_pairs"] for row in want.log_rows] == [pairs[0]] * len(pairs)
    assert [row["graph_products"] for row in want.log_rows] == [4] * len(pairs)
    for name in ("U", "V"):
        a, b = getattr(got.model, name), getattr(want.model, name)
        assert a.tobytes() == b.tobytes()
    for name in ("alpha", "beta", "w"):
        a, b = getattr(got.weights, name), getattr(want.weights, name)
        assert a.tobytes() == b.tobytes()
    assert got.j_trace == want.j_trace
    assert got.step_trace == want.step_trace
    assert got.converged == want.converged
    assert comparable_rows(got) == comparable_rows(want)


@pytest.mark.parametrize("side", ["dense", "gather"])
def test_factor_gradient_after_a_path_leaves_matches_full_objective(side):
    ratings, rels, hp, problem, state = two_path_instance(side)
    state.weights = PathWeights(state.weights.alpha, state.weights.beta, [0.7, 0.0])
    problem.activate(state.weights)
    assert problem.active == (0,)
    n, d = state.model.U.shape
    m = state.model.m
    dU, dV = grad_factors(state, problem)

    def f(vec):
        model = FactorModel(vec[: n * d].reshape(n, d), vec[n * d:].reshape(m, d))
        return objective(model, state.weights, ratings, rels, hp)

    x0 = np.concatenate([state.model.U.ravel(), state.model.V.ravel()])
    num = central_difference(f, x0)
    got = np.concatenate([dU.ravel(), dV.ravel()])
    assert np.allclose(got, num, rtol=1e-5, atol=1e-7)
    assert problem.value(state.point, state.weights) == pytest.approx(f(x0), rel=1e-12)


def test_inactive_weight_stays_zero_through_a_weight_phase():
    _, _, _, problem, state = two_path_instance("gather")
    state.weights = PathWeights(state.weights.alpha, state.weights.beta, [0.6, 0.0])
    update_factors(state, problem)
    assert problem.active == (0,) and state.factor_steps > 0
    update_weights(state, problem)
    assert state.weight_steps > 0
    assert 0.0 < state.weights.w[0] < 0.6
    assert state.weights.w[1] == 0.0


def test_point_is_never_used_under_another_active_set():
    _, _, _, problem, state = two_path_instance("gather")
    old = problem.evaluate(state.model)
    assert old.active == (0, 1)
    weights = PathWeights(state.weights.alpha, state.weights.beta, [0.6, 0.0])
    problem.activate(weights)
    for use in (problem.value, problem.terms, problem.factor_gradient,
                problem.weight_costs):
        with pytest.raises(ValueError, match="active set"):
            use(old, weights)
    # the state's Point is evaluated again on the current set before use
    state.point, state.weights = old, weights
    grad_factors(state, problem)
    assert state.point is not old and state.point.active == (0,)
    # weights that are nonzero outside the set are refused as well
    with pytest.raises(ValueError, match="outside the active set"):
        problem.value(state.point, PathWeights(weights.alpha, weights.beta, [0.6, 0.1]))


def test_active_set_keeps_every_nonzero_weight():
    assert learner.active_relations(np.array([5e-324, 0.0, 1e-13, 0.4])) == (0, 2, 3)
    # a relation with a tiny weight stays in the entry list, so its share of
    # the relation fit equals the all-blocks route bit for bit
    _, _, _, problem, state = two_path_instance("gather")
    weights = PathWeights(state.weights.alpha, state.weights.beta, [0.0, 1e-200])
    all_blocks = problem.terms(problem.evaluate(state.model), weights)
    problem.activate(weights)
    assert problem.active == (1,)
    terms = problem.terms(problem.evaluate(state.model), weights)
    assert terms["relation_fit"] > 0.0
    assert terms == all_blocks


def test_sorted_entries_that_repeat_a_pair_are_summed_per_pair():
    # ratings at (0, 0) and (0, 1), relation entries at (0, 1) and (1, 0):
    # the keys 0, 1, 1, 2 are sorted but repeat a pair, so the entry list is
    # not one entry per pair in order
    from hetecf import Schema, Relation, make_path
    from hetecf.metapath import SimilarityMatrix
    import scipy.sparse as sps

    schema = Schema(("U", "I"), "U", "I", (Relation("r", "U", "I"),))
    path = make_path(schema, [("r", True)])
    mat = sps.csr_array(([0.3, 0.9], ([0, 1], [1, 0])), shape=(2, 2))
    rels = RelationSet([], [], [SimilarityMatrix(path, mat)])
    ratings = RatingMatrix(2, 2, [0, 0], [0, 1], [0.2, 0.7])
    hp = Hyperparams(d=2, lam=0.01, mu=0.5, seed=4)
    problem = build_problem(ratings, rels, hp)
    assert not problem._in_order and problem.n_pairs == 3
    state = init(hp, (2, 2, 0, 0, 1))
    rng = np.random.default_rng(35)
    state.model = FactorModel(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    dU, dV = grad_factors(state, problem)

    def f(vec):
        model = FactorModel(vec[:4].reshape(2, 2), vec[4:].reshape(2, 2))
        return objective(model, state.weights, ratings, rels, hp)

    x0 = np.concatenate([state.model.U.ravel(), state.model.V.ravel()])
    got = np.concatenate([dU.ravel(), dV.ravel()])
    assert np.allclose(got, central_difference(f, x0), rtol=1e-5, atol=1e-7)
    assert problem.value(state.point, state.weights) == pytest.approx(f(x0), rel=1e-12)


def test_log_names_the_paths_that_leave_the_active_set(caplog):
    # relation 1 leaves after the first outer iteration, and a user-user
    # path, whose alpha reaches exactly 0, after the third (both user-user
    # paths have the same name)
    ratings, rels, hp, _, _ = two_path_instance("gather")
    with caplog.at_level("INFO", logger="hetecf.learner"):
        train(ratings, rels, hp)
    lines = [r.getMessage() for r in caplog.records if "active set" in r.getMessage()]
    assert len(lines) == 2
    assert lines[0].startswith("active set: 1 of 2 user-item paths")
    assert lines[0].endswith(f"left: {rels.user_item[1].path.to_string()}")
    assert "1 of 2 user-user and 2 of 2 item-item Laplacians" in lines[1]
    assert lines[1].endswith(
        f"re-entered: none; left: {rels.user_user[0].path.to_string()}"
    )


def test_outer_iteration_that_accepts_nothing_does_not_converge():
    # a ridge so stiff that every factor step overshoots (|1 - 2 lam c eta|
    # > 1) rejects every candidate of the first two outer iterations: each
    # rejection halves the step, even with max_inner below 5, yet eight
    # halvings leave it too long.  Nothing moves, so U, V and J change by
    # 0 < outer_tol, and still no iteration converged
    rng = np.random.default_rng(34)
    ratings = random_ratings(rng, 5, 4, density=0.5)
    hp = Hyperparams(d=2, lam=200.0, learn_rate=0.5, max_inner=4, max_outer=2,
                     outer_tol=1e-3, seed=1)
    state = train(ratings, empty_rels(), hp)
    assert state.factor_steps == 0 and state.factor_rejected == 8
    assert state.halvings == 8 and state.factor_step == 0.5 * 0.5**8
    assert state.outer_iters == 2 and not state.converged
    assert state.j_trace == [state.j_trace[0]] * 3
    oracle = PlainLogisticMF(hp).fit(ratings)
    assert not oracle.converged
    assert state.j_trace == oracle.j_trace
    # one more outer iteration halves the step enough to accept
    state = train(ratings, empty_rels(), hp.with_overrides(max_outer=3))
    assert state.factor_steps > 0 and state.j_trace[-1] < state.j_trace[0]


# ------------------------------------------ skipping zero-weight Laplacians


def all_laplacians(monkeypatch):
    """Make every Laplacian active whatever its weight: the route that
    multiplies every Laplacian for every candidate."""
    activate = learner.Problem.activate

    def every_laplacian(self, weights):
        activate(self, weights)
        self.active_graph = tuple(range(len(self.graph)))

    monkeypatch.setattr(learner.Problem, "activate", every_laplacian)


def graph_weight_instance(side):
    """An instance on the dense or the gather side whose graph weights
    reach exactly 0 within 8 outer iterations."""
    if side == "dense":
        ratings, rels, hp, problem, state = density_instance("dense")
    else:
        ratings, rels, hp, problem, state = two_path_instance("gather")
    return ratings, rels, hp.with_overrides(max_outer=8), problem, state


@pytest.mark.parametrize("side", ["dense", "gather"])
def test_skipping_zero_weight_laplacians_bit_identical_to_all_laplacians(
        side, monkeypatch):
    ratings, rels, hp, _, _ = graph_weight_instance(side)
    got = train(ratings, rels, hp)
    products = [row["graph_products"] for row in got.log_rows]
    assert products[0] == 4 and min(products) < 4
    all_laplacians(monkeypatch)
    want = train(ratings, rels, hp)
    assert [row["graph_products"] for row in want.log_rows] == [4] * len(products)
    for name in ("U", "V"):
        assert getattr(got.model, name).tobytes() == getattr(want.model, name).tobytes()
    for name in ("alpha", "beta", "w"):
        a, b = getattr(got.weights, name), getattr(want.weights, name)
        assert a.tobytes() == b.tobytes()
    assert got.j_trace == want.j_trace
    assert got.step_trace == want.step_trace
    assert got.converged == want.converged
    assert comparable_rows(got) == comparable_rows(want)


def route_product(problem, k, X):
    """``L @ X`` of the Problem's k-th Laplacian, through its row blocks."""
    out = np.zeros((problem.graph[k][1].shape[0], X.shape[1]))
    for block in problem._blocks[k]:
        learner._multiply_rows(block, X, out)
    return out


def skipped_path_state(side):
    """Factors after one factor phase in which the first user-user and the
    second item-item Laplacian were skipped."""
    _, _, hp, problem, state = graph_weight_instance(side)
    state.weights = PathWeights([0.0, 0.4], [0.3, 0.0], state.weights.w)
    update_factors(state, problem)
    assert state.factor_steps > 0
    assert problem.active_graph == (1, 2)  # user-user 1 and item-item 0
    assert problem.graph_products == 2
    assert state.point.LX[0] is None and state.point.LX[3] is None
    return problem, state


@pytest.mark.parametrize("side", ["dense", "gather"])
def test_weight_gradient_of_a_skipped_path_is_its_trace(side, monkeypatch):
    problem, state = skipped_path_state(side)
    U, V = state.model.U, state.model.V
    calls = []
    monkeypatch.setattr(learner, "trace_quad",
                        lambda *a: calls.append(a) or trace_quad(*a))
    update_weights(state, problem)
    assert state.weight_steps > 1 and state.model.U is U
    assert len(calls) == 2  # the two skipped traces, once for the whole phase
    dA, dB, _ = grad_weights(state, problem)
    alpha, beta = state.weights.alpha, state.weights.beta
    # the trace of the product the Problem's route gives: the dense
    # kernel's on the dense side's full Laplacians, scipy's bytes otherwise
    assert dA[0] - 2 * problem.hp.lam * alpha[0] == trace_quad(
        problem.laps.user[0], U, route_product(problem, 0, U))
    assert dB[1] - 2 * problem.hp.lam * beta[1] == trace_quad(
        problem.laps.item[1], V, route_product(problem, 3, V))
    assert dA[0] > 0.0 and dB[1] > 0.0


@pytest.mark.parametrize("side", ["dense", "gather"])
def test_factor_gradient_with_skipped_laplacians_matches_full_objective(side):
    ratings, rels, hp, problem, state = graph_weight_instance(side)
    n, d = state.model.U.shape
    m = state.model.m

    def f(vec):
        model = FactorModel(vec[: n * d].reshape(n, d), vec[n * d:].reshape(m, d))
        return objective(model, state.weights, ratings, rels, hp)

    x0 = np.concatenate([state.model.U.ravel(), state.model.V.ravel()])
    for alpha, beta in (
        (state.weights.alpha, state.weights.beta),  # every Laplacian
        ([0.0, 0.4], [0.3, 0.0]),  # one path of each group left the set
    ):
        state.weights = PathWeights(alpha, beta, state.weights.w)
        problem.activate(state.weights)
        dU, dV = grad_factors(state, problem)
        num = central_difference(f, x0)
        got = np.concatenate([dU.ravel(), dV.ravel()])
        assert np.allclose(got, num, rtol=1e-5, atol=1e-7)
        assert problem.value(state.point, state.weights) == pytest.approx(f(x0), rel=1e-12)
    assert problem.graph_products == 2


def test_point_that_lacks_a_needed_product_is_refused():
    problem, state = skipped_path_state("dense")
    point = state.point
    needs = PathWeights([0.2, 0.4], [0.3, 0.0], state.weights.w)
    for use in (problem.value, problem.terms, problem.factor_gradient,
                problem.weight_costs):
        with pytest.raises(ValueError, match="lacks the Laplacian product"):
            use(point, needs)
    # the weight gradient needs every trace, whatever the weights
    with pytest.raises(ValueError, match="trace of every Laplacian"):
        problem.weight_costs(point, state.weights)
    # a Point whose products cover every nonzero weight is reused as it is
    problem.activate(state.weights)
    assert problem.evaluate(state.model, point) is point
    # one that lacks a newly active product gets only that product
    problem.activate(needs)
    state.weights = needs
    grad_factors(state, problem)
    new = state.point
    assert new is not point and new.LX[0] is not None and new.LX[3] is None
    assert new.LX[1] is point.LX[1] and new.resid is point.resid
    fresh = problem.evaluate(state.model)
    assert problem.terms(new, needs) == problem.terms(fresh, needs)


def test_point_of_a_changed_entry_list_keeps_its_products():
    _, _, _, problem, state = two_path_instance("gather")
    base = problem.evaluate(state.model, every_path=True)
    weights = PathWeights(state.weights.alpha, state.weights.beta, [0.6, 0.0])
    problem.activate(weights)
    point = problem.evaluate(state.model, base)
    assert point.active == (0,) and point.resid.size < base.resid.size
    assert all(a is b for a, b in zip(point.LX, base.LX))
    fresh = problem.evaluate(state.model)
    assert problem.terms(point, weights) == problem.terms(fresh, weights)
    assert problem.value(point, weights) == problem.value(fresh, weights)
    with pytest.raises(ValueError, match="other factors"):
        problem.evaluate(FactorModel(state.model.U.copy(), state.model.V), base)


@pytest.mark.parametrize("factor, fill, label", [
    ("U", np.nan, "rating fit"),
    ("U", 1e200, "user graph regularizer"),
    ("V", 1e200, "item graph regularizer"),
])
def test_value_and_terms_name_the_first_non_finite_term(factor, fill, label):
    ratings, rels, hp = random_instance(np.random.default_rng(8))
    problem = build_problem(ratings, rels, hp)
    weights = PathWeights(np.ones(2), np.ones(2), np.ones(2))
    U, V = np.zeros((ratings.n, hp.d)), np.zeros((ratings.m, hp.d))
    (U if factor == "U" else V)[0, 0] = fill
    with np.errstate(over="ignore", invalid="ignore"):
        point = problem.evaluate(FactorModel(U, V))
        for measure in (problem.terms, problem.value):
            with pytest.raises(NumericalError, match=label):
                measure(point, weights)


def test_point_of_other_factors_is_evaluated_again():
    _, _, _, problem, state = graph_weight_instance("gather")
    state.point = problem.evaluate(state.model, every_path=True)
    state.model = FactorModel(state.model.U * 0.5, state.model.V)
    dU, dV = grad_factors(state, problem)
    assert state.point.model is state.model
    want = problem.factor_gradient(problem.evaluate(state.model), state.weights)
    assert np.array_equal(dU, want[0]) and np.array_equal(dV, want[1])


def test_log_names_the_laplacians_that_leave_and_re_enter(caplog):
    _, rels, _, problem, state = graph_weight_instance("dense")
    with caplog.at_level("INFO", logger="hetecf.learner"):
        problem.activate(PathWeights([0.0, 0.4], [0.3, 0.2], state.weights.w))
        problem.activate(PathWeights([0.5, 0.4], [0.3, 0.2], state.weights.w))
    lines = [r.getMessage() for r in caplog.records]
    name = rels.user_user[0].path.to_string()
    assert len(lines) == 2
    assert "1 of 2 user-user and 2 of 2 item-item Laplacians" in lines[0]
    assert lines[0].endswith(f"re-entered: none; left: {name}")
    assert "2 of 2 user-user and 2 of 2 item-item Laplacians" in lines[1]
    assert lines[1].endswith(f"re-entered: {name}; left: none")


def test_model_bytes_independent_of_blas_threads(tmp_path):
    import os
    import pathlib
    import subprocess
    import sys

    from hetecf import synth
    from hetecf.graph import save_graph

    graph = synth.generate(synth.SynthSpec(seed=0).scaled(5))
    files = [str(tmp_path / n) for n in ("nodes.tsv", "edges.tsv", "schema.txt")]
    save_graph(graph, *files)
    paths = tmp_path / "paths.txt"
    paths.write_text(
        "UU: Author -writes-> Paper <-writes- Author\n"
        "II: Conf <-published_in- Paper -published_in-> Conf\n"
        "UI: Author -writes-> Paper -cites-> Paper -published_in-> Conf\n"
    )
    src = str(pathlib.Path(learner.__file__).resolve().parent.parent)
    models = []
    for threads in ("1", "2"):
        out = tmp_path / f"model-{threads}.npz"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run(
            [sys.executable, "-m", "hetecf.cli", "train", "--nodes", files[0],
             "--edges", files[1], "--schema", files[2], "--paths", str(paths),
             "--target-path", "Author -writes-> Paper -published_in-> Conf",
             "--model-out", str(out), "--d", "10", "--max-inner", "20",
             "--max-outer", "2", "--seed", "0"],
            env=env, check=True, capture_output=True,
        )
        models.append(out.read_bytes())
    assert models[0] == models[1]


# ------------------------------------------------ one gradient per point


def test_factor_gradient_once_per_factor_point(monkeypatch):
    # a candidate that follows a rejected one in the same factor phase
    # steps from the same factors with the same weights: it takes no new
    # gradient, and every other factor candidate takes one
    from hetecf import synth

    spec = synth.SynthSpec(seed=0)  # 40 x 12
    inputs = set_up(synth.generate(spec), synth.default_paths(spec.schema),
                    synth.default_target_path(spec.schema))
    hp = Hyperparams(d=6, max_inner=20, max_outer=6, seed=3)
    grads = []
    grad = learner.grad_factors
    monkeypatch.setattr(learner, "grad_factors",
                        lambda state, data: grads.append(state.model) or grad(state, data))
    phases = []
    descend = learner._descend

    def spy(state, data, propose, phase):
        if phase != "factor":
            return descend(state, data, propose, phase)
        phases.append([])

        def recorded(state, step):
            phases[-1].append((state.factor_steps, len(grads)))
            return propose(state, step)

        return descend(state, data, recorded, phase)

    monkeypatch.setattr(learner, "_descend", spy)
    state = train(inputs.ratings, inputs.rels, hp)
    candidates = sum(len(p) for p in phases)
    after_rejection = sum(
        1 for p in phases for (acc, _), (acc_next, _) in zip(p, p[1:]) if acc_next == acc
    )
    assert state.factor_rejected > 0 and after_rejection > 0
    assert len(grads) == candidates - after_rejection
    for k, p in enumerate(phases):  # within a phase, never twice at the same factors
        start = p[0][1]
        stop = phases[k + 1][0][1] if k + 1 < len(phases) else len(grads)
        models = grads[start:stop]
        assert len({id(m) for m in models}) == len(models)


# ------------------------------------------------------ the worker thread


def two_cpus(monkeypatch, threshold=0):
    """Share every sparse product of at least ``threshold`` multiply-adds."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(learner, "PARALLEL_MIN_WORK", threshold)


@pytest.mark.parametrize("shape,density", [
    ((7, 7), 0.5), ((40, 40), 0.1), ((30, 12), 0.3), ((5, 5), 0.0), ((1, 9), 0.5),
])
@pytest.mark.parametrize("d", [1, 3, 10])
def test_row_halves_give_the_bytes_of_the_whole_product(shape, density, d):
    import scipy.sparse as sp

    rng = np.random.default_rng(d)
    L = sp.random_array(shape, density=density, format="csr", rng=rng)
    L.data -= 0.5
    if shape == (40, 40):  # one row holds most entries
        L = sp.csr_array(L + sp.csr_array((rng.random(40), (np.zeros(40, int), np.arange(40))),
                                          shape=shape))
    X = rng.normal(size=(shape[1], d))
    halves = learner._row_halves(L)
    assert [h[:2] for h in halves] == [(0, halves[0][1]), (halves[0][1], shape[0])]
    assert halves[0][4].size + halves[1][4].size == L.nnz
    for half in halves:
        assert half[4].size == 0 or np.shares_memory(half[4], L.indices)
        assert half[5].size == 0 or np.shares_memory(half[5], L.data)
    out = np.zeros((shape[0], d))
    for half in halves[::-1]:
        learner._multiply_rows(half, X, out)
    assert out.tobytes() == (L @ X).tobytes()
    with pytest.raises(ValueError, match="row product"):
        learner._multiply_rows(halves[0], X[:-1], out)


def test_row_halves_split_the_entries_evenly():
    import scipy.sparse as sp

    L = sp.csr_array(np.ones((10, 10)))
    (_, cut, *_), _ = learner._row_halves(L)
    assert cut == 5


# ------------------------------------------- the dense Laplacian kernel


def full_laplacian(n, rng):
    """The Laplacian of a random similarity that links every two nodes: it
    stores all n x n entries."""
    import scipy.sparse as sp

    from hetecf.model import laplacian

    S = rng.random((n, n))
    return laplacian(sp.csr_array(S + S.T))


def shifted(a, by):
    """A C-contiguous copy of ``a`` that starts ``by`` floats into a fresh
    buffer, so that it is aligned otherwise than ``a``."""
    buf = np.empty(a.size + 4)
    out = buf[by:by + a.size].reshape(a.shape)
    out[...] = a
    return out


@pytest.mark.parametrize("n", [1, 7, 60, 201])
@pytest.mark.parametrize("d", [1, 3, 10])
def test_dense_row_halves_give_the_bytes_of_the_whole_product(n, d):
    rng = np.random.default_rng(n * d)
    A = full_laplacian(n, rng).toarray()
    X = rng.normal(size=(n, d))
    whole = np.zeros((n, d))
    learner._multiply_rows(learner._row_block(A, 0, n), X, whole)
    halves = learner._row_halves(A)
    assert [h[:2] for h in halves] == [(0, n // 2), (n // 2, n)]
    assert all(np.shares_memory(h[3], A) for h in halves if h[3].size)
    out = np.zeros((n, d))
    for half in halves[::-1]:
        learner._multiply_rows(half, X, out)
    assert out.tobytes() == whole.tobytes()
    # operands and outputs at other alignments, and a Fortran-ordered X
    for by in (1, 2, 3):
        out = shifted(np.zeros((n, d)), by)
        block = learner._row_block(shifted(A, 4 - by), 0, n)
        learner._multiply_rows(block, shifted(X, by), out)
        assert out.tobytes() == whole.tobytes()
    out = np.zeros((n, d))
    learner._multiply_rows(halves[0], np.asfortranarray(X), out)
    learner._multiply_rows(halves[1], np.asfortranarray(X), out)
    assert out.tobytes() == whole.tobytes()
    with pytest.raises(ValueError, match="row product"):
        learner._multiply_rows(halves[1], X[:-1], out)


@pytest.mark.parametrize("n", [7, 60, 200])
@pytest.mark.parametrize("d", [1, 10, 40])
def test_dense_kernel_stays_within_2e_15_of_scipys_product(n, d):
    rng = np.random.default_rng(n + d)
    L = full_laplacian(n, rng)
    X = rng.normal(size=(n, d))
    out = np.zeros((n, d))
    learner._multiply_rows(learner._row_block(L.toarray(), 0, n), X, out)
    want = L @ X
    assert np.abs(out - want).max() <= 2e-15 * np.abs(want).max()


def test_laplacians_from_dense_min_fill_take_the_dense_kernel(caplog, monkeypatch):
    """A Laplacian that stores just under ``DENSE_MIN_FILL`` of its n x n
    entries keeps the CSR kernel; one that stores that share takes the
    dense kernel, and the kernel report names it.  One of more than
    ``DENSE_MAX_NODES`` nodes keeps the CSR kernel at any fill."""
    import math

    import scipy.sparse as sp

    from hetecf.model import LaplacianSet

    rng = np.random.default_rng(5)
    n = 10
    ratings, rels, hp = random_instance(rng, n=n, m=4, d=3, n_uu=2, n_ii=1, n_ui=0)
    at = math.ceil(learner.DENSE_MIN_FILL * n * n)

    def storing(count):
        M = rng.random((n, n)) + 0.5
        M.ravel()[count:] = 0.0
        return sp.csr_array(M)

    user = [storing(at - 1), storing(at)]
    assert [L.nnz for L in user] == [at - 1, at]

    def carrying():
        return replace(rels, laps=LaplacianSet(user, [full_laplacian(4, rng)]))

    problem = build_problem(ratings, carrying(), hp)
    problem.close()
    assert problem._dense_graph == [1, 2]
    assert [len(blocks[0]) for blocks in problem._blocks] == [6, 4, 4]
    names = [sim.path.to_string() for sim in rels.user_user + rels.item_item]
    assert problem.kernel_report().endswith(f"; dense Laplacians: {names[1]}, {names[2]}")
    # the report reaches the log once per training run (these matrices
    # are not Laplacians, so no descent runs on them)
    with caplog.at_level("INFO", logger="hetecf.learner"):
        train(ratings, carrying(), hp.with_overrides(max_outer=0))
    report = [m for m in caplog.messages if m.startswith("factor kernels")]
    assert len(report) == 1 and report[0].endswith(f"dense Laplacians: {names[1]}, {names[2]}")
    monkeypatch.setattr(learner, "DENSE_MAX_NODES", n - 1)
    problem = build_problem(ratings, carrying(), hp)
    problem.close()
    assert problem._dense_graph == [2]


def test_sparse_laplacians_leave_the_kernel_report_as_it_was():
    _, _, _, problem, _ = two_path_instance("gather")
    problem.close()
    assert problem._dense_graph == []
    assert "dense" not in problem.kernel_report()


def test_full_laplacian_products_independent_of_blas_threads(tmp_path):
    """A 600-user and a 560-item full Laplacian take the dense kernel, shared
    with the worker.  OpenBLAS gives ``A @ X`` of these sizes other bytes on
    two threads than on one (not at 640, where its blocks line up), so
    equal bytes show that the kernel stays off BLAS."""
    import os
    import subprocess
    import sys

    script = """if True:
        import hashlib
        import numpy as np
        from conftest import random_instance
        from hetecf import FactorModel, learner

        rng = np.random.default_rng(0)
        ratings, rels, hp = random_instance(rng, n=600, m=560, d=10, n_uu=1, n_ii=1,
                                            n_ui=0, density=1.0)
        problem = learner.build_problem(ratings, rels, hp)
        assert problem._dense_graph == [0, 1], problem._dense_graph
        model = FactorModel(rng.normal(size=(600, 10)), rng.normal(size=(560, 10)))
        point = problem.evaluate(model, every_path=True)
        problem.close()
        print(hashlib.sha256(b"".join(X.tobytes() for X in point.LX)).hexdigest())
    """
    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here),
                            os.environ.get("PYTHONPATH", "")])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, cwd=tmp_path)
        digests.append(run.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1]


@pytest.mark.parametrize("index", [np.int32, np.int64])
@pytest.mark.parametrize("cpus", [1, 2])
def test_every_laplacian_product_gives_the_bytes_of_scipys(monkeypatch, cpus, index):
    """Every ``L @ U`` and ``L @ V`` of a Point runs through the one row-block
    entry point: all rows as one block, or two halves when the worker
    shares the product.  Laplacians with empty rows and one with no stored
    entry (an inert path's) are among them, and take the CSR kernel, with
    scipy's bytes; a full one takes the dense kernel, with the bytes of
    ``np.einsum`` on its dense copy."""
    import os

    import scipy.sparse as sp

    from hetecf.model import LaplacianSet, laplacian

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(learner, "PARALLEL_MIN_WORK", 0)
    rng = np.random.default_rng(8)
    n, m = 9, 7
    ratings, rels, hp = random_instance(rng, n=n, m=m, d=4, n_uu=3)

    def with_empty_rows(size, empty):
        S = sp.random_array((size, size), density=0.6, rng=rng).toarray()
        S = S + S.T
        S[empty, :] = S[:, empty] = 0.0
        return laplacian(sp.csr_array(S))

    full = rng.random((n, n))
    laps = [with_empty_rows(n, [2, 5]), sp.csr_array((n, n)),
            laplacian(sp.csr_array(full + full.T)),
            with_empty_rows(m, [0]), with_empty_rows(m, [6])]
    for L in laps:
        L.indices, L.indptr = L.indices.astype(index), L.indptr.astype(index)
    assert laps[0].indptr[3] == laps[0].indptr[2] and laps[1].nnz == 0
    assert laps[2].nnz == n * n
    problem = build_problem(ratings, replace(rels, laps=LaplacianSet(laps[:3], laps[3:])), hp)
    assert [L.indices.dtype for _, L in problem.graph] == [np.dtype(index)] * 5
    assert [len(blocks) for blocks in problem._blocks] == [cpus] * 5
    assert problem._dense_graph == [2]
    model = FactorModel(rng.normal(size=(n, 4)), rng.normal(size=(m, 4)))
    point = problem.evaluate(model, every_path=True)
    problem.close()
    for k, ((side, _), L, LX) in enumerate(zip(problem.graph, laps, point.LX)):
        X = (model.U, model.V)[side]
        if k == 2:
            want = np.einsum("ij,kj->ik", L.toarray(), np.ascontiguousarray(X.T))
        else:
            want = L @ X
        assert LX.tobytes() == want.tobytes()


def test_worker_exception_surfaces_unchanged(monkeypatch):
    import threading
    import time

    two_cpus(monkeypatch)
    _, _, _, problem, state = two_path_instance("gather")
    boom = RuntimeError("raised on the worker")
    multiply = learner._multiply_rows

    def failing(block, X, out):
        if threading.current_thread() is not threading.main_thread():
            raise boom
        multiply(block, X, out)

    monkeypatch.setattr(learner, "_multiply_rows", failing)
    with pytest.raises(RuntimeError) as exc:
        problem.evaluate(state.model)
    assert exc.value is boom

    # an exception on this thread propagates once the worker has finished
    finished = threading.Event()

    def slow(block, X, out):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
            finished.set()
        multiply(block, X, out)

    monkeypatch.setattr(learner, "_multiply_rows", slow)
    main_error = ValueError("raised on the main thread")
    monkeypatch.setattr(problem, "_entry_half", lambda U, V: (_ for _ in ()).throw(main_error))
    with pytest.raises(ValueError) as exc:
        problem.evaluate(FactorModel(state.model.U.copy(), state.model.V.copy()))
    assert exc.value is main_error and finished.is_set()
    problem.close()


def test_one_cpu_starts_no_thread(monkeypatch, caplog):
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(learner, "PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(learner, "ThreadPoolExecutor",
                        lambda *a, **k: pytest.fail("started a worker thread"))
    ratings, rels, hp, _, _ = two_path_instance("gather")
    with caplog.at_level("INFO", logger="hetecf.learner"):
        train(ratings, rels, hp)
    assert "factor kernels ran on one thread: one CPU available" in caplog.messages


def test_points_of_one_task_start_no_thread(monkeypatch, caplog):
    """Without Laplacians every Point has one task, its entry half, which
    runs here at any size; the report does not call that below the
    threshold."""
    two_cpus(monkeypatch)
    monkeypatch.setattr(learner, "ThreadPoolExecutor",
                        lambda *a, **k: pytest.fail("started a worker thread"))
    rng = np.random.default_rng(4)
    ratings, rels, hp = random_instance(rng, n_uu=0, n_ii=0)
    with caplog.at_level("INFO", logger="hetecf.learner"):
        train(ratings, rels, hp.with_overrides(max_outer=2))
    assert ("factor kernels ran on one thread: no Point of two tasks reached the threshold"
            in caplog.messages)


def test_training_stops_its_worker_thread(monkeypatch, caplog):
    import threading

    two_cpus(monkeypatch)
    ratings, rels, hp, _, _ = two_path_instance("gather")
    with caplog.at_level("INFO", logger="hetecf.learner"):
        train(ratings, rels, hp)
    report = [m for m in caplog.messages if m.startswith("factor kernels")]
    assert len(report) == 1 and report[0].startswith("factor kernels ran on two threads")
    assert not [t for t in threading.enumerate() if t.name.startswith("hetecf-")]


@pytest.mark.parametrize("relations", [True, False])
def test_shared_task_list_gives_the_one_cpu_point(monkeypatch, relations):
    """With UI relations the entries repeat pairs (``_in_order`` False);
    with the ratings alone they are the pairs, in order.  Small gathered
    blocks make the entry half's gather loop run several blocks."""
    import os

    from hetecf import synth
    from hetecf.metapath import parse_path_spec

    monkeypatch.setattr(hetecf.model, "_GATHER_CHUNK", 29)
    graph = synth.generate(synth.SynthSpec(
        seed=3, link_prob={"writes": 0.02, "published_in": 0.03, "cites": 0.005}).scaled(2))
    target = parse_path("Author -writes-> Paper -published_in-> Conf", graph.schema)
    groups = parse_path_spec(
        "UU: Author -writes-> Paper <-writes- Author\n"
        "II: Conf <-published_in- Paper -published_in-> Conf\n"
        "UI: Author -writes-> Paper -cites-> Paper -published_in-> Conf\n", graph.schema)
    inputs = set_up(graph, groups, target)
    ratings, rels = inputs.ratings, inputs.rels
    if not relations:
        rels = replace(rels, user_item=[])
    hp = Hyperparams(d=3, seed=0)
    monkeypatch.setattr(learner, "PARALLEL_MIN_WORK", 0)
    problems = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                            raising=False)
        problems[cpus] = build_problem(ratings, rels, hp)
    one, two = problems[1], problems[2]
    assert not two.dense and two._in_order == (not relations)
    assert two.n_pairs > 2 * 29
    rng = np.random.default_rng(5)
    model = FactorModel(rng.normal(size=(ratings.n, 3)), rng.normal(size=(ratings.m, 3)))
    points = [p.evaluate(model, every_path=True) for p in (one, two)]
    two.close()
    assert two._worker.tasks > 0
    for key in ("slope", "resid", "fit", "rel_ssq", "tr"):
        a, b = (getattr(point, key) for point in points)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), key
    assert [X.tobytes() for X in points[0].LX] == [X.tobytes() for X in points[1].LX]


@pytest.mark.parametrize("whole_grid", [True, False])
def test_dense_entry_half_stays_on_this_thread(monkeypatch, whole_grid):
    """On the dense side the entry half calls BLAS through ``U @ V.T``; as
    the first task of the Point's list it runs on this thread, even when
    the worker takes every other task it can, and the worker takes at
    least one Laplacian block."""
    import threading
    import time

    two_cpus(monkeypatch)
    rng = np.random.default_rng(12)
    ratings, rels, hp = random_instance(rng, n=12, m=10, d=3, n_ui=0,
                                        density=1.0 if whole_grid else 0.5)
    problem = build_problem(ratings, rels, hp)
    assert problem.dense and problem._whole_grid == whole_grid
    assert sum(len(blocks) for blocks in problem._blocks) > 2
    threads = {"entry": [], "blocks": []}
    entry_half, multiply = problem._entry_half, learner._multiply_rows

    def spy_entry_half(U, V):
        threads["entry"].append(threading.current_thread().name)
        return entry_half(U, V)

    def spy_multiply(block, X, out):
        threads["blocks"].append(threading.current_thread().name)
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.05)  # the worker takes every task it can meanwhile
        multiply(block, X, out)

    monkeypatch.setattr(problem, "_entry_half", spy_entry_half)
    monkeypatch.setattr(learner, "_multiply_rows", spy_multiply)
    model = FactorModel(rng.normal(size=(12, 3)), rng.normal(size=(10, 3)))
    problem.evaluate(model, every_path=True)
    problem.close()
    assert threads["entry"] == ["MainThread"]
    assert any(name.startswith("hetecf-worker") for name in threads["blocks"])


def test_worker_tasks_run_under_the_callers_errstate(monkeypatch):
    import os
    import threading
    import time

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    big = np.array([1e308])

    def overflow(delay=0.0):  # task 1 runs on the worker
        def run():
            time.sleep(delay)
            assert threading.current_thread() is not threading.main_thread()
            return big * 10.0
        return run

    with learner.Worker() as worker:
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            worker.share([lambda: None, overflow()])
        # filterwarnings = error: an overflow warning would raise here
        with np.errstate(over="ignore"):
            assert worker.share([lambda: None, overflow()])[1].tolist() == [np.inf]
        # the first exception in task order is still the one raised
        later = ValueError("task 2, raised first in time")
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            worker.share([lambda: None, overflow(0.05), lambda: (_ for _ in ()).throw(later)])
        assert worker.tasks == 3


# ------------------------------------------------ tasks on two threads


def test_share_returns_results_in_task_order(monkeypatch):
    import os
    import threading

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # tasks 1 to 5 each wait until the next task has started.  So the worker,
    # held in task 1, leaves task 2 to this thread; this thread, held in task
    # 2, leaves task 3 to the worker; and so on: the threads alternate by
    # these events alone, not by how long a task takes
    started = [threading.Event() for _ in range(7)]
    ran_on = {}

    def task(k):
        def run():
            started[k].set()
            ran_on.setdefault(k, []).append(threading.current_thread().name)
            if 0 < k < 6:
                assert started[k + 1].wait(timeout=60), f"task {k + 1} never started"
            return k * k
        return run

    with learner.Worker() as worker:
        assert worker.share([task(k) for k in range(7)]) == [k * k for k in range(7)]
        assert worker.share([]) == [] and worker.share([task(6)]) == [36]
    here = threading.current_thread().name
    # every task ran once; this thread took the first, the worker the second
    assert sorted(ran_on) == list(range(7))
    assert all(len(names) == 1 for k, names in ran_on.items() if k != 6)
    assert ran_on[0] == [here]
    assert ran_on[1][0].startswith("hetecf-worker")
    assert [ran_on[k][0] == here for k in range(7)] == [k % 2 == 0 for k in range(7)]
    assert ran_on[6] == [here, here]  # the one-task share ran here
    assert worker.tasks == sum(names[0].startswith("hetecf-worker")
                               for k, names in ran_on.items()) == 3


def test_share_raises_the_first_exception_in_task_order_once_both_threads_finish(
        monkeypatch):
    import os
    import threading
    import time

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    ran = []
    finished = threading.Event()
    on_worker = RuntimeError("task 1, raised on the worker")

    def slow_failure():  # task 1 runs on the worker
        time.sleep(0.05)
        finished.set()
        raise on_worker

    def fast_failure():
        ran.append(2)
        raise ValueError("task 2, raised later in task order")

    with learner.Worker() as worker:
        with pytest.raises(RuntimeError) as exc:
            worker.share([lambda: ran.append(0), slow_failure, fast_failure,
                          lambda: ran.append(3)])
        assert exc.value is on_worker and finished.is_set()
        assert sorted(ran) == [0, 2, 3]  # every task ran

        # an exception of this thread's task waits for the worker's task too
        finished.clear()
        on_this_thread = ValueError("task 0, raised on this thread")

        def slow():
            time.sleep(0.05)
            finished.set()

        with pytest.raises(ValueError) as exc:
            worker.share([lambda: (_ for _ in ()).throw(on_this_thread), slow])
        assert exc.value is on_this_thread and finished.is_set()


def test_share_on_one_cpu_runs_every_task_here(monkeypatch):
    import os
    import threading

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(learner, "ThreadPoolExecutor",
                        lambda *a, **k: pytest.fail("started a worker thread"))
    names = []

    def task(k):
        return lambda: names.append(threading.current_thread().name) or k

    with learner.Worker() as worker:
        assert not worker.two_threads
        assert worker.share([task(k) for k in range(5)]) == list(range(5))
    assert names == [threading.current_thread().name] * 5 and worker.tasks == 0


def test_share_runs_each_task_once_under_frequent_thread_switches(monkeypatch):
    import os
    import sys
    import threading

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    counts = [0] * 400
    lock = threading.Lock()

    def task(k):
        def run():
            with lock:
                counts[k] += 1
            return k
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with learner.Worker() as worker:
            for _ in range(5):
                assert worker.share([task(k) for k in range(400)]) == list(range(400))
    finally:
        sys.setswitchinterval(interval)
    assert counts == [5] * 400
    assert not [t for t in threading.enumerate() if t.name.startswith("hetecf-")]


def test_training_without_laplacians_builds_them_on_this_thread(monkeypatch):
    """``learner.train(ratings, rels, hp)`` on a relation set made in
    memory assembles its Laplacians inline and starts no thread for them."""
    import math
    import threading

    from hetecf import model

    two_cpus(monkeypatch, threshold=math.inf)
    monkeypatch.setattr(learner, "ThreadPoolExecutor",
                        lambda *a, **k: pytest.fail("started a worker thread"))
    ratings, rels, hp, _, _ = two_path_instance("gather")
    names = []
    laplacian = model.laplacian

    def recorded(similarity):
        names.append(threading.current_thread().name)
        return laplacian(similarity)

    monkeypatch.setattr(model, "laplacian", recorded)
    train(ratings, rels, hp)
    assert names == [threading.current_thread().name] * 4


# ------------------------------------------------------------------ set-up


@pytest.mark.parametrize("cpus", [1, 2])
def test_set_up_warns_and_reports_in_declared_order(monkeypatch, caplog, cpus):
    import logging
    import os
    import threading

    from hetecf import Relation, Schema, build_graph, content_hash
    from hetecf.metapath import parse_path_spec

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    schema = Schema(("Author", "Paper", "Conf"), "Author", "Conf", (
        Relation("writes", "Author", "Paper"), Relation("published_in", "Paper", "Conf"),
        Relation("cites", "Paper", "Paper")))
    # one author and one conf per paper: the A-P-A and C-P-C paths are inert
    edges = [(f"a{k % 3}", f"p{k}", "writes") for k in range(6)]
    edges += [(f"p{k}", f"c{k % 2}", "published_in") for k in range(6)]
    edges += [(f"p{k}", f"p{j}", "cites") for k in range(6) for j in range(6) if j != k]
    graph = build_graph(schema, [(f"a{k}", "Author") for k in range(3)]
                        + [(f"p{k}", "Paper") for k in range(6)]
                        + [(f"c{k}", "Conf") for k in range(2)], edges)
    declared = [
        ("UU", "Author -writes-> Paper <-writes- Author"),
        ("UU", "Author -writes-> Paper -cites-> Paper <-writes- Author"),
        ("II", "Conf <-published_in- Paper -published_in-> Conf"),
        ("II", "Conf <-published_in- Paper <-cites- Paper -published_in-> Conf"),
        ("UI", "Author -writes-> Paper -published_in-> Conf"),
        ("UI", "Author -writes-> Paper -cites-> Paper -cites-> Paper -published_in-> Conf"),
    ]
    groups = parse_path_spec("".join(f"{g}: {p}\n" for g, p in declared), schema)
    with caplog.at_level(logging.WARNING, logger="hetecf.metapath"):
        inputs = set_up(graph, groups, groups.user_item[0], [content_hash])
    assert [r.getMessage() for r in caplog.records] == [
        f"{group} path {path} is inert: its similarity has no entries off the diagonal,"
        " so its Laplacian is zero" for group, path in (declared[0], declared[2])]
    names, paths, nnz, instances, _, threads = zip(*inputs.paths)
    assert list(zip(names, map(str, paths))) == declared
    assert instances[-1] > max(instances[:-1])  # the costliest is declared last
    if cpus == 1:
        assert set(threads) == {threading.current_thread().name}
    else:
        assert threads[-1] == "hetecf-worker_0"  # the worker's first task
    assert inputs.two_threads == (cpus == 2)
    assert inputs.results == [content_hash(graph)]
    assert [len(n) for n in nnz] == [3, 3, 3, 3, 2, 2]
    laps = inputs.rels.laps
    assert [lap.nnz for lap in laps.user + laps.item] == [n[2] for n in nnz[:4]]
    assert laps.user[0].nnz == laps.item[0].nnz == 0


def test_set_up_relation_set_without_its_laplacians_is_refused(toy_graph, biblio_schema):
    from hetecf.metapath import parse_path_spec

    groups = parse_path_spec("UU: Author -writes-> Paper <-writes- Author\n", biblio_schema)
    inputs = set_up(toy_graph, groups,
                    parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema))
    with pytest.raises(ValueError, match="keep the Laplacians that learner.set_up put in it"):
        train(inputs.ratings, replace(inputs.rels, laps=None), Hyperparams(d=2, max_outer=1))
    assert train(inputs.ratings, inputs.rels, Hyperparams(d=2, max_outer=1))


def test_set_up_relation_set_trains_and_evaluates_on_its_own_laplacians(
        monkeypatch, toy_graph, biblio_schema):
    # the Laplacians travel with set_up's relation set: neither training nor
    # an experiment on it assembles one again
    from hetecf import model
    from hetecf.evaluate import run_experiment
    from hetecf.metapath import declared, parse_path_spec, similarity
    from hetecf.model import laplacian

    groups = parse_path_spec("UU: Author -writes-> Paper <-writes- Author\n"
                             "II: Conf <-published_in- Paper -published_in-> Conf\n",
                             biblio_schema)
    inputs = set_up(toy_graph, groups,
                    parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema))
    assert [len(inputs.rels.laps.user), len(inputs.rels.laps.item)] == [1, 1]
    calls = []

    def counting(sim):
        calls.append(sim)
        return laplacian(sim)

    monkeypatch.setattr(model, "laplacian", counting)
    monkeypatch.setattr(learner, "laplacian", counting)
    hp = Hyperparams(d=2, max_inner=2, max_outer=1)
    state = train(inputs.ratings, inputs.rels, hp)
    report = run_experiment(inputs.ratings, inputs.rels, methods=("hete_cf",), fractions=(0.6,),
                            d_values=(2,), trials=2, hp=hp)
    assert calls == []
    assert state.j_trace and report.failures == []
    assert len(report.cell("hete_cf", 0.6, 2, "RMSE").values) == 2
    # the spy sits where Laplacians are built: a set made in memory, whose
    # similarities are at hand, has one built per UU and II path
    sims = [similarity(toy_graph, group, path)[1] for group, path in declared(groups)]
    train(inputs.ratings, RelationSet(sims[:1], sims[1:], []), hp)
    assert calls == sims

