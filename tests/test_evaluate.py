"""Evaluation protocol: splits, metrics, baselines, the experiment grid."""

import numpy as np
import pytest

import hetecf.evaluate as evaluate
from hetecf import (
    Hyperparams,
    PathGroups,
    PathWeights,
    RatingMatrix,
    SplitSpec,
    mae,
    rmse,
    run_experiment,
    split,
)
from hetecf.evaluate import (
    METHODS,
    MeanPredictor,
    NMFPredictor,
    report_weights,
    weights_csv,
)
from hetecf.metapath import RelationSet

from conftest import random_ratings


def entries(r):
    return set(zip(r.rows.tolist(), r.cols.tolist(), r.vals.tolist()))


# -------------------------------------------------------------------- split


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=0.0)
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=1.0)
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=0.5, trials=0)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        SplitSpec(train_fraction=0.5, seed=-1)
    for name in ("trials", "seed"):
        for value in (2.5, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SplitSpec(train_fraction=0.5, **{name: value})
    SplitSpec(train_fraction=0.5, trials=np.int64(2), seed=np.int64(3))


def test_split_exact_counts():
    rng = np.random.default_rng(0)
    r = random_ratings(rng, 5, 4, density=0.5)
    assert r.nnz == 10
    train, test = split(r, SplitSpec(train_fraction=0.4), trial=0)
    assert train.nnz == 4 and test.nnz == 6
    train, test = split(r, SplitSpec(train_fraction=0.6), trial=0)
    assert train.nnz == 6 and test.nnz == 4


def test_split_rounds_half_up():
    r = RatingMatrix.from_entries(
        5, 1, [(i, 0, 0.5) for i in range(5)]
    )
    train, test = split(r, SplitSpec(train_fraction=0.5), trial=0)
    assert train.nnz == 3 and test.nnz == 2


def test_split_clamps_to_keep_both_sides():
    r = RatingMatrix.from_entries(2, 1, [(0, 0, 0.5), (1, 0, 0.5)])
    for frac in (0.01, 0.99):
        train, test = split(r, SplitSpec(train_fraction=frac), trial=0)
        assert train.nnz == 1 and test.nnz == 1


def test_split_needs_two_entries():
    r = RatingMatrix.from_entries(2, 2, [(0, 0, 0.5)])
    with pytest.raises(ValueError, match="at least 2"):
        split(r, SplitSpec(train_fraction=0.5), trial=0)


def test_split_is_disjoint_union():
    rng = np.random.default_rng(1)
    r = random_ratings(rng, 8, 7, density=0.4)
    train, test = split(r, SplitSpec(train_fraction=0.4), trial=2)
    assert entries(train) | entries(test) == entries(r)
    assert entries(train) & entries(test) == set()
    assert train.n == test.n == r.n and train.m == test.m == r.m


def test_split_deterministic_per_trial():
    rng = np.random.default_rng(2)
    r = random_ratings(rng, 8, 7, density=0.4)
    spec = SplitSpec(train_fraction=0.5, seed=9)
    a1 = split(r, spec, trial=3)
    a2 = split(r, spec, trial=3)
    assert entries(a1[0]) == entries(a2[0])
    b = split(r, spec, trial=4)
    assert entries(a1[0]) != entries(b[0])
    c = split(r, SplitSpec(train_fraction=0.5, seed=10), trial=3)
    assert entries(a1[0]) != entries(c[0])


# ------------------------------------------------------------------ metrics


def test_metric_frozen_values():
    pred = [0.5, 0.2]
    actual = [0.0, 0.4]
    assert mae(pred, actual) == pytest.approx(0.35, abs=1e-15)
    assert rmse(pred, actual) == pytest.approx(np.sqrt(0.145), abs=1e-15)


def test_metrics_zero_on_perfect_prediction():
    v = np.linspace(0.1, 0.9, 7)
    assert mae(v, v) == 0.0
    assert rmse(v, v) == 0.0


def test_metric_validation():
    with pytest.raises(ValueError, match="shape"):
        mae([0.1, 0.2], [0.1])
    with pytest.raises(ValueError, match="empty"):
        rmse([], [])


def test_rmse_dominates_mae():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pred = rng.random(20)
        actual = rng.random(20)
        assert rmse(pred, actual) >= mae(pred, actual) - 1e-15


# ---------------------------------------------------------------- baselines


def test_user_mean_frozen_values():
    train = RatingMatrix.from_entries(
        3, 2, [(0, 0, 0.2), (0, 1, 0.4), (1, 0, 1.0)]
    )
    p = MeanPredictor(train, "user")
    global_mean = (0.2 + 0.4 + 1.0) / 3
    got = p.predict([0, 1, 2], [0, 0, 0])
    assert got[0] == pytest.approx(0.3)
    assert got[1] == pytest.approx(1.0)
    assert got[2] == pytest.approx(global_mean)  # cold user


def test_item_mean_frozen_values():
    train = RatingMatrix.from_entries(
        2, 3, [(0, 0, 0.2), (1, 0, 0.4), (0, 1, 0.9)]
    )
    p = MeanPredictor(train, "item")
    got = p.predict([0, 0, 0], [0, 1, 2])
    assert got[0] == pytest.approx(0.3)
    assert got[1] == pytest.approx(0.9)
    assert got[2] == pytest.approx(0.5, abs=1e-12)  # cold item -> global mean


def test_mean_predictors_empty_train_fall_back():
    empty = RatingMatrix(2, 2, [], [], [])
    assert MeanPredictor(empty, "user").predict([0], [0])[0] == 0.5
    assert MeanPredictor(empty, "item").predict([0], [1])[0] == 0.5


def test_nmf_recovers_rank_one_matrix():
    rng = np.random.default_rng(4)
    u = rng.uniform(0.4, 0.9, size=6)
    v = rng.uniform(0.4, 0.9, size=5)
    R = np.clip(np.outer(u, v), 0.0, 1.0)
    train = RatingMatrix.from_sparse(R)
    assert train.nnz == 30  # fully observed
    p = NMFPredictor(train, d=1, seed=0)
    assert p.L.min() >= 0.0 and p.F.min() >= 0.0
    ii, jj = np.meshgrid(np.arange(6), np.arange(5), indexing="ij")
    pred = p.predict(ii.ravel(), jj.ravel())
    assert np.all((pred >= 0.0) & (pred <= 1.0))
    assert rmse(pred, R.ravel()) < 1e-3


def test_nmf_deterministic_per_seed():
    rng = np.random.default_rng(5)
    train = random_ratings(rng, 7, 6, density=0.5)
    a = NMFPredictor(train, d=2, seed=3)
    b = NMFPredictor(train, d=2, seed=3)
    assert np.array_equal(a.L, b.L) and np.array_equal(a.F, b.F)
    c = NMFPredictor(train, d=2, seed=4)
    assert not np.array_equal(a.L, c.L)


def test_nmf_best_iterate_warning_path(caplog):
    # with a huge tolerance the loop exits after one update; no warning is
    # expected because the best iterate is the final one
    rng = np.random.default_rng(6)
    train = random_ratings(rng, 5, 4, density=0.5)
    with caplog.at_level("WARNING", logger="hetecf.evaluate"):
        NMFPredictor(train, d=2, max_iter=1, seed=0)
    # smoke: constructing with max_iter=1 never crashes; warnings only appear
    # when a later iterate is worse than an earlier one


# ----------------------------------------------------------- experiment grid


def fast_hp():
    return Hyperparams(d=2, lam=0.01, learn_rate=0.1, inner_tol=1e-3,
                       outer_tol=1e-3, max_inner=5, max_outer=2, seed=0)


def test_run_experiment_grid_shape():
    rng = np.random.default_rng(7)
    ratings = random_ratings(rng, 10, 8, density=0.5)
    report = run_experiment(
        ratings, RelationSet([], [], []),
        fractions=(0.4, 0.6), d_values=(2, 3), trials=2, hp=fast_hp(),
    )
    assert len(report.cells) == len(METHODS) * 2 * 2 * 2
    for c in report.cells:
        assert c.metric in ("MAE", "RMSE")
        assert len(c.values) == 2
        assert c.sd >= 0.0
    assert report.failures == []
    # RMSE cell never sits below its MAE partner
    for method in METHODS:
        for fraction in (0.4, 0.6):
            for d in (2, 3):
                a = report.cell(method, fraction, d, "MAE")
                r = report.cell(method, fraction, d, "RMSE")
                assert r.mean >= a.mean - 1e-12


def test_run_experiment_constant_ratings_zero_error():
    rows, cols = np.divmod(np.arange(30), 6)
    ratings = RatingMatrix(5, 6, rows, cols, np.full(30, 0.7))
    report = run_experiment(
        ratings, RelationSet([], [], []),
        methods=("user_mean", "item_mean"),
        fractions=(0.5,), d_values=(2,), trials=3, hp=fast_hp(),
    )
    for c in report.cells:
        assert c.mean == pytest.approx(0.0, abs=1e-12)


def test_run_experiment_records_a_bad_relation_set_as_hete_cf_failures():
    # an asymmetric user-user similarity has no Laplacian: every hete_cf fit
    # is recorded as failed, and the other methods still run
    import scipy.sparse as sp
    from hetecf.metapath import SimilarityMatrix

    rng = np.random.default_rng(10)
    ratings = random_ratings(rng, 5, 4, density=0.5)
    bad = SimilarityMatrix(None, sp.csr_array(np.triu(np.ones((5, 5)), 1)))
    report = run_experiment(
        ratings, RelationSet([bad], [], []), methods=("user_mean", "hete_cf"),
        fractions=(0.5,), d_values=(2,), trials=2, hp=fast_hp(),
    )
    assert [f[0] for f in report.failures] == ["hete_cf", "hete_cf"]
    assert "asymmetric" in report.failures[0][4]
    assert len(report.cell("user_mean", 0.5, 2, "MAE").values) == 2


def test_run_experiment_builds_missing_laplacians_once(
        monkeypatch, caplog, toy_graph, biblio_schema):
    # set_up's relation set keeps no user-user similarity, so without its
    # Laplacians none can be built: one attempt and one warning before the
    # grid, then one failure per hete_cf cell, as when each cell tried
    from hetecf import parse_path
    from hetecf.learner import set_up
    from hetecf.metapath import parse_path_spec
    from hetecf.model import LaplacianSet

    groups = parse_path_spec("UU: Author -writes-> Paper <-writes- Author\n", biblio_schema)
    inputs = set_up(toy_graph, groups,
                    parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema))
    attempts = []
    build = LaplacianSet.from_relation_set.__func__
    monkeypatch.setattr(LaplacianSet, "from_relation_set",
                        classmethod(lambda cls, rels: attempts.append(rels) or build(cls, rels)))
    grid = dict(methods=("user_mean", "hete_cf"), fractions=(0.5, 0.6), d_values=(2,),
                trials=2, hp=fast_hp())
    with caplog.at_level("WARNING", logger="hetecf.evaluate"):
        report = run_experiment(inputs.ratings, inputs.rels, **grid)
    assert len(attempts) == 1
    assert len(caplog.records) == 1
    assert "pass the Laplacians that learner.set_up returned" in caplog.records[0].getMessage()
    assert [f[:4] for f in report.failures] == [
        ("hete_cf", fraction, 2, trial) for fraction in (0.5, 0.6) for trial in (0, 1)
    ]
    assert all("pass the Laplacians" in f[4] for f in report.failures)
    assert report.cell("hete_cf", 0.5, 2, "RMSE").values == []
    with_laps = run_experiment(inputs.ratings, inputs.rels, laps=inputs.laps, **grid)
    assert with_laps.failures == [] and len(attempts) == 1
    for fraction in (0.5, 0.6):
        assert (report.cell("user_mean", fraction, 2, "RMSE")
                == with_laps.cell("user_mean", fraction, 2, "RMSE"))
        assert len(with_laps.cell("hete_cf", fraction, 2, "RMSE").values) == 2


def test_run_experiment_rejects_unknown_method():
    rng = np.random.default_rng(8)
    ratings = random_ratings(rng, 5, 4, density=0.5)
    with pytest.raises(ValueError, match="unknown method"):
        run_experiment(ratings, RelationSet([], [], []), methods=("svd",))


def test_run_experiment_records_failures_per_method(monkeypatch, caplog):
    rng = np.random.default_rng(9)
    ratings = random_ratings(rng, 8, 6, density=0.5)
    real = evaluate.fit_method

    def flaky(method, train, rels, hp, trial_seed, **kwargs):
        if method == "nmf":
            raise RuntimeError("synthetic failure")
        return real(method, train, rels, hp, trial_seed, **kwargs)

    monkeypatch.setattr(evaluate, "fit_method", flaky)
    with caplog.at_level("WARNING", logger="hetecf.evaluate"):
        report = run_experiment(
            ratings, RelationSet([], [], []),
            fractions=(0.5,), d_values=(2,), trials=2, hp=fast_hp(),
        )
    nmf_failures = [f for f in report.failures if f[0] == "nmf"]
    assert len(nmf_failures) == 2  # one per trial
    assert "synthetic failure" in nmf_failures[0][4]
    c = report.cell("nmf", 0.5, 2, "MAE")
    assert c.values == [] and np.isnan(c.mean)
    # the other methods still produced full results
    assert len(report.cell("user_mean", 0.5, 2, "MAE").values) == 2
    assert "synthetic failure" in caplog.text


def test_run_experiment_deterministic():
    rng = np.random.default_rng(10)
    ratings = random_ratings(rng, 9, 7, density=0.5)
    kwargs = dict(fractions=(0.5,), d_values=(2,), trials=2, hp=fast_hp(), seed=1)
    r1 = run_experiment(ratings, RelationSet([], [], []), **kwargs)
    r2 = run_experiment(ratings, RelationSet([], [], []), **kwargs)
    for c1, c2 in zip(r1.cells, r2.cells):
        assert (c1.method, c1.metric, c1.mean, c1.sd) == (
            c2.method, c2.metric, c2.mean, c2.sd
        )


def test_report_csv_and_table_render():
    rng = np.random.default_rng(11)
    ratings = random_ratings(rng, 8, 6, density=0.5)
    report = run_experiment(
        ratings, RelationSet([], [], []),
        methods=("user_mean", "hete_cf"),
        fractions=(0.5,), d_values=(2,), trials=2, hp=fast_hp(),
    )
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "method,fraction,d,metric,mean,sd"
    assert len(lines) == 1 + len(report.cells)
    table = report.format_table()
    assert "user_mean" in table and "hete_cf" in table
    assert "MAE" in table and "RMSE" in table


# -------------------------------------------------------------- weight report


def dummy_groups(n_uu, n_ii, n_ui, schema=None):
    import hetecf as h

    schema = schema or h.Schema(
        ("U", "I"), "U", "I", (h.Relation("r", "U", "I"),)
    )
    ui = h.make_path(schema, [("r", True)])
    uu = h.make_path(schema, [("r", True), ("r", False)])
    ii = h.make_path(schema, [("r", False), ("r", True)])
    return PathGroups([uu] * n_uu, [ii] * n_ii, [ui] * n_ui)


def test_report_weights_normalizes_per_group():
    groups = dummy_groups(2, 1, 2)
    weights = PathWeights([2.0, 1.0], [0.5], [0.0, 4.0])
    rows = report_weights(weights, groups)
    by_group = {}
    for group, path, value in rows:
        by_group.setdefault(group, []).append(value)
    assert by_group["UU"] == [1.0, 0.5]
    assert by_group["II"] == [1.0]
    assert by_group["UI"] == [0.0, 1.0]


def test_report_weights_zero_group():
    groups = dummy_groups(2, 0, 0)
    weights = PathWeights([0.0, 0.0], [], [])
    rows = report_weights(weights, groups)
    assert [v for _, _, v in rows] == [0.0, 0.0]


def test_report_weights_single_path_is_one():
    groups = dummy_groups(1, 0, 0)
    rows = report_weights(PathWeights([0.123], [], []), groups)
    assert rows == [("UU", groups.user_user[0].to_string(), 1.0)]


def test_report_weights_count_mismatch():
    groups = dummy_groups(2, 0, 0)
    with pytest.raises(ValueError, match="UU"):
        report_weights(PathWeights([1.0], [], []), groups)


def test_weights_csv_round_trip():
    import csv as csvmod
    import io

    groups = dummy_groups(1, 1, 1)
    rows = report_weights(PathWeights([0.5], [0.25], [1.0]), groups)
    text = weights_csv(rows)
    parsed = list(csvmod.reader(io.StringIO(text)))
    assert parsed[0] == ["group", "path", "weight"]
    assert len(parsed) == 4
    assert float(parsed[1][2]) == 1.0  # single-path group normalizes to 1
