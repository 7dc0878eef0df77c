"""End-to-end command-line tests against the bundled sample dataset."""

import json
import os
import pathlib

import numpy as np
import pytest

from hetecf import DivergenceError, FactorModel, PathWeights, content_hash, load_graph
from hetecf.cli import main
from hetecf.model import Hyperparams, load_model, save_model

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "sample_data"
GRAPH_FLAGS = [
    "--nodes", str(SAMPLE / "nodes.tsv"),
    "--edges", str(SAMPLE / "edges.tsv"),
    "--schema", str(SAMPLE / "schema.txt"),
]
TARGET = "Author -writes-> Paper -published_in-> Conf"
FAST = ["--d", "2", "--max-inner", "5", "--max-outer", "2", "--seed", "0"]


def train_flags(tmp_path, extra=()):
    return (
        ["train", *GRAPH_FLAGS,
         "--paths", str(SAMPLE / "paths.txt"),
         "--target-path", TARGET,
         "--model-out", str(tmp_path / "model.npz"),
         *FAST]
        + list(extra)
    )


def sample_graph():
    return load_graph(
        str(SAMPLE / "nodes.tsv"), str(SAMPLE / "edges.tsv"),
        str(SAMPLE / "schema.txt"),
    )


# ----------------------------------------------------------------- validate


def test_validate_ok(capsys):
    assert main(["validate", *GRAPH_FLAGS]) == 0
    out = capsys.readouterr().out
    assert "Author: 6 nodes" in out
    assert "writes (Author -> Paper): 15 edges" in out
    assert "graph hash:" in out


def test_validate_reports_bad_edge_with_line(tmp_path, caplog):
    bad = tmp_path / "edges.tsv"
    bad.write_text((SAMPLE / "edges.tsv").read_text() + "alice\tzzz\twrites\n")
    rc = main([
        "validate",
        "--nodes", str(SAMPLE / "nodes.tsv"),
        "--edges", str(bad),
        "--schema", str(SAMPLE / "schema.txt"),
    ])
    assert rc == 2
    assert "zzz" in caplog.text
    assert str(bad) in caplog.text


def test_validate_missing_file(tmp_path):
    rc = main([
        "validate",
        "--nodes", str(tmp_path / "nope.tsv"),
        "--edges", str(SAMPLE / "edges.tsv"),
        "--schema", str(SAMPLE / "schema.txt"),
    ])
    assert rc == 2


def test_validate_via_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "nodes": str(SAMPLE / "nodes.tsv"),
        "edges": str(SAMPLE / "edges.tsv"),
        "schema": str(SAMPLE / "schema.txt"),
    }))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "Conf: 3 nodes" in capsys.readouterr().out


# -------------------------------------------------------------------- train


def test_train_writes_artifacts(tmp_path, capsys):
    log_out = tmp_path / "log.csv"
    weights_out = tmp_path / "weights.csv"
    rc = main(train_flags(tmp_path, [
        "--log-out", str(log_out), "--weights-out", str(weights_out),
    ]))
    assert rc == 0
    out = capsys.readouterr().out
    assert "trained 2 outer iterations" in out
    assert out.count("weight\t") == 5
    model, weights, header = load_model(str(tmp_path / "model.npz"))
    assert (model.n, model.m, model.d) == (6, 3, 2)
    assert weights.counts == (2, 2, 1)
    assert header["graph_hash"] == content_hash(sample_graph())
    assert header["hyperparams"]["d"] == 2
    log_lines = log_out.read_text().strip().splitlines()
    assert log_lines[0].startswith("iteration,objective")
    assert len(log_lines) == 3  # header + 2 outer iterations
    wl = weights_out.read_text().strip().splitlines()
    assert wl[0] == "group,path,weight"
    assert len(wl) == 6


def test_train_deterministic_model_bytes(tmp_path):
    a, b, c = (tmp_path / x for x in ("a.npz", "b.npz", "c.npz"))
    base = [
        "train", *GRAPH_FLAGS, "--paths", str(SAMPLE / "paths.txt"),
        "--target-path", TARGET, *FAST,
    ]
    assert main(base + ["--model-out", str(a)]) == 0
    assert main(base + ["--model-out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(base + ["--model-out", str(c), "--seed", "7"]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_train_ignores_config_cache_dir(tmp_path):
    cache = tmp_path / "cache"
    models = []
    for name in ("a.npz", "b.npz"):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({
            "nodes": str(SAMPLE / "nodes.tsv"),
            "edges": str(SAMPLE / "edges.tsv"),
            "schema": str(SAMPLE / "schema.txt"),
            "paths": str(SAMPLE / "paths.txt"),
            "target_path": TARGET,
            "cache_dir": str(cache),
            "model_out": str(tmp_path / name),
        }))
        assert main(["train", "--config", str(cfg), *FAST]) == 0
        models.append((tmp_path / name).read_bytes())
    assert models[0] == models[1]
    assert not cache.exists()


def test_train_mu_flag_recorded(tmp_path):
    rc = main(train_flags(tmp_path, ["--mu", "0.5"]))
    assert rc == 0
    _, _, header = load_model(str(tmp_path / "model.npz"))
    assert header["hyperparams"]["mu"] == 0.5


def test_train_sgd_optimizer(tmp_path):
    rc = main(train_flags(tmp_path, ["--optimizer", "sgd"]))
    assert rc == 0
    model, _, _ = load_model(str(tmp_path / "model.npz"))
    assert np.all(np.isfinite(model.U))


def test_train_missing_model_out(tmp_path, monkeypatch, caplog):
    def must_not_train(*args, **kwargs):
        pytest.fail("trained before checking for model_out")

    monkeypatch.setattr("hetecf.learner.train", must_not_train)
    argv = [
        "train", *GRAPH_FLAGS, "--paths", str(SAMPLE / "paths.txt"),
        "--target-path", TARGET, *FAST,
    ]
    assert main(argv) == 2
    assert "model_out" in caplog.text


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "nodes": str(SAMPLE / "nodes.tsv"),
        "edges": str(SAMPLE / "edges.tsv"),
        "schema": str(SAMPLE / "schema.txt"),
        "paths": str(SAMPLE / "paths.txt"),
        "target_path": TARGET,
        "model_out": str(tmp_path / "model.npz"),
        "hyperparams": {"d": 2, "max_inner": 5, "max_outer": 2},
    }))
    assert main(["train", "--config", str(cfg), "--d", "3"]) == 0
    model, _, header = load_model(str(tmp_path / "model.npz"))
    assert model.d == 3 and header["hyperparams"]["d"] == 3


def test_numerical_failures_exit_three(tmp_path, monkeypatch):
    def exploding(*args, **kwargs):
        raise DivergenceError("objective kept rising", [1.0, 2.0])

    monkeypatch.setattr("hetecf.learner.train", exploding)
    assert main(train_flags(tmp_path)) == 3


def test_internal_value_error_is_not_reported_as_bad_input(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr("hetecf.learner.train", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(train_flags(tmp_path))


@pytest.mark.parametrize("extra", [
    ["--learn-rate", "1.5"],  # Hyperparams validation
    ["--d", "0"],
])
def test_invalid_hyperparameters_exit_two(tmp_path, extra, caplog):
    assert main(train_flags(tmp_path, extra)) == 2
    assert "invalid hyperparameters" in caplog.text


def test_unknown_config_optimizer_exits_two(tmp_path, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimizer": "adam"}))
    assert main(train_flags(tmp_path, ["--config", str(cfg)])) == 2
    assert "optimizer" in caplog.text


# ------------------------------------------------------------------ predict


def zero_model(tmp_path, graph_hash=None, n=6, m=3):
    """A model whose predictions all tie at 0.5."""
    f = tmp_path / "zero.npz"
    save_model(
        str(f),
        FactorModel(np.zeros((n, 2)), np.zeros((m, 2))),
        PathWeights([], [], []),
        Hyperparams(d=2),
        graph_hash if graph_hash is not None else content_hash(sample_graph()),
    )
    return f


def test_predict_tied_scores_order_by_item_id(tmp_path, capsys):
    f = zero_model(tmp_path)
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f), "--user", "alice"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [l.split("\t")[0] for l in lines] == ["icml", "kdd", "vldb"]
    assert all(l.split("\t")[1] == "0.5" for l in lines)


def test_predict_top_k_limits_output(tmp_path, capsys):
    f = zero_model(tmp_path)
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f),
               "--user", "bob", "--top-k", "2"])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_predict_k_beyond_item_count(tmp_path, capsys):
    f = zero_model(tmp_path)
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f),
               "--user", "bob", "--top-k", "50"])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_predict_scores_sorted_descending(tmp_path, capsys):
    assert main(train_flags(tmp_path)) == 0
    capsys.readouterr()
    rc = main(["predict", *GRAPH_FLAGS,
               "--model", str(tmp_path / "model.npz"), "--user", "carol"])
    assert rc == 0
    scores = [float(l.split("\t")[1])
              for l in capsys.readouterr().out.strip().splitlines()]
    assert scores == sorted(scores, reverse=True)
    assert len(scores) == 3


def test_predict_graph_hash_mismatch(tmp_path, caplog):
    f = zero_model(tmp_path, graph_hash="deadbeef" * 8)
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f), "--user", "alice"])
    assert rc == 2
    assert "different graph" in caplog.text


def test_predict_rejects_non_user_node(tmp_path, caplog):
    f = zero_model(tmp_path)
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f), "--user", "p01"])
    assert rc == 2
    assert "user type" in caplog.text


def test_predict_unknown_user(tmp_path):
    f = zero_model(tmp_path)
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f), "--user", "zoe"])
    assert rc == 2


def test_predict_rejects_model_of_other_format_version(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr("hetecf.model.MODEL_FORMAT_VERSION", 99)
    f = zero_model(tmp_path)
    monkeypatch.undo()
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f), "--user", "alice"])
    assert rc == 2
    assert "format version" in caplog.text


def test_predict_rejects_non_model_file(tmp_path, caplog):
    f = tmp_path / "model.npz"
    f.write_text("not a model\n")
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f), "--user", "alice"])
    assert rc == 2
    assert "model file" in caplog.text


def test_predict_shape_mismatch(tmp_path, caplog):
    f = zero_model(tmp_path, n=4, m=3)  # wrong user count
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f), "--user", "alice"])
    assert rc == 2
    assert "does not match graph" in caplog.text


# ----------------------------------------------------------------- evaluate


def test_evaluate_grid_and_report(tmp_path, capsys):
    report_out = tmp_path / "report.csv"
    rc = main([
        "evaluate", *GRAPH_FLAGS,
        "--paths", str(SAMPLE / "paths.txt"),
        "--target-path", TARGET,
        "--methods", "user_mean,item_mean",
        "--fractions", "0.5",
        "--d-values", "2",
        "--trials", "2",
        "--report-out", str(report_out),
        *FAST,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "user_mean" in out and "item_mean" in out
    lines = report_out.read_text().strip().splitlines()
    assert lines[0] == "method,fraction,d,metric,mean,sd"
    assert len(lines) == 1 + 2 * 1 * 1 * 2  # methods x fractions x d x metrics


@pytest.mark.parametrize("extra", [
    ["--fractions", "1.5"],
    ["--fractions", "0.5,x"],
    ["--trials", "0"],
    ["--d-values", "0"],
])
def test_evaluate_rejects_bad_grid(tmp_path, extra):
    rc = main([
        "evaluate", *GRAPH_FLAGS,
        "--paths", str(SAMPLE / "paths.txt"),
        "--target-path", TARGET,
        "--methods", "user_mean",
        *FAST,
        *extra,
    ])
    assert rc == 2


def test_evaluate_rejects_unknown_method(tmp_path):
    rc = main([
        "evaluate", *GRAPH_FLAGS,
        "--paths", str(SAMPLE / "paths.txt"),
        "--target-path", TARGET,
        "--methods", "svd",
        "--trials", "2",
        *FAST,
    ])
    assert rc == 2


# ---------------------------------------------------------------- benchmark


def test_benchmark_csv_output(tmp_path, capsys):
    out_file = tmp_path / "timings.csv"
    rc = main([
        "benchmark", "--d-values", "2", "--sizes", "1.0",
        "--repeats", "1", "--base-scale", "0.2", "--out", str(out_file),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith(
        "d,n,m,edges,iterations,seconds_median,seconds_min,seconds_max"
    )
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 3  # header + one d row + one size row
    assert lines[1].split(",")[0] == "2"
    assert lines[2].split(",")[0] == "10"
