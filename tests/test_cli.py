"""End-to-end command-line tests against the bundled sample dataset."""

import csv
import json
import math
import os
import pathlib
import re
import zipfile

import numpy as np
import pytest

from hetecf import (
    DivergenceError,
    FactorModel,
    PathWeights,
    cli,
    content_hash,
    learner,
    load_graph,
    metapath,
    save_graph,
    synth,
)
from hetecf.cli import main
from hetecf.model import Hyperparams, ModelFormatError, load_model, save_model

from oracles import reference_top_k

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
    # training always normalises with rowcol, so a config "variant" is
    # ignored too, and --variant is no flag
    cache = tmp_path / "cache"
    models = []
    for name, ignored in (("a.npz", {"cache_dir": str(cache), "optimizer": "sgd",
                                     "variant": "diagonal"}),
                          ("b.npz", {})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({
            "nodes": str(SAMPLE / "nodes.tsv"),
            "edges": str(SAMPLE / "edges.tsv"),
            "schema": str(SAMPLE / "schema.txt"),
            "paths": str(SAMPLE / "paths.txt"),
            "target_path": TARGET,
            "model_out": str(tmp_path / name),
            **ignored,
        }))
        assert main(["train", "--config", str(cfg), *FAST]) == 0
        models.append((tmp_path / name).read_bytes())
    assert models[0] == models[1]
    assert not cache.exists()
    for flag in ("--optimizer", "batch"), ("--variant", "rowcol"):
        with pytest.raises(SystemExit) as exc:
            main(train_flags(tmp_path, flag))
        assert exc.value.code == 2


def test_train_mu_flag_recorded(tmp_path):
    rc = main(train_flags(tmp_path, ["--mu", "0.5"]))
    assert rc == 0
    _, _, header = load_model(str(tmp_path / "model.npz"))
    assert header["hyperparams"]["mu"] == 0.5


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


def test_predict_rejects_model_header_that_is_not_an_object(tmp_path, caplog):
    f = tmp_path / "model.npz"
    np.savez(f, header=np.frombuffer(b"[2]", dtype=np.uint8))
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f), "--user", "alice"])
    assert rc == 2
    assert "not a JSON object" in caplog.text


def test_predict_shape_mismatch(tmp_path, caplog):
    f = zero_model(tmp_path, n=4, m=3)  # wrong user count
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f), "--user", "alice"])
    assert rc == 2
    assert "does not match graph" in caplog.text


def flip_last_byte_of(member):
    """A corruption that flips the last stored byte of ``member``'s data."""
    def corrupt(f):
        raw = f.read_bytes()
        with zipfile.ZipFile(f) as zf:
            payload = zf.read(member)
        at = raw.index(payload) + len(payload) - 1
        f.write_bytes(raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:])
    return corrupt


def replace_factor(**arrays):
    """A corruption that rewrites the file with other factor members."""
    def corrupt(f):
        with np.load(f) as data:
            members = {key: data[key] for key in data.files}
        np.savez(f, **{**members, **arrays})
    return corrupt


def write_bare_npy(f):
    """A corruption that overwrites the file with a bare ``.npy``."""
    with f.open("wb") as fh:
        np.save(fh, np.zeros((6, 2)))


@pytest.mark.parametrize("corrupt", [
    flip_last_byte_of("header.npy"),
    flip_last_byte_of("U.npy"),
    flip_last_byte_of("V.npy"),
    lambda f: f.write_bytes(f.read_bytes()[: f.stat().st_size // 2]),  # truncated
    lambda f: f.write_bytes(b"PK\x03\x04 not a zip file"),
    write_bare_npy,
    replace_factor(U=np.zeros((6, 2), dtype="<f4")),
    replace_factor(U=np.zeros((6, 2), dtype=">f8")),
    replace_factor(U=np.asfortranarray(np.arange(12.0).reshape(6, 2))),
    replace_factor(U=np.zeros((6, 2, 1))),
], ids=["header-byte", "U-byte", "V-byte", "truncated", "not-zip", "npy",
        "U-f4", "U-big-endian", "U-fortran", "U-3d"])
def test_damaged_model_file_is_refused(tmp_path, caplog, corrupt):
    f = zero_model(tmp_path)
    corrupt(f)
    with pytest.raises(ModelFormatError):
        load_model(str(f))
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f), "--user", "alice"])
    assert rc == 2
    assert "model file" in caplog.text


# ------------------------------------------------- predict from the model


def copy_sample(tmp_path):
    """The sample network's files in ``tmp_path``, and flags naming them."""
    for name in ("nodes.tsv", "edges.tsv", "schema.txt", "paths.txt"):
        (tmp_path / name).write_bytes((SAMPLE / name).read_bytes())
    return [
        "--nodes", str(tmp_path / "nodes.tsv"),
        "--edges", str(tmp_path / "edges.tsv"),
        "--schema", str(tmp_path / "schema.txt"),
    ]


def train_model(tmp_path, flags, paths=SAMPLE / "paths.txt"):
    f = tmp_path / "model.npz"
    assert main(["train", *flags, "--paths", str(paths), "--target-path", TARGET,
                 "--model-out", str(f), *FAST]) == 0
    return f


def without_source(f, out):
    """A copy of model file ``f`` without the source keys: predict parses."""
    model, weights, header = load_model(str(f))
    save_model(str(out), model, weights, Hyperparams(**header["hyperparams"]),
               header["graph_hash"])
    assert "source_digest" not in load_model(str(out))[2]
    return out


def predict(capsys, flags, f, user, *extra):
    """(exit code, stdout) of one ``predict`` call."""
    capsys.readouterr()
    rc = main(["predict", *flags, "--model", str(f), "--user", user, *extra])
    return rc, capsys.readouterr().out


def refuse(*args, **kwargs):
    pytest.fail("predict parsed or hashed the graph")


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    return calls


def synth_files(tmp_path, spec=synth.SynthSpec(seed=3)):
    graph = synth.generate(spec)
    files = [tmp_path / n for n in ("nodes.tsv", "edges.tsv", "schema.txt")]
    save_graph(graph, *map(str, files))
    paths = tmp_path / "paths.txt"
    paths.write_text(
        "UU: Author -writes-> Paper <-writes- Author\n"
        "II: Conf <-published_in- Paper -published_in-> Conf\n"
        "UI: Author -writes-> Paper -cites-> Paper -published_in-> Conf\n"
    )
    flags = [x for flag, f in zip(("--nodes", "--edges", "--schema"), files)
             for x in (flag, str(f))]
    return flags, paths, graph.node_ids[graph.schema.user_type]


@pytest.mark.parametrize("network", ["sample", "synth"])
def test_digest_path_parses_nothing_and_matches_parse_path(tmp_path, capsys, monkeypatch,
                                                           network):
    if network == "sample":
        flags, paths, users = GRAPH_FLAGS, SAMPLE / "paths.txt", sample_graph().node_ids["Author"]
    else:
        flags, paths, users = synth_files(tmp_path)
    f = train_model(tmp_path, flags, paths)
    parsed = without_source(f, tmp_path / "parsed.npz")
    for user in users:
        for extra in ((), ("--top-k", "1000")):
            with monkeypatch.context() as m:
                m.setattr(cli, "load_graph", refuse)
                m.setattr(cli, "content_hash", refuse)
                stored = predict(capsys, flags, f, user, *extra)
            assert stored == predict(capsys, flags, parsed, user, *extra)
            assert stored[0] == 0 and stored[1]


@pytest.mark.parametrize("rewrite", [
    lambda text: text + "# a comment appended after training\n",
    lambda text: text.replace("\n", "\r\n"),
])
def test_other_bytes_same_graph_take_the_parse_path(tmp_path, capsys, monkeypatch, rewrite):
    flags = copy_sample(tmp_path)
    f = train_model(tmp_path, flags)
    want = predict(capsys, flags, f, "carol")
    edges = tmp_path / "edges.tsv"
    edges.write_bytes(rewrite(edges.read_text(encoding="utf-8")).encode("utf-8"))
    parses = count_calls(monkeypatch, "load_graph")
    assert predict(capsys, flags, f, "carol") == want
    assert len(parses) == 1


def test_changed_edge_weight_is_a_different_graph(tmp_path, caplog):
    flags = copy_sample(tmp_path)
    f = train_model(tmp_path, flags)
    edges = tmp_path / "edges.tsv"
    edges.write_text(edges.read_text().replace("alice\tp01\twrites\n",
                                               "alice\tp01\twrites\t2.0\n", 1))
    rc = main(["predict", *flags, "--model", str(f), "--user", "alice"])
    assert rc == 2
    assert "different graph" in caplog.text


@pytest.mark.parametrize("user,message", [
    ("p01", "node 'p01' has type 'Paper', not the user type 'Author'"),
    ("zoe", "unknown node id 'zoe'"),
])
def test_model_with_digest_keeps_user_errors(tmp_path, caplog, user, message):
    f = train_model(tmp_path, GRAPH_FLAGS)
    assert "source_digest" in load_model(str(f))[2]
    rc = main(["predict", *GRAPH_FLAGS, "--model", str(f), "--user", user])
    assert rc == 2
    assert message in caplog.text


def test_model_with_digest_keeps_file_errors(tmp_path, caplog):
    flags = copy_sample(tmp_path)
    f = train_model(tmp_path, flags)
    (tmp_path / "edges.tsv").unlink()
    rc = main(["predict", *flags, "--model", str(f), "--user", "alice"])
    assert rc == 2
    assert f"No such file or directory: '{tmp_path / 'edges.tsv'}'" in caplog.text


def test_model_bytes_do_not_depend_on_the_directory(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second" / "deeper"
    models = []
    for where in (first, second):
        where.mkdir(parents=True)
        models.append(train_model(where, copy_sample(where), where / "paths.txt").read_bytes())
    assert models[0] == models[1]
    assert b"sample_data" not in models[0] and str(tmp_path).encode() not in models[0]


def test_one_step_path_over_zero_weight_edge_predicts(tmp_path, capsys, monkeypatch):
    flags = copy_sample(tmp_path)
    schema = tmp_path / "schema.txt"
    schema.write_text(schema.read_text() + "relation knows Author Author\n")
    edges = tmp_path / "edges.tsv"
    edges.write_text(edges.read_text() + "alice\tbob\tknows\t0.0\n"
                     "bob\tcarol\tknows\t2.0\nalice\tdave\tknows\n")
    paths = tmp_path / "paths.txt"
    paths.write_text(paths.read_text() + "UU: Author -knows-> Author\n")
    f = train_model(tmp_path, flags, paths)
    parses = count_calls(monkeypatch, "load_graph")
    rc, out = predict(capsys, flags, without_source(f, tmp_path / "parsed.npz"), "alice")
    assert (rc, len(parses)) == (0, 1)
    assert out.count("\n") == 3


def test_main_calls_leak_no_settings(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    f = zero_model(tmp_path)
    assert predict(capsys, GRAPH_FLAGS, f, "bob", "--top-k", "2")[1].count("\n") == 2
    assert predict(capsys, GRAPH_FLAGS, f, "bob")[1].count("\n") == 3
    assert main(train_flags(tmp_path)) == 0
    assert predict(capsys, GRAPH_FLAGS, tmp_path / "model.npz", "bob")[0] == 0


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


def test_evaluate_builds_the_laplacians_once(monkeypatch):
    from hetecf import model

    calls = []
    real = model.laplacian

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "laplacian", counting)
    rc = main([
        "evaluate", *GRAPH_FLAGS,
        "--paths", str(SAMPLE / "paths.txt"),
        "--target-path", TARGET,
        "--methods", "hete_cf",
        "--fractions", "0.4,0.6",
        "--d-values", "2,3",
        "--trials", "2",
        *FAST,
    ])
    assert rc == 0
    # one per UU/II path of the sample (2 + 2), not one per path and fit (8 fits)
    assert len(calls) == 4


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


def test_evaluate_rejects_config_methods_that_are_not_a_list(tmp_path, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methods": 5}))
    rc = main([
        "evaluate", "--config", str(cfg), *GRAPH_FLAGS,
        "--paths", str(SAMPLE / "paths.txt"),
        "--target-path", TARGET,
        *FAST,
    ])
    assert rc == 2
    assert "methods" in caplog.text


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


def test_evaluate_rejects_an_empty_method_list(tmp_path, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methods": []}))
    common = [*GRAPH_FLAGS, "--paths", str(SAMPLE / "paths.txt"), "--target-path", TARGET,
              *FAST]
    assert main(["evaluate", "--config", str(cfg), *common]) == 2
    assert main(["evaluate", "--methods", "", *common]) == 2
    assert main(["evaluate", "--methods", " , ", *common]) == 2
    assert caplog.text.count("methods: the list is empty") == 3


# ------------------------------------------------------- config value types


@pytest.mark.parametrize("command,key", [
    ("validate", "nodes"),
    ("validate", "edges"),
    ("validate", "schema"),
    ("train", "paths"),
    ("train", "target_path"),
    ("train", "model_out"),
    ("train", "log_out"),
    ("train", "weights_out"),
    ("evaluate", "report_out"),
    ("predict", "model"),
])
def test_config_paths_must_be_strings(tmp_path, caplog, command, key):
    # an int would reach open() as a file descriptor
    settings = {
        "nodes": str(SAMPLE / "nodes.tsv"),
        "edges": str(SAMPLE / "edges.tsv"),
        "schema": str(SAMPLE / "schema.txt"),
        "paths": str(SAMPLE / "paths.txt"),
        "target_path": TARGET,
        "model_out": str(tmp_path / "model.npz"),
        "model": str(tmp_path / "model.npz"),
        "user": "alice",
        key: 5,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    assert main([command, "--config", str(cfg)]) == 2
    assert f"{key}: expected a string, got 5" in caplog.text
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]  # nothing trained or written


@pytest.mark.parametrize("command,message,args,config", [
    ("train", "seed must be at least 0", ["--seed", "-1"], {}),
    ("evaluate", "seed: -3 is below 0", ["--seed", "-3"], {}),
    ("train", "max_inner must be an integer", [], {"hyperparams": {"max_inner": 2.5}}),
    ("evaluate", "max_inner must be an integer", [], {"hyperparams": {"max_inner": 2.5}}),
    ("train", "d must be an integer", [], {"hyperparams": {"d": True}}),
    ("evaluate", "seed: 1.5 is not a valid int", [], {"seed": 1.5}),
    ("evaluate", "trials: 2.5 is not a valid int", [], {"trials": 2.5}),
])
def test_non_integer_or_negative_count_is_an_input_error(
    tmp_path, caplog, command, message, args, config
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "nodes": str(SAMPLE / "nodes.tsv"),
        "edges": str(SAMPLE / "edges.tsv"),
        "schema": str(SAMPLE / "schema.txt"),
        "paths": str(SAMPLE / "paths.txt"),
        "target_path": TARGET,
        "methods": ["user_mean"],
        "model_out": str(tmp_path / "model.npz"),
        "log_out": str(tmp_path / "log.csv"),
        "report_out": str(tmp_path / "report.csv"),
        **config,
    }))
    assert main([command, "--config", str(cfg), *args]) == 2
    assert message in caplog.text
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]  # nothing trained or written


# ------------------------------------------------------------- cli surface


def test_parser_offers_exactly_the_four_subcommands():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == {"validate", "train", "evaluate", "predict"}
    with pytest.raises(SystemExit) as exc:
        main(["benchmark"])
    assert exc.value.code == 2


# ------------------------------------------------------------------- top-k


def test_top_k_matches_a_full_sort():
    """Random scores, half of them drawn from a few levels so that ties
    cross the k-th place, against a sort of every (item, score) pair."""
    seen = {"tie at the k-th place": 0, "k = 1": 0, "k = m": 0, "k > m": 0}
    for seed in range(300):
        rng = np.random.default_rng([seed, 0x70C])
        m = int(rng.integers(1, 80))
        if seed % 2:
            levels = rng.random(int(rng.integers(1, 6)))
            scores = levels[rng.integers(0, levels.size, m)]
        else:
            scores = rng.random(m)
        # ids of mixed lengths in a random order, so id order is not index order
        ids = [f"i{int(x)}" for x in rng.choice(10 ** int(rng.integers(2, 5)), m, replace=False)]
        for k in {1, m, m + 1 + int(rng.integers(0, 5)), int(rng.integers(1, m + 1))}:
            got, want = cli.top_k(ids, scores, k), reference_top_k(ids, scores, k)
            assert [(i, float(s)) for i, s in got] == [(i, float(s)) for i, s in want]
            assert all(type(s) is float for _, s in got)
            if k < m and np.count_nonzero(scores == want[-1][1]) > 1:
                seen["tie at the k-th place"] += 1
            seen["k = 1"] += k == 1
            seen["k = m"] += k == m
            seen["k > m"] += k > m
    assert min(seen.values()) >= 20, seen


def test_top_k_with_ties_at_the_cut():
    scores = np.array([0.5, 0.9, 0.5, 0.1, 0.5])
    ids = ["e", "a", "c", "b", "d"]
    assert cli.top_k(ids, scores, 3) == [("a", 0.9), ("c", 0.5), ("d", 0.5)]
    assert cli.top_k(ids, scores, 1) == [("a", 0.9)]
    assert cli.top_k(ids, scores, 9) == reference_top_k(ids, scores, 9)


# ------------------------------------------------------------ observability


@pytest.mark.parametrize("case,reason", [
    ("stored", "answered from the model file: the files' source digest matches"),
    ("no digest", "answered from the parsed graph files: the model records no source digest"),
    ("digest differs", "answered from the parsed graph files: "
                       "the files' source digest differs from the model's"),
])
def test_predict_verbose_names_the_path_that_answered(tmp_path, capsys, caplog, case, reason):
    import logging

    flags = copy_sample(tmp_path)
    f = train_model(tmp_path, flags)
    if case == "no digest":
        f = without_source(f, tmp_path / "parsed.npz")
    elif case == "digest differs":
        edges = tmp_path / "edges.tsv"
        edges.write_bytes(edges.read_bytes() + b"# appended\n")
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="hetecf"):
        rc = main(["-v", "predict", *flags, "--model", str(f), "--user", "alice"])
    assert rc == 0
    assert [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("predict:")] == ["predict: " + reason]


def test_predict_names_no_path_when_it_gives_no_answer(tmp_path, capsys, caplog):
    import logging

    f = train_model(tmp_path, GRAPH_FLAGS)
    with caplog.at_level(logging.INFO, logger="hetecf"):
        rc = main(["-v", "predict", *GRAPH_FLAGS, "--model", str(f), "--user", "p01"])
    assert rc == 2
    assert not [r for r in caplog.records if r.getMessage().startswith("predict:")]


def test_predict_verbose_names_a_user_missing_from_the_stored_ids(tmp_path, capsys, caplog):
    import logging

    flags = copy_sample(tmp_path)
    f = train_model(tmp_path, flags)
    model, weights, header = load_model(str(f))
    # the same graph, but a stored user list that lacks alice: the parse path answers
    user_ids = ["x" + u if u == "alice" else u for u in header["user_ids"]]
    source = (header["source_digest"], user_ids, header["item_ids"])
    save_model(str(f), model, weights, Hyperparams(**header["hyperparams"]),
               header["graph_hash"], source)
    with caplog.at_level(logging.INFO, logger="hetecf"):
        rc, out = predict(capsys, flags, f, "alice")
    assert rc == 0 and out
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("predict:")] == [
        "predict: answered from the parsed graph files: user 'alice' is not a stored user id"]


# ------------------------------------------------------------ lazy node index


def test_train_evaluate_and_setup_never_build_the_node_index(tmp_path, capsys, monkeypatch):
    from hetecf import graph as G

    built = []
    node_index = G._node_index
    monkeypatch.setattr(G, "_node_index", lambda *args: built.append(args) or node_index(*args))
    flags = copy_sample(tmp_path)
    f = train_model(tmp_path, flags)
    setup = tmp_path / "setup.npz"  # a set-up: a train with no outer iteration
    assert main(["train", *flags, "--paths", str(SAMPLE / "paths.txt"), "--target-path", TARGET,
                 "--model-out", str(setup), *FAST, "--max-outer", "0"]) == 0
    assert main(["evaluate", *flags, "--paths", str(SAMPLE / "paths.txt"), "--target-path",
                 TARGET, "--methods", "hete_cf", "--fractions", "0.8", "--d-values", "2",
                 "--trials", "1", "--max-inner", "2", "--max-outer", "1"]) == 0
    assert predict(capsys, flags, f, "alice")[0] == 0  # from the model file
    assert built == []
    # the parse path looks the user up, and builds the index once
    assert predict(capsys, flags, without_source(f, tmp_path / "p.npz"), "alice")[0] == 0
    assert len(built) == 1


def test_node_index_built_on_demand(tmp_path):
    from hetecf import graph as G

    nodes = "p2\tPaper\nbob\tAuthor\nc1\tConf\nalice\tAuthor\np1\tPaper\n"
    (tmp_path / "nodes.tsv").write_text(nodes)
    (tmp_path / "edges.tsv").write_text("bob\tp1\twrites\np1\tc1\tpublished_in\n")
    (tmp_path / "schema.txt").write_text((SAMPLE / "schema.txt").read_text())
    g = load_graph(*(str(tmp_path / n) for n in ("nodes.tsv", "edges.tsv", "schema.txt")))
    assert "_index" not in vars(g)
    assert g._index == {
        "p2": ("Paper", 0), "bob": ("Author", 0), "c1": ("Conf", 0),
        "alice": ("Author", 1), "p1": ("Paper", 1),
    }
    assert g.node_index("alice") == ("Author", 1)
    mem = G.HeteroGraph(g.schema, g.node_ids, g.matrices)
    assert mem._index == g._index


# ---------------------------------------------------------- invalid UTF-8


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("kind,line", [("nodes.tsv", 4), ("edges.tsv", 6), ("schema.txt", 3)])
def test_file_that_is_not_utf8_names_its_file_and_line(tmp_path, caplog, kind, line, newline):
    flags = copy_sample(tmp_path)
    path = tmp_path / kind
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
    path.write_bytes(newline.encode().join(lines))
    with pytest.raises(cli.GraphFormatError) as exc:
        load_graph(*flags[1::2])
    assert exc.value.line == line and exc.value.source_path == str(path)
    rc = main(["validate", *flags])
    assert rc == 2
    assert f"{path}:{line}: not valid UTF-8 (invalid start byte 0xff)" in caplog.text


def test_path_file_that_is_not_utf8_names_its_file_and_line(tmp_path, caplog):
    flags = copy_sample(tmp_path)
    path = tmp_path / "paths.txt"
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1][:3] + b"\xe9" + lines[1][3:]  # inside the comment on line 2
    path.write_bytes(b"\n".join(lines))
    schema = load_graph(*flags[1::2]).schema
    with pytest.raises(cli.GraphFormatError) as exc:
        metapath.load_path_spec(str(path), schema)
    assert exc.value.line == 2 and exc.value.source_path == str(path)
    rc = main(["train", *flags, "--paths", str(path), "--target-path", TARGET,
               "--model-out", str(tmp_path / "model.npz"), *FAST])
    assert rc == 2
    assert f"{path}:2: not valid UTF-8 (invalid continuation byte 0xe9)" in caplog.text
    assert not (tmp_path / "model.npz").exists()


@pytest.mark.parametrize("block_records", [8192, 2])
@pytest.mark.parametrize("bad_line", [3, 7])
@pytest.mark.parametrize("kind", ["nodes.tsv", "edges.tsv"])
def test_bad_record_before_a_byte_that_is_not_utf8_comes_first(tmp_path, monkeypatch, kind,
                                                                bad_line, block_records):
    from hetecf import graph as G

    monkeypatch.setattr(G, "BLOCK_RECORDS", block_records)  # 2: lines 7 and 8 share a block
    flags = copy_sample(tmp_path)
    path = tmp_path / kind
    lines = path.read_bytes().split(b"\n")
    record = lines[bad_line - 1]
    lines[7] += b"\xff"  # line 8
    lines[bad_line - 1] = b"a\tb\tc\td\te"  # five fields: a bad node or edge
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(cli.GraphFormatError, match=f":{bad_line}: expected .* got 5 fields"):
        load_graph(*flags[1::2])
    lines[bad_line - 1] = record
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(cli.GraphFormatError, match=":8: not valid UTF-8"):
        load_graph(*flags[1::2])


# ------------------------------------------------------ the worker thread

# 80 x 24, rated at 12% density with user-item relations: the factor
# products gather the rated pairs, so the fit gradient is sparse too
SPARSE_SYNTH = synth.SynthSpec(
    seed=3, link_prob={"writes": 0.02, "published_in": 0.03, "cites": 0.005}
).scaled(2)


@pytest.mark.parametrize("network", ["sample", "sparse synth"])
def test_worker_thread_leaves_model_and_log_bytes_unchanged(tmp_path, monkeypatch, caplog,
                                                           network):
    import logging

    if network == "sample":
        flags, paths = GRAPH_FLAGS, SAMPLE / "paths.txt"
    else:
        flags, paths, _ = synth_files(tmp_path, SPARSE_SYNTH)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # small gathered blocks, so that the worker shares the synthetic
    # network's entry half too, cut off its middle
    monkeypatch.setattr(learner, "_GATHER_CHUNK", 37)
    runs = {}
    for threshold in (0, math.inf):  # every sparse product on the worker, or none
        monkeypatch.setattr(learner, "PARALLEL_MIN_WORK", threshold)
        model, log_out = tmp_path / f"{threshold}.npz", tmp_path / f"{threshold}.csv"
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="hetecf"):
            assert main(["-v", "train", *flags, "--paths", str(paths), "--target-path", TARGET,
                         "--model-out", str(model), "--log-out", str(log_out), *FAST]) == 0
        with log_out.open(newline="") as fh:
            rows = [{k: v for k, v in row.items() if not k.endswith("_seconds")}
                    for row in csv.DictReader(fh)]
        report = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("factor kernels")]
        runs[threshold] = (model.read_bytes(), rows, report)
    assert runs[0][:2] == runs[math.inf][:2]
    assert len(runs[0][2]) == 1 and runs[0][2][0].startswith("factor kernels ran on two threads")
    split = re.search(r"; entry halves split: (\d+);", runs[0][2][0])
    assert split and (int(split[1]) > 0) == (network == "sparse synth"), runs[0][2][0]
    assert len(runs[math.inf][2]) == 1
    assert runs[math.inf][2][0].startswith("factor kernels ran on one thread: below the threshold")



# ------------------------------------------------------ set-up on two threads


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _network(tmp_path, network):
    """Graph flags of the sample or a sparse synthetic network; both take
    the sample's five paths, an inert one and a one-way one among them."""
    if network == "sample":
        return GRAPH_FLAGS
    return synth_files(tmp_path, SPARSE_SYNTH)[0]


@pytest.mark.parametrize("network", ["sample", "sparse synth"])
def test_set_up_on_two_threads_leaves_every_output_unchanged(tmp_path, monkeypatch, caplog,
                                                              capsys, network):
    import logging

    flags = _network(tmp_path, network)
    runs = {}
    for count in (1, 2):
        _cpus(monkeypatch, count)
        out = tmp_path / f"cpus{count}"
        out.mkdir()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hetecf"):
            assert main(["train", *flags, "--paths", str(SAMPLE / "paths.txt"),
                         "--target-path", TARGET, "--model-out", str(out / "model.npz"),
                         "--log-out", str(out / "log.csv"),
                         "--weights-out", str(out / "weights.csv"), *FAST]) == 0
        with (out / "log.csv").open(newline="") as fh:
            rows = [{k: v for k, v in row.items() if not k.endswith("_seconds")}
                    for row in csv.DictReader(fh)]
        warnings = [(r.name, r.getMessage()) for r in caplog.records
                    if r.levelno >= logging.WARNING]
        runs[count] = ((out / "model.npz").read_bytes(),
                       capsys.readouterr().out.replace(str(out), "OUT"),
                       (out / "weights.csv").read_bytes(), rows, warnings)
    assert runs[1] == runs[2]
    inert = [m for _, m in runs[2][4] if "is inert" in m]
    assert len(inert) == len(runs[2][4])
    if network == "sample":
        assert inert == ["II path Conf <-published_in- Paper -published_in-> Conf is inert: "
                         "its similarity has no entries off the diagonal, so its Laplacian "
                         "is zero"]


def _csr_arrays(M):
    return [(a.dtype.str, a.tobytes()) for a in (M.indptr, M.indices, M.data)]


@pytest.mark.parametrize("network", ["sample", "sparse synth"])
def test_set_up_arrays_match_one_thread_and_the_library_route(tmp_path, monkeypatch,
                                                               network):
    from hetecf.model import LaplacianSet

    flags = _network(tmp_path, network)
    args = cli.build_parser().parse_args(
        ["train", *flags, "--paths", str(SAMPLE / "paths.txt"), "--target-path", TARGET])
    outputs = {}
    for count in (1, 2):
        _cpus(monkeypatch, count)
        graph, groups, ratings, rels, laps = cli._prepare_training(args, {})
        outputs[count] = (
            [ratings.rows.tobytes(), ratings.cols.tobytes(), ratings.vals.tobytes()],
            [(str(s.path), s.symmetric, s.matrix) for s in rels.user_user + rels.item_item],
            [(str(s.path), _csr_arrays(s.matrix)) for s in rels.user_item],
            [_csr_arrays(L) for L in laps.user + laps.item],
        )
    assert outputs[1] == outputs[2]

    # the serial library route gives the same similarities and Laplacians;
    # training keeps no UU or II similarity matrix, only its path
    library = metapath.build_relation_set(graph, groups)
    library_laps = LaplacianSet.from_relation_set(library)
    assert outputs[2][1] == [(str(s.path), s.symmetric, None)
                             for s in library.user_user + library.item_item]
    assert outputs[2][2] == [(str(s.path), _csr_arrays(s.matrix)) for s in library.user_item]
    assert outputs[2][3] == [_csr_arrays(L) for L in library_laps.user + library_laps.item]

    # the two-thread set-up left the graph's own matrices as loaded
    fresh = load_graph(*flags[1::2])
    assert graph.matrices.keys() == fresh.matrices.keys()
    for name, M in graph.matrices.items():
        assert _csr_arrays(M) == _csr_arrays(fresh.matrices[name])


def test_no_worker_thread_outlives_train_or_evaluate(tmp_path, monkeypatch):
    import threading

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(learner, "PARALLEL_MIN_WORK", 0)  # the factor kernels share too
    paths = ["--paths", str(SAMPLE / "paths.txt"), "--target-path", TARGET]
    assert main(["train", *GRAPH_FLAGS, *paths, "--model-out", str(tmp_path / "m.npz"),
                 *FAST]) == 0
    assert not [t for t in threading.enumerate() if t.name.startswith("hetecf-")]
    assert main(["evaluate", *GRAPH_FLAGS, *paths, "--methods", "hete_cf,user_mean",
                 "--fractions", "0.6", "--d-values", "2", "--trials", "2", *FAST]) == 0
    assert not [t for t in threading.enumerate() if t.name.startswith("hetecf-")]


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_verbose_set_up_logs_each_path_and_the_totals(tmp_path, monkeypatch, caplog, capsys,
                                                      command):
    import logging
    import re

    _cpus(monkeypatch, 2)
    argv = [command, *GRAPH_FLAGS, "--paths", str(SAMPLE / "paths.txt"),
            "--target-path", TARGET, *FAST]
    argv += (["--model-out", str(tmp_path / "m.npz")] if command == "train"
             else ["--methods", "hete_cf", "--fractions", "0.6", "--d-values", "2",
                   "--trials", "2"])
    assert main(argv) == 0
    quiet = capsys.readouterr().out
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="hetecf"):
        assert main(["-v", *argv]) == 0
    assert capsys.readouterr().out == quiet  # nothing added to stdout
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("set-up")]
    declared = [line.split(":", 1) for line in (SAMPLE / "paths.txt").read_text().splitlines()
                if line and not line.startswith("#")]
    assert len(lines) == len(declared) + 1  # evaluate sets up once, for every fit
    estimates = []
    for line, (group, path) in zip(lines, declared):
        laplacian = r", Laplacian \d+" if group != "UI" else ""
        match = re.fullmatch(
            rf"set-up: {group} path {re.escape(path.strip())}: nnz of counts \d+, "
            rf"similarity \d+{laplacian}; (\d+) instances, \d+\.\d+s on "
            rf"(MainThread|hetecf-worker_0)", line
        )
        assert match, line
        estimates.append(int(match[1]))
    # the worker takes the path of most instances (the first of them)
    assert "on hetecf-worker_0" in lines[estimates.index(max(estimates))]
    assert re.fullmatch(r"set-up: load \d+\.\d+s; ratings \d+\.\d+s and relation set with "
                        r"Laplacians \d+\.\d+s of task time, \d+\.\d+s wall on two threads",
                        lines[-1]), lines[-1]


@pytest.mark.parametrize("network", ["sample", "sparse synth"])
def test_costliest_path_is_the_workers_first_task_wherever_it_is_declared(
        tmp_path, monkeypatch, caplog, capsys, network):
    import logging
    import threading

    flags = _network(tmp_path, network)
    # the sample's five paths, then a UI path of more instances than any
    paths = tmp_path / "paths.txt"
    costliest = "Author -writes-> Paper <-writes- Author -writes-> Paper -published_in-> Conf"
    paths.write_text((SAMPLE / "paths.txt").read_text() + f"UI: {costliest}\n")
    set_up_path = cli._set_up_path
    runs = {}
    for count in (1, 2):
        _cpus(monkeypatch, count)
        calls = []

        def recorded(graph, group, path):
            calls.append((threading.current_thread().name, str(path)))
            return set_up_path(graph, group, path)

        monkeypatch.setattr(cli, "_set_up_path", recorded)
        out = tmp_path / f"cpus{count}"
        out.mkdir()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="hetecf"):
            assert main(["-v", "train", *flags, "--paths", str(paths), "--target-path", TARGET,
                         "--model-out", str(out / "model.npz"),
                         "--weights-out", str(out / "weights.csv"), *FAST]) == 0
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("set-up")]
        estimates = [float(re.search(r"; (\S+) instances, ", line)[1]) for line in lines[:-1]]
        runs[count] = ((out / "model.npz").read_bytes(), (out / "weights.csv").read_bytes(),
                       capsys.readouterr().out.replace(str(out), "OUT"),
                       [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING],
                       [line.split(" instances, ")[0] for line in lines[:-1]])
        # the estimate ranks the last declared path first
        assert lines[-2].startswith(f"set-up: UI path {costliest}: ")
        assert estimates[-1] > max(estimates[:-1])
        if count == 1:
            assert calls[0] == (threading.current_thread().name, costliest)
        else:
            on_worker = [path for name, path in calls if name.startswith("hetecf-worker")]
            assert on_worker[0] == costliest
            assert lines[-2].endswith("on hetecf-worker_0")
    assert runs[1] == runs[2]
    assert all("is inert" in m for m in runs[2][3])
    assert len(runs[2][3]) == (network == "sample")
