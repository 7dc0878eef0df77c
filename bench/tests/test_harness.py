"""Tests of the benchmark's own pieces: input sampler, span arithmetic, wrappers.

    python -m pytest bench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import networks  # noqa: E402
from tracer import Span, Tracer, covered_length, self_times, summarize  # noqa: E402


def _edges(net):
    return {rel: (src.tolist(), dst.tolist()) for rel, _, _, src, dst in net.edges}


def test_sparse_sampler_is_deterministic_per_seed():
    assert _edges(networks.sparse_network(7)) == _edges(networks.sparse_network(7))
    assert _edges(networks.sparse_network(7)) != _edges(networks.sparse_network(8))


def test_sparse_sampler_degrees_and_ranges():
    net = networks.sparse_network(0)
    for rel, st, dt, src, dst in net.edges:
        degree = networks.SPARSE_DEGREES[rel][2]
        assert np.all(np.bincount(src) == degree)
        assert 0 <= dst.min() and dst.max() < networks.SPARSE_COUNTS[dt]
        if st == dt:
            assert not np.any(src == dst)
    assert sum(src.size for _, _, _, src, _ in net.edges) == 51000


def test_sparse_network_files_load(tmp_path):
    from hetecf.graph import load_graph

    files = networks.sparse_network(1).write(tmp_path)
    graph = load_graph(files["nodes"], files["edges"], files["schema"])
    assert graph.node_count("Author") == 3000
    assert graph.matrices["published_in"].nnz == 6000


def _span(name, start, end, parent):
    s = Span(name, start, parent)
    s.end = end
    return s


def test_covered_length_merges_overlaps_and_skips_empty():
    assert covered_length([]) == 0.0
    assert covered_length([(1, 3), (2, 5), (7, 8), (4, 4)]) == pytest.approx(5.0)


def test_self_time_subtracts_covered_children_clipped_to_parent():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),  # overlaps a: the union counts once
        _span("c", 8.0, 12.0, 0),  # runs past the parent: clipped at 10
        _span("d", 2.5, 2.75, 2),  # grandchild: only b's self time shrinks
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.75, 4.0, 0.25])


def test_summarize_counts_recursion_once():
    spans = [
        _span("f", 0.0, 4.0, -1),
        _span("f", 1.0, 2.0, 0),
        _span("g", 5.0, 6.0, -1),
    ]
    s = summarize(spans)
    assert s["f"]["calls"] == 2
    assert s["f"]["seconds"] == pytest.approx(4.0)
    assert s["f"]["self_seconds"] == pytest.approx(3.0 + 1.0)
    assert s["g"]["seconds"] == pytest.approx(1.0)


def test_wrappers_reach_from_imports_and_restore_originals():
    import hetecf
    from hetecf import cli, graph, learner, model

    before = {
        "graph": graph.load_graph,
        "cli": cli.load_graph,
        "pkg": hetecf.load_graph,
        "learner_obj": learner.objective,
        "predict_pairs": model.FactorModel.__dict__["predict_pairs"],
    }
    targets = dict(layers.TARGETS)
    targets["missing"] = ("hetecf.graph", "no_such_function", None)
    targets["missing_module"] = ("hetecf.no_such_module", "f", None)
    with Tracer(targets) as tracer:
        assert graph.load_graph is not before["graph"]
        assert cli.load_graph is graph.load_graph
        assert hetecf.load_graph is graph.load_graph
        assert learner.objective is model.objective is not before["learner_obj"]
        assert model.FactorModel.__dict__["predict_pairs"] is not before["predict_pairs"]
        fm = model.FactorModel(np.ones((2, 1)), np.ones((3, 1)))
        assert fm.predict_pairs([0, 1], [2, 0]).shape == (2,)
    assert sorted(tracer.absent) == ["missing", "missing_module"]
    assert [s.name for s in tracer.spans] == ["model.predict_pairs"]
    assert tracer.spans[0].info == {"pairs": 2}
    assert graph.load_graph is before["graph"]
    assert cli.load_graph is before["cli"]
    assert hetecf.load_graph is before["pkg"]
    assert learner.objective is before["learner_obj"]
    assert model.FactorModel.__dict__["predict_pairs"] is before["predict_pairs"]


def test_spans_survive_exceptions(tmp_path):
    from hetecf import graph

    missing = str(tmp_path / "missing")
    with Tracer(layers.TARGETS) as tracer:
        with pytest.raises(OSError):
            graph.load_graph(missing, missing, missing)
    (span,) = tracer.spans
    assert span.name == "graph.load_graph" and span.end >= span.start
    assert span.info is None


def test_reference_is_fixed_and_checks_its_result():
    from reference import Reference

    ref = Reference()
    assert ref.expected == Reference().expected
    assert ref.time() > 0
    ref.text += "a1\tp1\twrites\n"
    with pytest.raises(RuntimeError):
        ref.time()


class _Call:
    def __init__(self, kind, wall):
        self.kind, self.wall = kind, wall


class _Session:
    def __init__(self, calls, reference_walls):
        self.calls = [_Call(k, w) for k, w in calls]
        self.reference_walls = reference_walls


def test_relative_walls_use_the_nearest_reference_passes():
    import run

    # the host halves its speed after the fourth call
    refs = [1.0] * 4 + [2.0] * 4
    calls = [("train", 10.0)] * 4 + [("train", 20.0), ("predict", 3.0)] * 2
    session = _Session(calls, refs)
    assert run.relative_walls(session, "train", window=3) == pytest.approx(
        [10.0, 10.0, 10.0, 10.0, 10.0, 10.0])
    assert run.relative_walls(session, "predict", window=3) == pytest.approx([1.5, 1.5])
    # windows near either end shift inward instead of shrinking
    assert run.relative_walls(session, "train", window=8) == pytest.approx(
        [10 / 1.5] * 4 + [20 / 1.5] * 2)
    with pytest.raises(RuntimeError):
        run.relative_walls(_Session(calls, refs[:-1]), "train")
