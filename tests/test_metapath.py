"""Meta-paths: parsing, reversal, path counting, PathSim, spec files."""

import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

import hetecf as h
from hetecf import GraphFormatError, PathError, PathSpecError
from hetecf.learner import set_up
from hetecf.metapath import (
    PathGroups,
    SimilarityMatrix,
    _symmetric,
    declared,
    load_path_spec,
    parse_path_spec,
    path_count,
    pathsim,
    similarity,
)
from hetecf.model import laplacian

from oracles import (
    dfs_path_count,
    naive_pathsim,
    reference_laplacian,
    reference_relation_set,
)

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "sample_data"
TARGET = "Author -writes-> Paper -published_in-> Conf"


def cite_schema():
    """Bibliographic schema with a same-type citation relation."""
    return h.Schema(
        ("Author", "Paper", "Conf"), "Author", "Conf",
        (h.Relation("writes", "Author", "Paper"),
         h.Relation("published_in", "Paper", "Conf"),
         h.Relation("cites", "Paper", "Paper")),
    )


# ------------------------------------------------------------- construction


def test_make_path_derives_types(biblio_schema):
    p = h.make_path(biblio_schema, [("writes", True), ("published_in", True)])
    assert p.node_types == ("Author", "Paper", "Conf")
    assert p.source_type == "Author"
    assert p.target_type == "Conf"


def test_make_path_rejects_disconnected_steps(biblio_schema):
    with pytest.raises(PathError, match="starts at"):
        h.make_path(biblio_schema, [("writes", True), ("writes", True)])


def test_make_path_rejects_unknown_relation(biblio_schema):
    with pytest.raises(h.SchemaError, match="unknown relation"):
        h.make_path(biblio_schema, [("frobnicates", True)])


def test_parse_round_trips_to_string(biblio_schema):
    text = "Author -writes-> Paper <-writes- Author"
    p = h.parse_path(text, biblio_schema)
    assert p.to_string() == text
    assert h.parse_path(p.to_string(), biblio_schema) == p


def test_parse_rejects_malformed_arrow(biblio_schema):
    with pytest.raises(PathError, match="arrow"):
        h.parse_path("Author =writes=> Paper", biblio_schema)


def test_parse_rejects_undeclared_type(biblio_schema):
    with pytest.raises(PathError, match="undeclared"):
        h.parse_path("Author -writes-> Thesis", biblio_schema)


def test_parse_rejects_type_relation_mismatch(biblio_schema):
    with pytest.raises(PathError):
        h.parse_path("Author -published_in-> Conf", biblio_schema)


def test_parse_rejects_bare_type(biblio_schema):
    with pytest.raises(PathError, match="malformed"):
        h.parse_path("Author", biblio_schema)


# ------------------------------------------------------------------ reverse


def test_reverse_author_paper_conf(biblio_schema):
    p = h.parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema)
    r = h.reverse(p)
    assert r.to_string() == "Conf <-published_in- Paper <-writes- Author"
    assert r.node_types == ("Conf", "Paper", "Author")


def test_reverse_is_involution_on_random_paths():
    schema = cite_schema()
    rng = np.random.default_rng(3)
    arcs = {
        "Author": [("writes", True, "Paper")],
        "Paper": [("writes", False, "Author"), ("published_in", True, "Conf"),
                  ("cites", True, "Paper"), ("cites", False, "Paper")],
        "Conf": [("published_in", False, "Paper")],
    }
    for _ in range(200):
        at = ("Author", "Paper", "Conf")[rng.integers(0, 3)]
        steps = []
        for _ in range(int(rng.integers(1, 5))):
            rel, fwd, nxt = arcs[at][rng.integers(0, len(arcs[at]))]
            steps.append((rel, fwd))
            at = nxt
        p = h.make_path(schema, steps)
        assert h.reverse(h.reverse(p)) == p


def test_palindromic_coauthor_path(biblio_schema):
    p = h.parse_path("Author -writes-> Paper <-writes- Author", biblio_schema)
    assert p.is_palindromic


def test_conf_sharing_path_is_palindromic(biblio_schema):
    p = h.parse_path(
        "Conf <-published_in- Paper -published_in-> Conf", biblio_schema
    )
    assert p.is_palindromic


def test_citation_path_not_palindromic():
    # C-P-P-C through a directed citation: type sequence is a palindrome
    # but the middle step does not flip under reversal
    schema = cite_schema()
    p = h.parse_path(
        "Conf <-published_in- Paper -cites-> Paper -published_in-> Conf", schema
    )
    assert p.node_types == tuple(reversed(p.node_types))
    assert not p.is_palindromic


def test_forward_only_path_not_palindromic(biblio_schema):
    p = h.parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema)
    assert not p.is_palindromic


# --------------------------------------------------------------- path_count


def test_path_count_toy_coauthor(toy_graph, biblio_schema):
    p = h.parse_path("Author -writes-> Paper <-writes- Author", biblio_schema)
    pc = path_count(toy_graph, p)
    expected = np.array([[3, 2, 1], [2, 2, 0], [1, 0, 1]], dtype=float)
    assert np.array_equal(pc.matrix.toarray(), expected)


def test_path_count_matches_dfs_on_random_graphs():
    schema = cite_schema()
    rng = np.random.default_rng(7)
    for trial in range(30):
        na, np_, nc = rng.integers(1, 8, size=3)
        nodes = (
            [(f"a{i}", "Author") for i in range(na)]
            + [(f"p{i}", "Paper") for i in range(np_)]
            + [(f"c{i}", "Conf") for i in range(nc)]
        )
        edges = []
        for i in range(na):
            for j in range(np_):
                if rng.random() < 0.35:
                    edges.append((f"a{i}", f"p{j}", "writes"))
        for i in range(np_):
            for j in range(nc):
                if rng.random() < 0.35:
                    edges.append((f"p{i}", f"c{j}", "published_in"))
            for j in range(np_):
                if i != j and rng.random() < 0.25:
                    edges.append((f"p{i}", f"p{j}", "cites"))
        g = h.build_graph(schema, nodes, edges)
        for text in (
            "Author -writes-> Paper <-writes- Author",
            "Author -writes-> Paper -published_in-> Conf",
            "Author -writes-> Paper -cites-> Paper -published_in-> Conf",
            "Conf <-published_in- Paper -cites-> Paper -published_in-> Conf",
            "Paper -cites-> Paper -cites-> Paper",
        ):
            p = h.parse_path(text, schema)
            got = path_count(g, p).matrix.toarray()
            want = dfs_path_count(g, p)
            # unit weights: both evaluations are exact integer arithmetic
            assert np.array_equal(got, want), (trial, text)


def test_path_count_exact_integers_with_unit_weights(toy_graph, biblio_schema):
    p = h.parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema)
    counts = path_count(toy_graph, p).matrix.toarray()
    assert np.array_equal(counts, counts.astype(np.int64))


def test_path_count_respects_weights(biblio_schema):
    g = h.build_graph(
        biblio_schema,
        [("a1", "Author"), ("p1", "Paper"), ("c1", "Conf")],
        [("a1", "p1", "writes", 2.0), ("p1", "c1", "published_in", 3.0)],
    )
    p = h.parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema)
    pc = path_count(g, p)
    assert pc.matrix[0, 0] == pytest.approx(6.0)
    assert np.allclose(pc.matrix.toarray(), dfs_path_count(g, p))


def test_path_count_reverse_is_transpose(toy_graph, biblio_schema):
    p = h.parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema)
    pc = path_count(toy_graph, p).matrix.toarray()
    rc = path_count(toy_graph, h.reverse(p)).matrix.toarray()
    assert np.array_equal(rc, pc.T)


def test_path_count_empty_graph(biblio_schema):
    g = h.build_graph(
        biblio_schema,
        [("a1", "Author"), ("p1", "Paper"), ("c1", "Conf")],
        [],
    )
    p = h.parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema)
    pc = path_count(g, p)
    assert pc.matrix.nnz == 0
    assert pc.matrix.shape == (1, 1)


def test_path_count_validates_against_schema(toy_graph):
    other = cite_schema()
    p = h.parse_path("Paper -cites-> Paper", other)
    with pytest.raises(h.SchemaError, match="unknown relation"):
        path_count(toy_graph, p)


# ------------------------------------------------------------------ pathsim


def test_pathsim_rowcol_frozen_toy_values(toy_graph, biblio_schema):
    p = h.parse_path("Author -writes-> Paper <-writes- Author", biblio_schema)
    sim = pathsim(path_count(toy_graph, p))
    # counts: row sums (6, 4, 2); 2*2 / (6 + 4) = 0.4
    assert sim.matrix[0, 1] == pytest.approx(0.4, abs=1e-15)
    assert sim.matrix[1, 0] == pytest.approx(0.4, abs=1e-15)


def test_pathsim_matches_naive_oracle(toy_graph, biblio_schema):
    p = h.parse_path("Author -writes-> Paper <-writes- Author", biblio_schema)
    pc = path_count(toy_graph, p)
    got = pathsim(pc).matrix.toarray()
    assert np.allclose(got, naive_pathsim(pc.matrix.toarray()), atol=1e-15)


def test_pathsim_single_instance_is_one(biblio_schema):
    g = h.build_graph(
        biblio_schema,
        [("a1", "Author"), ("p1", "Paper"), ("c1", "Conf")],
        [("a1", "p1", "writes"), ("p1", "c1", "published_in")],
    )
    p = h.parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema)
    sim = pathsim(path_count(g, p))
    assert sim.matrix[0, 0] == pytest.approx(1.0)


def test_pathsim_zero_denominator_gives_zero(biblio_schema):
    g = h.build_graph(
        biblio_schema,
        [("a1", "Author"), ("a2", "Author"), ("p1", "Paper"), ("c1", "Conf")],
        [("a1", "p1", "writes")],
    )
    p = h.parse_path("Author -writes-> Paper <-writes- Author", biblio_schema)
    sim = pathsim(path_count(g, p))
    # a2 has no paths at all: the (a2, a2) denominator is 0
    assert sim.matrix[1, 1] == 0.0
    assert sim.matrix[0, 0] == pytest.approx(1.0)


def test_pathsim_range_and_symmetry_random():
    schema = cite_schema()
    rng = np.random.default_rng(99)
    pal = h.parse_path("Author -writes-> Paper <-writes- Author", schema)
    ui = h.parse_path("Author -writes-> Paper -published_in-> Conf", schema)
    for trial in range(20):
        na, np_, nc = rng.integers(2, 9, size=3)
        nodes = (
            [(f"a{i}", "Author") for i in range(na)]
            + [(f"p{i}", "Paper") for i in range(np_)]
            + [(f"c{i}", "Conf") for i in range(nc)]
        )
        edges = [
            (f"a{i}", f"p{j}", "writes", float(rng.integers(1, 4)))
            for i in range(na) for j in range(np_) if rng.random() < 0.4
        ] + [
            (f"p{i}", f"c{j}", "published_in")
            for i in range(np_) for j in range(nc) if rng.random() < 0.4
        ]
        g = h.build_graph(schema, nodes, edges)
        for path in (pal, ui):
            m = pathsim(path_count(g, path)).matrix.toarray()
            assert m.min() >= 0.0 and m.max() <= 1.0 + 1e-15
            if path is pal:
                assert np.allclose(m, m.T, atol=1e-12)


def _coo_pathsim(pc):
    """PathSim rebuilt from COO triples into a fresh canonical CSR; the
    column sums of counts marked symmetric are their row sums."""
    m = sp.csr_array(pc.matrix, dtype=np.float64).tocoo()
    rowsum = np.asarray(pc.matrix.sum(axis=1)).ravel()
    colsum = rowsum if pc.symmetric else np.asarray(pc.matrix.sum(axis=0)).ravel()
    denom = rowsum[m.row] + colsum[m.col]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(denom > 0, 2.0 * m.data / np.where(denom > 0, denom, 1.0), 0.0)
    out = sp.csr_array((vals, (m.row, m.col)), shape=m.shape)
    out.eliminate_zeros()
    return out


def test_pathsim_bitwise_equals_coo_reference():
    # multi-step products come out of the sparse matmul with unsorted indices
    schema = cite_schema()
    rng = np.random.default_rng(7)
    paths = [
        h.parse_path(text, schema)
        for text in (
            "Author -writes-> Paper <-writes- Author",
            "Conf <-published_in- Paper -cites-> Paper <-cites- Paper -published_in-> Conf",
            "Author -writes-> Paper -cites-> Paper -published_in-> Conf",
            "Author -writes-> Paper",
        )
    ]
    unsorted = 0
    for trial in range(10):
        na, np_, nc = rng.integers(5, 40, size=3)
        nodes = (
            [(f"a{i}", "Author") for i in range(na)]
            + [(f"p{i}", "Paper") for i in range(np_)]
            + [(f"c{i}", "Conf") for i in range(nc)]
        )
        edges = [
            (f"a{i}", f"p{j}", "writes", float(rng.random()))
            for i in range(na) for j in range(np_) if rng.random() < 0.2
        ] + [
            (f"p{i}", f"p{j}", "cites")
            for i in range(np_) for j in range(np_) if rng.random() < 0.1
        ] + [(f"p{i}", f"c{rng.integers(0, nc)}", "published_in") for i in range(np_)]
        g = h.build_graph(schema, nodes, edges)
        for path in paths:
            pc = path_count(g, path)
            before = [a.copy() for a in (pc.matrix.indptr, pc.matrix.indices, pc.matrix.data)]
            unsorted += not pc.matrix.has_sorted_indices
            got = pathsim(pc).matrix
            want = _coo_pathsim(pc)
            for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                         (got.data, want.data)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert np.allclose(got.toarray(), naive_pathsim(pc.matrix.toarray()), atol=1e-12)
            after = (pc.matrix.indptr, pc.matrix.indices, pc.matrix.data)
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert unsorted > 0


# ----------------------------------------------------------- path-set files


SPEC_TEXT = """\
# bibliographic meta-path set
UU: Author -writes-> Paper <-writes- Author
II: Conf <-published_in- Paper -published_in-> Conf
UI: Author -writes-> Paper -published_in-> Conf
"""


def test_parse_path_spec_groups(biblio_schema):
    groups = parse_path_spec(SPEC_TEXT, biblio_schema)
    assert groups.counts == (1, 1, 1)
    assert groups.user_user[0].source_type == "Author"
    assert groups.item_item[0].source_type == "Conf"


def test_parse_path_spec_bibliographic_shape():
    # the three-per-side layout used for bibliography-style networks
    schema = cite_schema()
    text = "\n".join([
        "UU: Author -writes-> Paper <-writes- Author",
        "UU: Author -writes-> Paper -cites-> Paper <-writes- Author",
        "UU: Author -writes-> Paper <-cites- Paper <-writes- Author",
        "II: Conf <-published_in- Paper -published_in-> Conf",
        "II: Conf <-published_in- Paper -cites-> Paper -published_in-> Conf",
        "II: Conf <-published_in- Paper <-cites- Paper -published_in-> Conf",
        "UI: Author -writes-> Paper -published_in-> Conf",
        "UI: Author -writes-> Paper -cites-> Paper -published_in-> Conf",
    ])
    groups = parse_path_spec(text, schema)
    assert groups.counts == (3, 3, 2)


def test_parse_path_spec_social_shape():
    # event-recommendation layout: four user-user, three per remaining group
    schema = h.Schema(
        ("User", "Event", "Group", "Venue", "Tag"), "User", "Event",
        (h.Relation("attends", "User", "Event"),
         h.Relation("joins", "User", "Group"),
         h.Relation("tagged", "User", "Tag"),
         h.Relation("hosted_at", "Event", "Venue")),
    )
    text = "\n".join([
        "UU: User -attends-> Event <-attends- User",
        "UU: User -joins-> Group <-joins- User",
        "UU: User -tagged-> Tag <-tagged- User",
        "UU: User -joins-> Group <-joins- User -joins-> Group <-joins- User",
        "II: Event <-attends- User -attends-> Event",
        "II: Event -hosted_at-> Venue <-hosted_at- Event",
        "II: Event <-attends- User -joins-> Group <-joins- User -attends-> Event",
        "UI: User -attends-> Event",
        "UI: User -joins-> Group <-joins- User -attends-> Event",
        "UI: User -attends-> Event -hosted_at-> Venue <-hosted_at- Event",
    ])
    groups = parse_path_spec(text, schema)
    assert groups.counts == (4, 3, 3)


def test_parse_path_spec_rejects_wrong_endpoints(biblio_schema):
    with pytest.raises(PathSpecError, match="UU path must run"):
        parse_path_spec(
            "UU: Author -writes-> Paper -published_in-> Conf", biblio_schema
        )


def test_parse_path_spec_rejects_unknown_group(biblio_schema):
    with pytest.raises(PathSpecError, match="expected"):
        parse_path_spec("XX: Author -writes-> Paper", biblio_schema)


def test_load_path_spec_reports_file_and_line(tmp_path, biblio_schema):
    f = tmp_path / "paths.txt"
    f.write_text("# ok\nUU: Author -writes-> Paper <-writes- Author\nbogus line\n")
    with pytest.raises(PathSpecError) as err:
        load_path_spec(str(f), biblio_schema)
    assert isinstance(err.value, GraphFormatError)  # located the same way
    assert err.value.line == 3 and err.value.source_path == str(f)
    assert str(err.value).startswith(f"{f}:3: expected")


@pytest.mark.parametrize("inside", ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_path_spec_lines_end_only_at_line_ends(tmp_path, biblio_schema, inside):
    # str.splitlines also breaks at these characters: it would cut the path
    # line in two, and turn the comment's tail into a line of its own that
    # shifts every later line number
    text = (f"# a comment{inside}that goes on\r\n"
            f"UU: Author -writes-> Paper{inside}<-writes- Author\r"
            "II: Conf <-published_in- Paper -published_in-> Conf\n")
    groups = parse_path_spec(text, biblio_schema)
    assert groups.counts == (1, 1, 0)
    assert str(groups.user_user[0]) == "Author -writes-> Paper <-writes- Author"
    f = tmp_path / "paths.txt"
    f.write_bytes((text + "bogus line\n").encode("utf-8"))
    with pytest.raises(PathSpecError) as err:
        load_path_spec(str(f), biblio_schema)
    assert str(err.value).startswith(f"{f}:4: ")


def test_set_up_counts_and_symmetry(toy_graph, biblio_schema):
    groups = parse_path_spec(SPEC_TEXT, biblio_schema)
    inputs = set_up(toy_graph, groups, h.parse_path(TARGET, biblio_schema))
    rels = inputs.rels
    assert [len(rels.user_user), len(rels.item_item), len(rels.user_item)] == [1, 1, 1]
    # a UU or II path keeps its Laplacian, which is symmetric as S is
    for sims, laps, size in ((rels.user_user, rels.laps.user, 3),
                             (rels.item_item, rels.laps.item, 2)):
        assert sims[0].matrix is None and sims[0].symmetric
        m = laps[0].toarray()
        assert m.shape == (size, size)
        assert np.array_equal(m, m.T)
    assert rels.user_item[0].matrix.shape == (3, 2)


def test_one_step_paths_leave_the_graph_unchanged():
    # a zero-weight edge is stored explicitly; eliminate_zeros on a shared
    # adjacency would drop it from the graph itself
    schema = h.Schema(
        ("Author", "Paper", "Conf"), "Author", "Conf",
        (h.Relation("knows", "Author", "Author"),
         h.Relation("writes", "Author", "Paper"),
         h.Relation("published_in", "Paper", "Conf")),
    )
    g = h.build_graph(
        schema,
        [("a1", "Author"), ("a2", "Author"), ("p1", "Paper"), ("c1", "Conf")],
        [("a1", "a2", "knows", 0.0), ("a1", "a1", "knows", 2.0),
         ("a2", "a1", "knows", 3.0), ("a1", "p1", "writes"),
         ("a2", "p1", "writes", 0.0), ("p1", "c1", "published_in")],
    )
    before = {name: (m.indptr.copy(), m.indices.copy(), m.data.copy())
              for name, m in g.matrices.items()}
    digest = h.content_hash(g)
    groups = parse_path_spec(
        "UU: Author -knows-> Author\n"
        "UU: Author <-knows- Author\n"
        "II: Conf <-published_in- Paper -published_in-> Conf\n"
        "UI: Author -writes-> Paper -published_in-> Conf\n",
        schema,
    )
    set_up(g, groups, groups.user_item[0])
    assert path_count(g, h.parse_path("Author -writes-> Paper", schema)).matrix.nnz == 1
    for name, arrays in before.items():
        m = g.matrices[name]
        for got, want in zip((m.indptr, m.indices, m.data), arrays):
            assert np.array_equal(got, want), name
    assert before["knows"][0].tolist() == [0, 2, 3]
    assert h.content_hash(g) == digest


# ------------------------------------------ fast path against the plain route


def _arrays(m):
    return [(a.dtype, a.tobytes()) for a in (m.indptr, m.indices, m.data)] + [m.shape]


def _groups_of(schema, texts):
    """PathGroups holding every path of ``texts`` that runs user-user,
    item-item or user-item."""
    paths = [h.parse_path(t, schema) for t in texts]

    def running(a, b):
        return [p for p in paths if (p.source_type, p.target_type) == (a, b)]

    u, i = schema.user_type, schema.item_type
    return PathGroups(running(u, u), running(i, i), running(u, i))


def _assert_matches_reference(graph, groups):
    inputs = set_up(graph, groups, h.parse_path(TARGET, graph.schema))
    rels, laps = inputs.rels, inputs.rels.laps
    want = reference_relation_set(graph, groups)
    # set_up keeps no UU or II similarity matrix; similarity gives it
    graph_sims = [similarity(graph, group, path)[1]
                  for group, path in declared(groups) if group != "UI"]
    got = [graph_sims[:len(want[0])], graph_sims[len(want[0]):], rels.user_item]
    for sims, mats in zip(got, want):
        assert [_arrays(s.matrix) for s in sims] == [_arrays(m) for m in mats]
    assert [_arrays(L) for L in laps.user + laps.item] == [
        _arrays(reference_laplacian(S)) for S in want[0] + want[1]
    ]
    assert [s.symmetric for s in graph_sims] == [
        s.symmetric for s in rels.user_user + rels.item_item]
    for sim in graph_sims:
        dense = sim.matrix.toarray()
        if sim.symmetric:
            assert np.array_equal(dense, dense.T)
    return rels


def test_relation_sets_and_laplacians_match_reference_route_on_corpus(graph_corpus):
    from conftest import CITE_SCHEMA, PATH_TEXTS

    groups = _groups_of(CITE_SCHEMA, PATH_TEXTS)
    assert groups.counts == (3, 2, 2)
    marked = 0
    for g in graph_corpus:
        rels = _assert_matches_reference(g, groups)
        marked += sum(s.symmetric for s in rels.user_user + rels.item_item)
    assert marked >= 300  # every palindromic path of every graph


def test_relation_set_matches_reference_route_on_sample_data():
    g = h.load_graph(*(str(SAMPLE / f) for f in ("nodes.tsv", "edges.tsv", "schema.txt")))
    groups = load_path_spec(str(SAMPLE / "paths.txt"), g.schema)
    rels = _assert_matches_reference(g, groups)
    flags = [(str(s.path), s.symmetric) for s in rels.user_user + rels.item_item]
    assert flags == [
        ("Author -writes-> Paper <-writes- Author", True),
        ("Author -writes-> Paper -cites-> Paper <-writes- Author", False),
        ("Conf <-published_in- Paper -published_in-> Conf", True),
        ("Conf <-published_in- Paper -cites-> Paper -published_in-> Conf", False),
    ]


def test_non_palindromic_user_path_is_averaged_and_left_unmarked():
    g = h.load_graph(*(str(SAMPLE / f) for f in ("nodes.tsv", "edges.tsv", "schema.txt")))
    path = h.parse_path("Author -writes-> Paper -cites-> Paper <-writes- Author", g.schema)
    assert not path.is_palindromic
    raw = pathsim(path_count(g, path)).matrix
    assert (raw != raw.T).nnz > 0
    inputs = set_up(g, PathGroups([path], [], []), h.parse_path(TARGET, g.schema))
    assert not inputs.rels.user_user[0].symmetric
    averaged = sp.csr_array((raw + raw.T) * 0.5)
    assert _arrays(similarity(g, "UU", path)[1].matrix) == _arrays(averaged)
    assert _arrays(inputs.rels.laps.user[0]) == _arrays(laplacian(averaged))
    # unmarked, the raw counts' similarity fails laplacian's own check
    with pytest.raises(ValueError, match="asymmetric"):
        laplacian(SimilarityMatrix(path, raw))


def test_symmetric_is_set_only_for_exact_transposes(biblio_schema):
    # one round-off unit of asymmetry is averaged away, not marked
    path = h.parse_path("Author -writes-> Paper <-writes- Author", biblio_schema)
    S = sp.csr_array(np.array([[0.0, 0.3], [0.3 + 2**-54, 0.0]]))
    assert (S != S.T).nnz == 2
    sim = _symmetric(SimilarityMatrix(path, S))
    assert not sim.symmetric
    assert np.array_equal(sim.matrix.toarray(), sim.matrix.toarray().T)
    exact = _symmetric(SimilarityMatrix(path, sim.matrix))
    assert exact.symmetric and exact.matrix is sim.matrix


def test_palindromic_count_leaves_unsorted_graph_matrices_untouched(biblio_schema):
    # writes has unsorted indices: a sort on a shared buffer would reorder them
    writes = sp.csr_array(
        (np.array([1.0, 2.0, 1.0]), np.array([1, 0, 1]), np.array([0, 2, 3])),
        shape=(2, 2),
    )
    assert not writes.has_sorted_indices
    g = h.HeteroGraph(
        biblio_schema,
        {"Author": ["a1", "a2"], "Paper": ["p1", "p2"], "Conf": ["c1"]},
        {"writes": writes, "published_in": sp.csr_array((2, 1))},
    )
    before = [a.copy() for a in (writes.indptr, writes.indices, writes.data)]
    pc = path_count(g, h.parse_path("Author -writes-> Paper <-writes- Author", biblio_schema))
    assert g.matrices["writes"] is writes
    for got, want in zip((writes.indptr, writes.indices, writes.data), before):
        assert np.array_equal(got, want)
    assert pc.matrix.has_sorted_indices
    assert pc.matrix.toarray().tolist() == [[5.0, 1.0], [1.0, 1.0]]
    sim = pathsim(pc)
    assert not np.shares_memory(sim.matrix.indices, pc.matrix.indices)
    assert not np.shares_memory(sim.matrix.indptr, pc.matrix.indptr)


def test_inert_path_is_logged_once(caplog):
    g = h.load_graph(*(str(SAMPLE / f) for f in ("nodes.tsv", "edges.tsv", "schema.txt")))
    groups = load_path_spec(str(SAMPLE / "paths.txt"), g.schema)
    with caplog.at_level("WARNING", logger="hetecf.metapath"):
        set_up(g, groups, h.parse_path(TARGET, g.schema))
    assert [r.getMessage() for r in caplog.records] == [
        "II path Conf <-published_in- Paper -published_in-> Conf is inert: its "
        "similarity has no entries off the diagonal, so its Laplacian is zero"
    ]


def test_palindromic_counts_are_exactly_symmetric_with_float_weights():
    rng = np.random.default_rng(11)
    schema = cite_schema()
    nodes = ([(f"a{i}", "Author") for i in range(12)] + [(f"p{i}", "Paper") for i in range(15)]
             + [(f"c{i}", "Conf") for i in range(6)])
    edges = [(f"a{i}", f"p{j}", "writes", float(rng.random()))
             for i in range(12) for j in range(15) if rng.random() < 0.4]
    edges += [(f"p{i}", f"c{j}", "published_in", float(rng.random()))
              for i in range(15) for j in range(6) if rng.random() < 0.5]
    g = h.build_graph(schema, nodes, edges)
    for text in ("Author -writes-> Paper <-writes- Author",
                 "Author -writes-> Paper -published_in-> Conf <-published_in- Paper"
                 " <-writes- Author"):
        pc = path_count(g, h.parse_path(text, schema))
        T = pc.matrix.T.tocsr()
        for a, b in ((pc.matrix.indptr, T.indptr), (pc.matrix.indices, T.indices),
                     (pc.matrix.data, T.data)):
            assert np.array_equal(a, b), text
        assert np.allclose(pc.matrix.toarray(), dfs_path_count(g, pc.path), rtol=1e-12)


def _float_weight_graph(rng, schema):
    nodes = ([(f"a{i}", "Author") for i in range(12)] + [(f"p{i}", "Paper") for i in range(15)]
             + [(f"c{i}", "Conf") for i in range(6)])
    edges = [(f"a{i}", f"p{j}", "writes", float(rng.random()))
             for i in range(12) for j in range(15) if rng.random() < 0.4]
    edges += [(f"p{i}", f"c{j}", "published_in", float(rng.random()))
              for i in range(15) for j in range(6) if rng.random() < 0.5]
    edges += [(f"p{i}", f"p{j}", "cites", float(rng.random()))
              for i in range(15) for j in range(15) if rng.random() < 0.2]
    return h.build_graph(schema, nodes, edges)


def test_palindromic_similarity_is_exactly_symmetric_with_float_weights():
    rng = np.random.default_rng(12)
    schema = cite_schema()
    texts = ("Author -writes-> Paper <-writes- Author",
             "Conf <-published_in- Paper -cites-> Paper <-cites- Paper -published_in-> Conf",
             "Author -writes-> Paper -published_in-> Conf <-published_in- Paper"
             " <-writes- Author")
    sums_differ = 0
    for _ in range(10):
        g = _float_weight_graph(rng, schema)
        for text in texts:
            pc = path_count(g, h.parse_path(text, schema))
            assert pc.symmetric
            rows, cols = pc.matrix.sum(axis=1), pc.matrix.sum(axis=0)
            sums_differ += not np.array_equal(rows, cols)
            sim = pathsim(pc)
            assert sim.symmetric
            T = sim.matrix.T.tocsr()
            assert _arrays(sim.matrix) == _arrays(T), text
            assert np.allclose(sim.matrix.toarray(),
                               naive_pathsim(pc.matrix.toarray()), atol=1e-12)
            # marked, it is kept as it is: no transposition, no average
            assert _symmetric(sim) is sim
    # summed by columns, the float counts of some paths differ from their
    # row sums in the last place: then the column sums would break symmetry
    assert sums_differ > 0


def test_non_palindromic_counts_are_not_marked():
    rng = np.random.default_rng(13)
    schema = cite_schema()
    g = _float_weight_graph(rng, schema)
    path = h.parse_path("Author -writes-> Paper -cites-> Paper <-writes- Author", schema)
    pc = path_count(g, path)
    assert not pc.symmetric and not pathsim(pc).symmetric
    inputs = set_up(g, PathGroups([path], [], []), h.parse_path(TARGET, schema))
    assert not inputs.rels.user_user[0].symmetric
    raw = pathsim(pc).matrix
    averaged = sp.csr_array((raw + raw.T) * 0.5)
    assert _arrays(similarity(g, "UU", path)[1].matrix) == _arrays(averaged)


def _bench_networks():
    """The seeded networks of the benchmark, built by ``bench/networks.py``."""
    import importlib.util

    where = pathlib.Path(__file__).resolve().parent.parent / "bench" / "networks.py"
    spec = importlib.util.spec_from_file_location("bench_networks", where)
    networks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(networks)
    return networks


@pytest.mark.parametrize("network", ["sample_data", "dense-0", "sparse-0", "sparse-1"])
def test_laplacians_equal_the_checked_route_byte_for_byte(network, tmp_path):
    # the checked route: counts left unmarked, so the column sums are summed
    # by columns and the similarity is checked against its transpose
    if network == "sample_data":
        files = {f: str(SAMPLE / f"{f}.{ext}") for f, ext in
                 (("nodes", "tsv"), ("edges", "tsv"), ("schema", "txt"), ("paths", "txt"))}
    else:
        kind, seed = network.split("-")
        networks = _bench_networks()
        net = (networks.dense_network(int(seed)) if kind == "dense"
               else networks.sparse_network(int(seed)))
        files = net.write(str(tmp_path))
    g = h.load_graph(files["nodes"], files["edges"], files["schema"])
    groups = load_path_spec(files["paths"], g.schema)
    inputs = set_up(g, groups, h.parse_path(TARGET, g.schema))
    palindromic = 0
    for group, sims, laps, paths in (
            ("UU", inputs.rels.user_user, inputs.rels.laps.user, groups.user_user),
            ("II", inputs.rels.item_item, inputs.rels.laps.item, groups.item_item)):
        for sim, lap, path in zip(sims, laps, paths):
            pc = path_count(g, path)
            palindromic += pc.symmetric
            checked = _symmetric(pathsim(h.PathCountMatrix(path, pc.matrix)))
            assert checked.symmetric == sim.symmetric
            assert _arrays(similarity(g, group, path)[1].matrix) == _arrays(checked.matrix)
            assert _arrays(lap) == _arrays(laplacian(checked))
    assert palindromic >= 2
