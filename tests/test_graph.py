"""Graph ingestion, validation, adjacency, rating derivation, round trips."""

import pathlib
import re

import numpy as np
import pytest
import scipy.sparse as sp

import hetecf as h
from hetecf import GraphFormatError, RatingMatrix, RatingMatrixError, SchemaError

from conftest import random_ratings
from oracles import dfs_path_count, naive_pathsim

SCHEMA_TEXT = """\
# bibliographic network
nodetype Author user
nodetype Paper
nodetype Conf item
relation writes Author Paper
relation published_in Paper Conf
"""


def write_dataset(tmp_path, nodes, edges, schema=SCHEMA_TEXT):
    sp = tmp_path / "schema.txt"
    np_ = tmp_path / "nodes.tsv"
    ep = tmp_path / "edges.tsv"
    sp.write_text(schema)
    np_.write_text(nodes)
    ep.write_text(edges)
    return str(np_), str(ep), str(sp)


def test_load_toy_graph(tmp_path):
    nodes = "a1\tAuthor\na2\tAuthor\np1\tPaper\nc1\tConf\n"
    edges = "a1\tp1\twrites\na2\tp1\twrites\np1\tc1\tpublished_in\n"
    g = h.load_graph(*write_dataset(tmp_path, nodes, edges))
    assert g.node_count("Author") == 2
    assert g.node_count("Paper") == 1
    assert g.node_count("Conf") == 1
    assert g.matrices["writes"].nnz == 2
    assert g.matrices["published_in"].nnz == 1


def test_comments_and_blank_lines_ignored(tmp_path):
    nodes = "# people\n\na1\tAuthor\n  \np1\tPaper\nc1\tConf\n"
    edges = "# edges\na1\tp1\twrites\n"
    g = h.load_graph(*write_dataset(tmp_path, nodes, edges))
    assert g.node_count("Author") == 1


@pytest.mark.parametrize("line,kept", [
    ("", False),
    ("   ", False),
    ("\u3000", False),
    ("#x", False),
    ("  # x", False),
    ("\u3000#x", False),
    ("x#y", True),
])
def test_every_text_reader_skips_the_same_lines(tmp_path, line, kept):
    """The schema, path-spec and nodes readers, the nodes file normalised
    (none of these lines is plain), each get a good line, the line under
    test and a bad one.  The first error names line 2 where the line is
    kept (none of the formats accepts it) and line 3 where it is
    skipped."""
    want = 2 if kept else 3
    nodes, edges, schema = write_dataset(tmp_path, "", "")
    spec, bad_schema = tmp_path / "paths.txt", tmp_path / "bad_schema.txt"
    for path, good in [(nodes, "a1\tAuthor"), (spec, "UU: Author -writes-> Paper <-writes- Author"),
                       (bad_schema, "nodetype Author user")]:
        pathlib.Path(path).write_bytes(f"{good}\n{line}\nbad\n".encode())
    readers = [
        lambda: h.load_schema(str(bad_schema)),
        lambda: h.load_path_spec(str(spec), h.load_schema(schema)),
        lambda: h.load_graph(nodes, edges, schema),
    ]
    for read in readers:
        with pytest.raises(GraphFormatError) as err:
            read()
        assert err.value.line == want, str(err.value)


def test_unknown_node_id_names_id_and_line(tmp_path):
    nodes = "a1\tAuthor\np1\tPaper\nc1\tConf\n"
    edges = "a1\tp1\twrites\na9\tp1\twrites\n"
    paths = write_dataset(tmp_path, nodes, edges)
    with pytest.raises(GraphFormatError) as err:
        h.load_graph(*paths)
    assert "a9" in str(err.value)
    assert ":2:" in str(err.value)


def test_duplicate_node_id_rejected(tmp_path):
    nodes = "a1\tAuthor\na1\tAuthor\nc1\tConf\n"
    paths = write_dataset(tmp_path, nodes, "")
    with pytest.raises(GraphFormatError, match="duplicate"):
        h.load_graph(*paths)


def test_duplicate_id_across_types_rejected(tmp_path):
    nodes = "x\tAuthor\nx\tPaper\nc1\tConf\n"
    paths = write_dataset(tmp_path, nodes, "")
    with pytest.raises(GraphFormatError, match="duplicate"):
        h.load_graph(*paths)


def test_edge_endpoint_type_mismatch(tmp_path):
    nodes = "a1\tAuthor\np1\tPaper\nc1\tConf\n"
    edges = "p1\ta1\twrites\n"  # reversed endpoints
    paths = write_dataset(tmp_path, nodes, edges)
    with pytest.raises(GraphFormatError) as err:
        h.load_graph(*paths)
    assert "writes" in str(err.value)
    assert ":1:" in str(err.value)


def test_negative_weight_rejected(tmp_path):
    nodes = "a1\tAuthor\np1\tPaper\nc1\tConf\n"
    edges = "a1\tp1\twrites\t-2.0\n"
    paths = write_dataset(tmp_path, nodes, edges)
    with pytest.raises(GraphFormatError, match="weight"):
        h.load_graph(*paths)


def test_unparseable_weight_rejected(tmp_path):
    nodes = "a1\tAuthor\np1\tPaper\nc1\tConf\n"
    edges = "a1\tp1\twrites\theavy\n"
    paths = write_dataset(tmp_path, nodes, edges)
    with pytest.raises(GraphFormatError, match="weight"):
        h.load_graph(*paths)


GOOD_NODES = "a1\tAuthor\na2\tAuthor\np1\tPaper\nc1\tConf\n"
GOOD_EDGES = "# edges\na1\tp1\twrites\n\na2\tp1\twrites\t2.5\n"  # bad line goes on line 5


@pytest.mark.parametrize(
    "bad_node, message",
    [
        ("a9\tAuthor\tx", "expected '<node_id>\\t<node_type>', got 3 fields"),
        ("a9", "expected '<node_id>\\t<node_type>', got 1 fields"),
        ("a1\tAuthor", "duplicate node id 'a1'"),
        ("p1\tAuthor", "duplicate node id 'p1'"),
        ("a9\tPerson", "node 'a9' has undeclared type 'Person'"),
        (" \tAuthor", "empty node id"),
        ("a9\t ", "empty node type"),
    ],
)
def test_node_error_message_and_line(tmp_path, bad_node, message):
    nodes = "a1\tAuthor\n# comment\n\np1\tPaper\n" + bad_node + "\nc1\tConf\n"
    paths = write_dataset(tmp_path, nodes, "")
    with pytest.raises(GraphFormatError) as err:
        h.load_graph(*paths)
    assert str(err.value) == f"{paths[0]}:5: {message}"
    assert (err.value.source_path, err.value.line) == (paths[0], 5)


@pytest.mark.parametrize(
    "bad_edge, message",
    [
        ("a1\tp1", "expected '<src>\\t<dst>\\t<relation>[\\t<weight>]', got 2 fields"),
        ("a1\tp1\twrites\t1\t2",
         "expected '<src>\\t<dst>\\t<relation>[\\t<weight>]', got 5 fields"),
        ("a1\tp1\twrites\theavy", "unparseable weight 'heavy'"),
        ("a1\tp1\twrites\t", "unparseable weight ''"),
        ("a1\tp1\treads", "unknown relation 'reads'"),
        ("a9\tp1\twrites", "edge references unknown node id 'a9'"),
        ("a1\tp9\twrites", "edge references unknown node id 'p9'"),
        ("p1\tp1\twrites",
         "edge 'p1' -> 'p1' via 'writes': source node 'p1' has type 'Paper', "
         "expected 'Author'"),
        ("a1\tc1\twrites",
         "edge 'a1' -> 'c1' via 'writes': target node 'c1' has type 'Conf', "
         "expected 'Paper'"),
        ("a1\tp1\twrites\t-2.0", "edge 'a1' -> 'p1' has invalid weight -2.0"),
        ("a1\tp1\twrites\tnan", "edge 'a1' -> 'p1' has invalid weight nan"),
        ("a1\tp1\twrites\tinf", "edge 'a1' -> 'p1' has invalid weight inf"),
        ("\tp1\twrites", "empty source id"),
        ("a1\t \twrites", "empty target id"),
        ("a1\tp1\t ", "empty relation"),
        # one record failing several checks reports the first in check order
        ("a9\tc9\treads\tx", "unparseable weight 'x'"),
        ("a9\tc9\treads", "unknown relation 'reads'"),
        ("a9\tc9\twrites\t-1", "edge references unknown node id 'a9'"),
        ("p1\tc9\twrites",
         "edge 'p1' -> 'c9' via 'writes': source node 'p1' has type 'Paper', "
         "expected 'Author'"),
        ("a1\tc1\twrites\t-1",
         "edge 'a1' -> 'c1' via 'writes': target node 'c1' has type 'Conf', "
         "expected 'Paper'"),
    ],
)
def test_edge_error_message_and_line(tmp_path, bad_edge, message):
    edges = GOOD_EDGES + bad_edge + "\na1\tp1\twrites\n"
    paths = write_dataset(tmp_path, GOOD_NODES, edges)
    with pytest.raises(GraphFormatError) as err:
        h.load_graph(*paths)
    assert str(err.value) == f"{paths[1]}:5: {message}"
    assert (err.value.source_path, err.value.line) == (paths[1], 5)


@pytest.mark.parametrize(
    "edges, message",
    [
        # the later line fails an earlier check, yet the earlier line is reported
        ("a1\tp1\twrites\na1\tp1\twrites\t-1\na1\tp1\n",
         ":2: edge 'a1' -> 'p1' has invalid weight -1.0"),
        ("a1\tp1\twrites\t2\na1\tp1\treads\na1\tp1\twrites\tx\n",
         ":2: unknown relation 'reads'"),
        ("a1\tp1\twrites\t2\na1\tp1\twrites\tx\na1\tp1\twrites\ty\n",
         ":2: unparseable weight 'x'"),
    ],
)
def test_first_bad_edge_line_wins(tmp_path, edges, message):
    paths = write_dataset(tmp_path, GOOD_NODES, edges)
    with pytest.raises(GraphFormatError) as err:
        h.load_graph(*paths)
    assert str(err.value) == paths[1] + message


@pytest.mark.parametrize("first, second", [(0, 1), (1, 5), (-3, -1)])
def test_first_bad_edge_line_wins_across_blocks(tmp_path, first, second):
    from hetecf.graph import BLOCK_RECORDS

    lines = ["a1\tp1\twrites"] * (BLOCK_RECORDS + 10)
    lines[BLOCK_RECORDS - 1 + first] = "a1\tp1\twrites\theavy"
    lines[BLOCK_RECORDS - 1 + second] = "a1\tp1"
    paths = write_dataset(tmp_path, GOOD_NODES, "")
    # each block plain as it is, plain once its lone CR line ends are
    # translated, and normalised, as each line has a space to strip
    for end in ("\n", "\r", " \r\n"):
        with open(paths[1], "w", encoding="utf-8", newline="") as fh:
            fh.write(end.join(lines) + end)
        with pytest.raises(GraphFormatError) as err:
            h.load_graph(*paths)
        assert err.value.line == BLOCK_RECORDS + first
        assert "unparseable weight 'heavy'" in str(err.value)


def test_duplicate_node_found_across_blocks(tmp_path):
    from hetecf.graph import BLOCK_RECORDS

    lines = [f"a{i}\tAuthor" for i in range(BLOCK_RECORDS + 10)]
    lines[BLOCK_RECORDS + 3] = "a7\tAuthor"
    lines[BLOCK_RECORDS + 5] = "a8\tAuthor"
    paths = write_dataset(tmp_path, "\n".join(lines) + "\np1\tPaper\n", "")
    with pytest.raises(GraphFormatError) as err:
        h.load_graph(*paths)
    assert str(err.value) == f"{paths[0]}:{BLOCK_RECORDS + 4}: duplicate node id 'a7'"


def test_crlf_padding_comments_and_mixed_field_counts(tmp_path):
    nodes = "# people\r\n a1 \tAuthor\r\n\r\n a2\t Author \r\n p1\t Paper \r\nc1\tConf"
    edges = (
        "  # indented comment\r\n"
        "a1\tp1\twrites\r\n"
        " \t \r\n"
        "a2 \t p1\twrites \t 2.5 \r\n"
        "\r\n"
        "a1\tp1\twrites\t0.25\r\n"
        "p1\tc1\tpublished_in"
    )
    np_, ep, sp_ = write_dataset(tmp_path, "", "")
    with open(np_, "w", encoding="utf-8", newline="") as fh:
        fh.write(nodes)
    with open(ep, "w", encoding="utf-8", newline="") as fh:
        fh.write(edges)
    g = h.load_graph(np_, ep, sp_)
    want = h.build_graph(
        h.load_schema(sp_),
        [("a1", "Author"), ("a2", "Author"), ("p1", "Paper"), ("c1", "Conf")],
        [("a1", "p1", "writes"), ("a2", "p1", "writes", 2.5),
         ("a1", "p1", "writes", 0.25), ("p1", "c1", "published_in")],
    )
    assert g.node_ids == want.node_ids
    assert h.content_hash(g) == h.content_hash(want)
    assert g.matrices["writes"].toarray().tolist() == [[1.25], [2.5]]
    with open(ep, "a", encoding="utf-8", newline="") as fh:
        fh.write("\r\na1\tc1\twrites\r\n")
    with pytest.raises(GraphFormatError, match=r"edges.tsv:8: edge 'a1' -> 'c1'"):
        h.load_graph(np_, ep, sp_)


def test_source_digest_covers_the_bytes_parsed(tmp_path):
    import hashlib

    # only \n, \r and \r\n end a line; \x0c and \u2028 stay inside an id
    nodes = "a1\tAuthor\na\x0cb\u2028c\tAuthor\np1\tPaper\nc1\tConf\n"
    edges = "a1\tp1\twrites\na\x0cb\u2028c\tp1\twrites\t2\np1\tc1\tpublished_in\n"
    np_, ep, sp_ = write_dataset(tmp_path, "", "")
    for path, text in ((np_, nodes), (ep, edges)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    g = h.load_graph(np_, ep, sp_)
    assert g.node_ids["Author"] == ["a1", "a\x0cb\u2028c"]
    want = hashlib.sha256(b"".join(
        hashlib.sha256(pathlib.Path(p).read_bytes()).digest() for p in (sp_, np_, ep)
    )).hexdigest()
    assert g.source_digest == h.source_digest(np_, ep, sp_) == want
    built = h.build_graph(
        h.load_schema(sp_),
        [("a1", "Author"), ("a\x0cb\u2028c", "Author"), ("p1", "Paper"), ("c1", "Conf")],
        [("a1", "p1", "writes"), ("a\x0cb\u2028c", "p1", "writes", 2.0),
         ("p1", "c1", "published_in")],
    )
    assert built.source_digest is None
    assert h.content_hash(built) == h.content_hash(g)
    # other bytes, same graph: the digest changes, the content hash does not
    with open(ep, "w", encoding="utf-8", newline="") as fh:
        fh.write(edges.replace("\n", "\r\n"))
    crlf = h.load_graph(np_, ep, sp_)
    assert crlf.source_digest == h.source_digest(np_, ep, sp_) != g.source_digest
    assert h.content_hash(crlf) == h.content_hash(g)


def test_load_and_build_agree_over_several_blocks(tmp_path):
    from hetecf.graph import BLOCK_RECORDS

    rng = np.random.default_rng(3)
    counts = {"Author": BLOCK_RECORDS // 2, "Paper": BLOCK_RECORDS, "Conf": 40}
    nodes = [(f"{t[0].lower()}{i}", t) for t, n in counts.items() for i in range(n)]
    order = rng.permutation(len(nodes))
    nodes = [nodes[k] for k in order]  # types interleave within each block
    edges = []
    for _ in range(2 * BLOCK_RECORDS + 100):
        a, p = rng.integers(0, counts["Author"]), rng.integers(0, counts["Paper"])
        edge = (f"a{a}", f"p{p}", "writes")
        edges.append(edge + (float(rng.random()),) if rng.random() < 0.5 else edge)
    edges += [(f"p{i}", f"c{i % 40}", "published_in") for i in range(counts["Paper"])]
    paths = write_dataset(tmp_path, _tsv(nodes), _tsv(edges))
    loaded = h.load_graph(*paths)
    built = h.build_graph(h.load_schema(paths[2]), nodes, edges)
    assert loaded.node_ids == built.node_ids
    assert loaded._index == built._index
    assert h.content_hash(loaded) == h.content_hash(built)
    for name, m in built.matrices.items():
        other = loaded.matrices[name]
        for a, b in ((m.indptr, other.indptr), (m.indices, other.indices), (m.data, other.data)):
            assert np.array_equal(a, b)


def _tsv(records):
    """Records as tab-separated lines; floats written with repr."""
    return "".join(
        "\t".join(repr(v) if isinstance(v, float) else v for v in r) + "\n"
        for r in records
    )


@pytest.mark.parametrize(
    "nodes, edges, message",
    [
        ([("", "Author")], [], "empty node id"),
        ([("a1", "")], [], "empty node type"),
        ([("a1", "Author"), ("a1", "Author")], [], "duplicate node id 'a1'"),
        ([("a1", "Author", "x")], [], "expected '<node_id>\\t<node_type>', got 3 fields"),
        ([("a1", "Author"), ("p1", "Paper")], [("", "p1", "writes")], "empty source id"),
        ([("a1", "Author"), ("p1", "Paper")], [("a1", "p1", "")], "empty relation"),
        ([("a1", "Author"), ("p1", "Paper")], [("a1", "p1", "writes", "x")],
         "unparseable weight 'x'"),
        ([("a1", "Author"), ("p1", "Paper")], [("a1", "p1", "writes", -1.0)],
         "edge 'a1' -> 'p1' has invalid weight -1.0"),
    ],
)
def test_build_graph_checks_like_load_graph(biblio_schema, nodes, edges, message):
    with pytest.raises(GraphFormatError) as err:
        h.build_graph(biblio_schema, nodes, edges)
    assert str(err.value) == message
    assert err.value.line is None


def test_empty_field_matches_no_empty_declared_name():
    schema = h.Schema(("A", "B", ""), "A", "B",
                      (h.Relation("", "A", "B"), h.Relation("r", "A", "")))
    with pytest.raises(GraphFormatError, match="^empty relation$"):
        h.build_graph(schema, [("a", "A"), ("b", "B")], [("a", "b", "")])
    with pytest.raises(GraphFormatError, match="^empty node type$"):
        h.build_graph(schema, [("a", "A"), ("x", "")], [])


def test_parallel_edges_are_summed(tmp_path):
    nodes = "a1\tAuthor\np1\tPaper\nc1\tConf\n"
    edges = "a1\tp1\twrites\t1.5\na1\tp1\twrites\n"
    g = h.load_graph(*write_dataset(tmp_path, nodes, edges))
    assert g.matrices["writes"].nnz == 1
    assert g.matrices["writes"][0, 0] == pytest.approx(2.5)


def test_default_weight_is_one(tmp_path):
    nodes = "a1\tAuthor\np1\tPaper\nc1\tConf\n"
    edges = "a1\tp1\twrites\n"
    g = h.load_graph(*write_dataset(tmp_path, nodes, edges))
    assert g.matrices["writes"][0, 0] == 1.0


def test_same_type_relation_allows_self_loop():
    schema = h.Schema(
        ("User", "Group"), "User", "Group",
        (h.Relation("friend", "User", "User"),
         h.Relation("member", "User", "Group")),
    )
    g = h.build_graph(
        schema,
        [("u1", "User"), ("u2", "User"), ("g1", "Group")],
        [("u1", "u2", "friend"), ("u1", "u1", "friend"), ("u1", "g1", "member")],
    )
    assert g.matrices["friend"][0, 0] == 1.0


def test_cross_type_self_loop_impossible(tmp_path):
    # a self-loop on a cross-type relation is a type mismatch by construction
    nodes = "a1\tAuthor\np1\tPaper\nc1\tConf\n"
    edges = "a1\ta1\twrites\n"
    paths = write_dataset(tmp_path, nodes, edges)
    with pytest.raises(GraphFormatError, match="type"):
        h.load_graph(*paths)


def test_schema_needs_user_and_item_flags(tmp_path):
    schema = "nodetype Author\nnodetype Conf\nrelation r Author Conf\n"
    paths = write_dataset(tmp_path, "", "", schema=schema)
    with pytest.raises(GraphFormatError, match="flag"):
        h.load_graph(*paths)


def test_schema_rejects_undeclared_relation_types():
    with pytest.raises(SchemaError, match="undeclared"):
        h.Schema(("A", "B"), "A", "B", (h.Relation("r", "A", "Z"),))


def test_schema_requires_two_types():
    with pytest.raises(SchemaError):
        h.Schema(("A",), "A", "A", ())


def test_schema_user_item_distinct():
    with pytest.raises(SchemaError, match="distinct"):
        h.Schema(("A", "B"), "A", "A", ())


def test_dblp_style_schema_accepted():
    from hetecf.synth import default_schema

    schema = default_schema()
    assert schema.user_type == "Author"
    assert schema.item_type == "Conf"
    assert len(schema.relations) == 4


def test_adjacency_empty_relation(toy_graph, biblio_schema):
    g = h.build_graph(biblio_schema, [("a1", "Author"), ("c1", "Conf")], [])
    m = h.adjacency(g, "writes")
    assert m.shape == (1, 0)
    assert m.nnz == 0


def test_adjacency_single_edge_and_transpose(toy_graph):
    m = h.adjacency(toy_graph, "published_in")
    assert m.shape == (3, 2)
    assert m[0, 0] == 1.0
    mt = h.adjacency(toy_graph, "published_in", transposed=True)
    assert np.array_equal(mt.toarray(), m.toarray().T)


def test_adjacency_unknown_relation(toy_graph):
    with pytest.raises(SchemaError, match="unknown relation"):
        h.adjacency(toy_graph, "nope")


def test_adjacency_shapes_match_counts():
    rng = np.random.default_rng(0)
    from hetecf.synth import SynthSpec, generate

    for seed in range(5):
        spec = SynthSpec(
            counts={"Author": int(rng.integers(1, 12)),
                    "Paper": int(rng.integers(1, 12)),
                    "Conf": int(rng.integers(1, 6)),
                    "Term": int(rng.integers(1, 6))},
            seed=seed,
        )
        g = generate(spec)
        for rel in g.schema.relations:
            m = h.adjacency(g, rel.name)
            assert m.shape == (g.node_count(rel.source), g.node_count(rel.target))


def test_save_load_round_trip(tmp_path, toy_graph):
    nodes, edges, schema = (
        str(tmp_path / "n.tsv"), str(tmp_path / "e.tsv"), str(tmp_path / "s.txt")
    )
    h.save_graph(toy_graph, nodes, edges, schema)
    g2 = h.load_graph(nodes, edges, schema)
    assert g2.schema == toy_graph.schema
    assert g2.node_ids == toy_graph.node_ids
    for rel in toy_graph.schema.relations:
        assert (g2.matrices[rel.name] != toy_graph.matrices[rel.name]).nnz == 0
    assert h.content_hash(g2) == h.content_hash(toy_graph)


@pytest.mark.parametrize("bad", ["#a", " a", "a ", "a\tb", "a\nb", "a\rb", "\u3000a", ""])
def test_save_graph_refuses_an_id_that_would_not_load_back(tmp_path, biblio_schema, bad):
    # '#a' would read as a comment, ' a' as 'a', 'a\tb' as three fields
    nodes = [("a1", "Author"), ("p1", "Paper"), ("c1", "Conf")]
    g = h.build_graph(biblio_schema, nodes, [("a1", "p1", "writes")])
    g.node_ids["Paper"][0] = bad
    paths = [str(tmp_path / n) for n in ("n.tsv", "e.tsv", "s.txt")]
    with pytest.raises(ValueError, match=f"node id {re.escape(repr(bad))} cannot be saved"):
        h.save_graph(g, *paths)
    assert list(tmp_path.iterdir()) == []  # refused before any file is written


def test_save_graph_keeps_ids_with_inner_spaces_and_hashes(tmp_path, biblio_schema):
    nodes = [("a #1", "Author"), ("p\x0c1", "Paper"), ("c\u20281", "Conf")]
    g = h.build_graph(biblio_schema, nodes, [("a #1", "p\x0c1", "writes")])
    paths = [str(tmp_path / n) for n in ("n.tsv", "e.tsv", "s.txt")]
    h.save_graph(g, *paths)
    assert h.content_hash(h.load_graph(*paths)) == h.content_hash(g)


def test_content_hash_ignores_edge_order(tmp_path, biblio_schema):
    nodes = [("a1", "Author"), ("p1", "Paper"), ("p2", "Paper"), ("c1", "Conf")]
    edges = [("a1", "p1", "writes"), ("a1", "p2", "writes")]
    g1 = h.build_graph(biblio_schema, nodes, edges)
    g2 = h.build_graph(biblio_schema, nodes, list(reversed(edges)))
    assert h.content_hash(g1) == h.content_hash(g2)


def test_content_hash_sees_one_ulp_weight_change(biblio_schema):
    nodes = [("a1", "Author"), ("p1", "Paper"), ("p2", "Paper"), ("c1", "Conf")]
    w = 0.3
    g1 = h.build_graph(biblio_schema, nodes, [("a1", "p1", "writes", w),
                                              ("a1", "p2", "writes")])
    g2 = h.build_graph(biblio_schema, nodes, [("a1", "p1", "writes", np.nextafter(w, 1.0)),
                                              ("a1", "p2", "writes")])
    assert h.content_hash(g1) != h.content_hash(g2)


def test_content_hash_canonicalizes_a_copy(biblio_schema):
    nodes = [("a1", "Author"), ("p1", "Paper"), ("p2", "Paper"), ("c1", "Conf")]
    g = h.build_graph(biblio_schema, nodes, [("a1", "p1", "writes"), ("a1", "p2", "writes")])
    want = h.content_hash(g)
    unsorted = sp.csr_array(([1.0, 1.0], [1, 0], [0, 2]), shape=(1, 2))
    g.matrices["writes"] = unsorted
    assert h.content_hash(g) == want
    assert unsorted.indices.tolist() == [1, 0]


def test_content_hash_sees_renamed_node(biblio_schema):
    edges = [("a1", "p1", "writes")]
    g1 = h.build_graph(biblio_schema, [("a1", "Author"), ("p1", "Paper"), ("c1", "Conf")], edges)
    g2 = h.build_graph(biblio_schema, [("a1", "Author"), ("p1", "Paper"), ("c2", "Conf")], edges)
    assert h.content_hash(g1) != h.content_hash(g2)
    # the same characters split differently between two ids
    split = [("a1", "Author"), ("p1", "Paper"), ("c", "Conf"), ("é1", "Conf")]
    moved = [("a1", "Author"), ("p1", "Paper"), ("cé", "Conf"), ("1", "Conf")]
    assert h.content_hash(h.build_graph(biblio_schema, split, edges)) != h.content_hash(
        h.build_graph(biblio_schema, moved, edges)
    )


# ---------------------------------------------------------------- ratings


def test_rating_matrix_drops_zeros_and_sorts():
    r = RatingMatrix(2, 2, [1, 0, 0], [0, 1, 0], [0.5, 0.25, 0.0])
    assert r.nnz == 2
    assert list(r.rows) == [0, 1]
    assert list(r.cols) == [1, 0]


def test_rating_matrix_rejects_duplicates():
    with pytest.raises(RatingMatrixError, match="duplicate"):
        RatingMatrix(2, 2, [0, 0], [1, 1], [0.5, 0.6])


def test_rating_matrix_rejects_out_of_range():
    with pytest.raises(RatingMatrixError, match="outside"):
        RatingMatrix(2, 2, [0], [1], [1.5])
    with pytest.raises(RatingMatrixError):
        RatingMatrix(2, 2, [0], [1], [-0.1])
    with pytest.raises(RatingMatrixError, match="finite"):
        RatingMatrix(2, 2, [0], [1], [np.nan])


def test_rating_matrix_rejects_bad_indices():
    with pytest.raises(RatingMatrixError):
        RatingMatrix(2, 2, [2], [0], [0.5])
    with pytest.raises(RatingMatrixError, match="empty"):
        RatingMatrix(0, 2, [], [], [])


def test_derive_ratings_single_conference(biblio_schema):
    g = h.build_graph(
        biblio_schema,
        [("a1", "Author"), ("p1", "Paper"), ("p2", "Paper"),
         ("c1", "Conf"), ("c2", "Conf")],
        [("a1", "p1", "writes"), ("a1", "p2", "writes"),
         ("p1", "c1", "published_in"), ("p2", "c1", "published_in")],
    )
    target = h.parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema)
    r = h.derive_ratings(g, target)
    assert r.nnz == 1
    assert r.to_csr()[0, 0] > 0
    assert r.to_csr()[0, 1] == 0.0


def test_derive_ratings_no_paths_gives_empty(biblio_schema):
    g = h.build_graph(
        biblio_schema,
        [("a1", "Author"), ("p1", "Paper"), ("c1", "Conf")],
        [("a1", "p1", "writes")],  # paper never published
    )
    target = h.parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema)
    r = h.derive_ratings(g, target)
    assert r.nnz == 0
    assert r.density == 0.0


def test_derive_ratings_matches_dfs_oracle(biblio_schema):
    rng = np.random.default_rng(11)
    nodes = (
        [(f"a{i}", "Author") for i in range(10)]
        + [(f"p{i}", "Paper") for i in range(12)]
        + [(f"c{i}", "Conf") for i in range(3)]
    )
    edges = []
    for i in range(10):
        for j in range(12):
            if rng.random() < 0.3:
                edges.append((f"a{i}", f"p{j}", "writes"))
    for j in range(12):
        edges.append((f"p{j}", f"c{int(rng.integers(0, 3))}", "published_in"))
    g = h.build_graph(biblio_schema, nodes, edges)
    target = h.parse_path("Author -writes-> Paper -published_in-> Conf", biblio_schema)
    r = h.derive_ratings(g, target)
    expected = naive_pathsim(dfs_path_count(g, target))
    assert np.allclose(r.to_csr().toarray(), expected, atol=1e-12)


def test_derive_ratings_invariant_under_edge_order(tmp_path, biblio_schema):
    nodes = "a1\tAuthor\na2\tAuthor\np1\tPaper\np2\tPaper\nc1\tConf\n"
    edge_lines = [
        "a1\tp1\twrites", "a2\tp1\twrites", "a2\tp2\twrites",
        "p1\tc1\tpublished_in", "p2\tc1\tpublished_in",
    ]
    target_text = "Author -writes-> Paper -published_in-> Conf"
    mats = []
    for order in (edge_lines, list(reversed(edge_lines))):
        paths = write_dataset(tmp_path, nodes, "\n".join(order) + "\n")
        g = h.load_graph(*paths)
        target = h.parse_path(target_text, g.schema)
        mats.append(h.derive_ratings(g, target).to_csr().toarray())
    assert np.array_equal(mats[0], mats[1])


def test_derive_ratings_requires_user_item_path(toy_graph, biblio_schema):
    apa = h.parse_path("Author -writes-> Paper <-writes- Author", biblio_schema)
    with pytest.raises(SchemaError, match="target path"):
        h.derive_ratings(toy_graph, apa)


def test_random_ratings_density():
    rng = np.random.default_rng(5)
    r = random_ratings(rng, 10, 8, density=0.25)
    assert r.n == 10 and r.m == 8
    assert 0 < r.density <= 1


# ------------------------------------ plain and normalised blocks, colliding keys

PARITY_NODES = [
    "# people\n", "a1\tAuthor\n", "a2\tAuthor\n", "a3\tAuthor\n", "a4\tAuthor\n",
    "\t\n", " a5 \tAuthor\r\n", "p1\tPaper\n", "p2\tPaper\n", "p3\tPaper\n", "\n",
    "pé\tPaper\n", "p5\tPaper\n", "c1\tConf\n", "c2\tConf\n", "c3\tConf\n",
]
PARITY_EDGES = [
    "a1\tp1\twrites\n", "a2\tp1\twrites\t2.5\n", "a3\tp2\twrites\n", "a4\tp3\twrites\t0.5\n",
    "  # indented comment\n", "a5\tpé\twrites\n", "a1\tp2\twrites\n", "a2\tp3\twrites\n",
    "a3\tp5\twrites\n", "#no-space-comment\n", "p1 \tc1\tpublished_in\r\n",
    "p2\tc1\tpublished_in\n", "p3\tc2\tpublished_in\n", "pé\tc3\tpublished_in\n",
    "p5\tc3\tpublished_in",
]


def _load_as_is_and_forced(monkeypatch, paths, block_lines):
    """load_graph's outcome in blocks of ``block_lines`` lines, then its
    outcome with every block normalised and every lookup key cut to the
    first ``block_lines`` bytes of its id, so that ids which share them
    collide; and (block, whether plain) for each block of the first load.
    An outcome is the graph's ids, arrays and digests, or the error text."""
    from hetecf import graph as G

    monkeypatch.setattr(G, "BLOCK_RECORDS", block_lines)
    is_plain, blocks = G._is_plain, []

    def spy(block, ragged):
        blocks.append((block, is_plain(block, ragged)))
        return blocks[-1][1]

    def load():
        try:
            g = h.load_graph(*paths)
        except GraphFormatError as exc:
            return str(exc)
        arrays = {name: [(a.dtype, a.tobytes()) for a in (m.indptr, m.indices, m.data)]
                  for name, m in g.matrices.items()}
        return g.node_ids, g._index, arrays, h.content_hash(g), g.source_digest

    monkeypatch.setattr(G, "_is_plain", spy)
    as_is = load()
    seen = list(blocks)
    monkeypatch.setattr(G, "_PLAIN_BYTES", b"")  # no block is plain
    monkeypatch.setattr(G, "_keys", lambda words, begin, length, head:
                        head & G._MASK[np.minimum(length, block_lines)])
    blocks.clear()
    forced = load()
    assert blocks and not any(plain for _, plain in blocks)
    return (as_is, forced), seen


def _write_lines(tmp_path, nodes, edges):
    paths = write_dataset(tmp_path, "", "")
    for path, lines in ((paths[0], nodes), (paths[1], edges)):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(lines))
    return paths


@pytest.mark.parametrize("block_lines", [1, 2, 3, 4, 7])
def test_fast_blocks_parse_like_line_by_line(tmp_path, monkeypatch, block_lines):
    paths = _write_lines(tmp_path, PARITY_NODES, PARITY_EDGES)
    (as_is, forced), seen = _load_as_is_and_forced(monkeypatch, paths, block_lines)
    assert any(plain for _, plain in seen) and not all(plain for _, plain in seen)
    assert as_is == forced
    want = h.build_graph(
        h.load_schema(paths[2]),
        [(f"a{i}", "Author") for i in range(1, 6)]
        + [(p, "Paper") for p in ("p1", "p2", "p3", "pé", "p5")]
        + [(f"c{i}", "Conf") for i in range(1, 4)],
        [("a1", "p1", "writes"), ("a2", "p1", "writes", 2.5), ("a3", "p2", "writes"),
         ("a4", "p3", "writes", 0.5), ("a5", "pé", "writes"), ("a1", "p2", "writes"),
         ("a2", "p3", "writes"), ("a3", "p5", "writes"), ("p1", "c1", "published_in"),
         ("p2", "c1", "published_in"), ("p3", "c2", "published_in"),
         ("pé", "c3", "published_in"), ("p5", "c3", "published_in")],
    )
    assert as_is[3] == h.content_hash(want)


@pytest.mark.parametrize("file,record,message", [
    ("edges", "a1\tzzz\twrites\n", "unknown node id 'zzz'"),
    ("edges", "a1\tp1\twrites\tx\n", "unparseable weight 'x'"),
    ("edges", "a1\t\twrites\n", "empty target id"),
    ("edges", "a1\tp1\n", "got 2 fields"),
    ("edges", "a1\tp1\twrites\t-1\n", "invalid weight -1.0"),
    ("edges", "a1\tc1\twrites\n", "target node 'c1' has type 'Conf'"),
    ("nodes", "a2\tPaper\n", "duplicate node id 'a2'"),
    ("nodes", "x1\tAuthor\textra\n", "got 3 fields"),
    ("nodes", "x1\tNope\n", "undeclared type 'Nope'"),
])
@pytest.mark.parametrize("block_lines", [1, 2])
def test_bad_record_in_a_fast_block_names_the_same_line(tmp_path, monkeypatch, file,
                                                        record, message, block_lines):
    nodes, edges = list(PARITY_NODES), list(PARITY_EDGES)
    lines = nodes if file == "nodes" else edges
    lines.insert(3, record)  # among clean lines: line 4 of its file
    paths = _write_lines(tmp_path, nodes, edges)
    (as_is, forced), seen = _load_as_is_and_forced(monkeypatch, paths, block_lines)
    # the one block that holds the bad record was plain
    assert [plain for block, plain in seen
            if ("\n" + record).encode() in b"\n" + block] == [True]
    assert as_is == forced
    assert as_is.startswith(f"{paths[0 if file == 'nodes' else 1]}:4: ")
    assert message in as_is


# ------------------------------------------ randomized ingest against a reference

REF_SCHEMA = SCHEMA_TEXT + "relation cites Paper Paper\n"
REF_TYPES = ("Author", "Paper", "Conf")
REF_RELATIONS = (("writes", "Author", "Paper"), ("published_in", "Paper", "Conf"),
                 ("cites", "Paper", "Paper"))


def _random_ids(rng, letter, count, plain):
    """Unique ids of one type: short ones that are prefixes of others, ones
    just either side of 8 and 16 bytes, long ones that share their first
    8 bytes with ids of every type, and unless ``plain``, non-ASCII ones
    and ones with whitespace inside."""
    kinds = [
        lambda i: f"{letter}{i}",
        lambda i: f"{letter}{i}{i % 10}",
        lambda i: f"{letter}bcdefg{i % 10}"[:8] + str(i)[:1] * (i % 3),
        lambda i: f"journals/{letter}/{i:07d}",
        lambda i: f"journals/{letter}/{i:07d}/" + "x" * (i % 9),
    ]
    if not plain:
        kinds += [
            lambda i: f"{letter}é{i}",
            lambda i: f"作者{letter}{i}",
            lambda i: f"{letter} \u2028\x0c{i}",
            lambda i: f"journals/{letter}/ü{i:05d}",
        ]
    ids = []
    while len(ids) < count:
        nid = kinds[int(rng.integers(len(kinds)))](int(rng.integers(1, 400)))
        if nid not in ids:
            ids.append(nid)
    return ids


def _random_weight(rng):
    return rng.choice([repr(float(rng.random() * 4)), "2", "0.25", "1e-3", str(rng.random())])


def _random_files(rng, plain, bad=None):
    """(nodes bytes, edges bytes) of a random network; unless ``plain``, with
    comments, blank lines, padded fields, CRLF and lone CR line ends.  With
    ``bad``, one bad record of that kind sits among the others: kinds 0-13
    fail one check each, kinds 14-21 two or three at once."""
    ids = {t: _random_ids(rng, t[0].lower(), int(rng.integers(2, 25)), plain)
           for t in REF_TYPES}
    nodes = [[nid, t] for t in REF_TYPES for nid in ids[t]]
    nodes = [nodes[k] for k in rng.permutation(len(nodes))]
    edges, per_row = [], {}
    for _ in range(int(rng.integers(0, 80))):
        name, source, target = REF_RELATIONS[int(rng.integers(len(REF_RELATIONS)))]
        src, dst = rng.choice(ids[source]), rng.choice(ids[target])
        if per_row.get((name, src), 0) >= 12:  # rows short enough for exact sums
            continue
        repeats = 1 + int(rng.random() < 0.2) * int(rng.integers(1, 3))  # parallel edges
        per_row[name, src] = per_row.get((name, src), 0) + repeats
        for _ in range(repeats):
            weight = [_random_weight(rng)] if rng.random() < 0.5 else []
            edges.append([src, dst, name] + weight)
    if bad is not None:
        a, p, c = (rng.choice(ids[t]) for t in REF_TYPES)
        record = [
            [c, "Author"], [a, "Author", "x"], ["zz9", "Person"],
            ["", "Paper"],
            [a[:-1] if a[:-1] not in ids["Author"] else "a", p, "writes"],
            ["journals/a/9999999", p, "writes"], [p, p, "writes"],
            [a, p, "writes", "heavy"], [a, p, "writes", "-1"], [a, p, "writes", "nan"],
            [a, p, "reads"], [a, p], [a, p, "writes", "1", "2"], [a, p, ""],
            # empty id, undeclared type; undeclared type, maybe a duplicate;
            # empty type, undeclared type, maybe a duplicate
            ["", "Person"], [c, "Person"], [a, ""],
            # unparseable weight, source type, unknown target; source type,
            # unknown target; empty target, unknown relation, invalid weight;
            # unknown relation, invalid weight; unknown source, target type,
            # invalid weight
            [c, "zz8", "writes", "heavy"], [c, "zz8", "writes"], [a, "", "reads", "nan"],
            [a, p, "reads", "-1"], ["zz7", c, "writes", "inf"],
        ][bad]
        lines = nodes if bad < 4 or 14 <= bad < 17 else edges
        lines.insert(int(rng.integers(len(lines) + 1)), record)
    return tuple(_decorate(rng, lines, plain) for lines in (nodes, edges))


def _decorate(rng, records, plain):
    out = []
    for fields in records:
        if not plain:
            fields = [rng.choice(["", " ", "  ", "\u3000"]) + f + rng.choice(["", " ", "\x0b"])
                      if rng.random() < 0.2 else f for f in fields]
            while rng.random() < 0.15:
                out.append(rng.choice(["# note", "  # indented", "#", "", "  ", "\t\t",
                                       " \t "]) + rng.choice(["\n", "\r\n", "\r"]))
        end = "\n" if plain else rng.choice(["\n", "\n", "\r\n", "\r"])
        out.append("\t".join(fields) + end)
    text = "".join(out)
    if rng.random() < 0.3:
        text = text.rstrip("\r\n")  # no line end after the last record
    return text.encode()


def _ingest_outcome(paths):
    """load_graph's ids, index, CSR arrays, content hash and source digest,
    or its error text and line."""
    try:
        g = h.load_graph(*paths)
    except GraphFormatError as exc:
        return str(exc), exc.line
    arrays = {name: tuple(np.asarray(a, dtype).tobytes() for a, dtype in
                          ((m.indptr, "<i8"), (m.indices, "<i8"), (m.data, "<f8")))
              for name, m in g.matrices.items()}
    return g.node_ids, g._index, arrays, h.content_hash(g), g.source_digest


@pytest.mark.parametrize("seed", range(48))
def test_ingest_matches_line_by_line_reference(tmp_path, monkeypatch, seed):
    from hetecf import graph as G
    from oracles import reference_ingest

    rng = np.random.default_rng([seed, 0x1D])
    plain, bad = seed % 3 == 0, None
    if seed % 3 == 2:
        bad = (seed // 3) % 14  # a record that fails one check
    elif seed % 6 == 4:
        bad = 14 + seed // 6  # a record that fails two or three
    paths = write_dataset(tmp_path, "", "", schema=REF_SCHEMA)
    files = {"schema": (paths[2], REF_SCHEMA.encode())}
    for kind, path, data in zip(("nodes", "edges"), paths, _random_files(rng, plain, bad)):
        with open(path, "wb") as fh:
            fh.write(data)
        files[kind] = (path, data)
    want = reference_ingest(REF_TYPES, REF_RELATIONS, files)
    if len(want) == 4:  # a graph: its content hash from the reference's int64 arrays
        ids, index, arrays, digest = want
        schema = h.load_schema(paths[2])
        matrices = {name: sp.csr_array((data, indices, indptr),
                                       shape=(len(ids[source]), len(ids[target])))
                    for (name, source, target), (indptr, indices, data)
                    in zip(REF_RELATIONS, arrays.values())}
        assert all(m.indices.dtype == np.int64 for m in matrices.values())
        arrays = {name: tuple(a.tobytes() for a in parts) for name, parts in arrays.items()}
        want = (ids, dict(index), arrays,
                h.content_hash(h.HeteroGraph(schema, ids, matrices)), digest)
    normalise, normalised = G._normalise, []
    monkeypatch.setattr(G, "_normalise",
                        lambda *args: normalised.append(1) or normalise(*args))
    assert _ingest_outcome(paths) == want
    assert not normalised if plain else normalised
    # every key equal, so each lookup walks the whole table and compares
    # bytes; and blocks of a few lines, so most records sit near a boundary
    monkeypatch.setattr(G, "_keys", lambda words, begin, length, head: np.zeros_like(head))
    monkeypatch.setattr(G, "BLOCK_RECORDS", 1 + seed % 7)
    assert _ingest_outcome(paths) == want


def test_ids_made_to_share_a_key_spread_under_another_seed(monkeypatch):
    from hetecf import graph as G

    # 16-byte ids whose second words are chosen, knowing the seed, so that
    # every id folds to one key
    monkeypatch.setattr(G, "_SEED", np.uint64(0))
    heads = np.arange(1, 201, dtype=np.uint64)
    target = np.uint64(0x0123456789ABCDEF)
    tails = G._scramble(heads) ^ target
    data = b"".join(int(a).to_bytes(8, "little") + int(b).to_bytes(8, "little")
                    for a, b in zip(heads.tolist(), tails.tolist()))
    words, begin, length = G._words(data), np.arange(0, len(data), 16), np.full(200, 16)

    def keys():
        return G._keys(words, begin, length, G._heads(words, begin, length))

    assert set(keys().tolist()) == {int(target)}
    monkeypatch.setattr(G, "_SEED", np.uint64(0x5EED))
    assert len(set(keys().tolist())) == 200
    # keys that differ only in their low bits get different home slots
    top = (np.arange(200, dtype=np.uint64) << np.uint64(8))
    assert len(set(G._home(top, 1024).tolist())) > 100


# ------------------------------------------------------ hashes and index width

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "sample_data"


def test_sample_data_digests_are_pinned():
    # every stored model's graph_hash is content_hash of its graph
    paths = [str(SAMPLE / name) for name in ("nodes.tsv", "edges.tsv", "schema.txt")]
    g = h.load_graph(*paths)
    assert h.content_hash(g) == (
        "7e7afff34190dce22e1db61a9d42321d56409521731a031b91e801e31fb0c6dc")
    assert g.source_digest == h.source_digest(*paths) == (
        "4184bb74f881693105d11ddac8b61fd83d73e42ed9f35079fc44bc33e44c54b0")
    assert {m.indices.dtype for m in g.matrices.values()} == {np.dtype(np.int32)}
    wide = {name: sp.csr_array((m.data, m.indices.astype(np.int64), m.indptr.astype(np.int64)),
                               shape=m.shape) for name, m in g.matrices.items()}
    assert {m.indices.dtype for m in wide.values()} == {np.dtype(np.int64)}
    assert h.content_hash(h.HeteroGraph(g.schema, g.node_ids, wide)) == h.content_hash(g)


def test_32_bit_indices_where_pair_keys_need_64(tmp_path):
    # n * m > 2**31, so a user-item pair key rows * m + cols overflows in 32 bits
    from hetecf import learner
    from hetecf.metapath import declared, similarity

    n = m = 50_001
    schema = "nodetype User user\nnodetype Item item\nrelation rates User Item\n"
    nodes = "".join(f"u{i}\tUser\n" for i in range(n)) + "".join(
        f"i{j}\tItem\n" for j in range(m))
    users = np.arange(n)
    edges = "".join(f"u{i}\ti{(i * 7919) % m}\trates\n" for i in users.tolist())
    edges += "".join(f"u{i}\ti{m - 1 - i}\trates\n" for i in users[::5].tolist())
    g = h.load_graph(*write_dataset(tmp_path, nodes, edges, schema=schema))
    groups = h.parse_path_spec(
        "UU: User -rates-> Item <-rates- User\n"
        "II: Item <-rates- User -rates-> Item\n"
        "UI: User -rates-> Item\n", g.schema)
    inputs = h.set_up(g, groups, h.parse_path("User -rates-> Item", g.schema))
    ratings, rels, laps = inputs.ratings, inputs.rels, inputs.rels.laps
    sims = [similarity(g, group, path)[1].matrix for group, path in declared(groups)]
    for matrix in [g.matrices["rates"], *sims, *laps.user, *laps.item,
                   *(sim.matrix for sim in rels.user_item)]:
        assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
    assert ratings.nnz == n + len(users[::5]) and int(ratings.rows.max()) * m > 2**31
    hp = h.Hyperparams(d=2, max_inner=1, max_outer=1)
    state = learner.train(ratings, rels, hp)
    data = learner.build_problem(ratings, rels, hp)
    point = data.evaluate(state.model)
    # the rating block leads the entry list; its predictions are f(U_i . V_j)
    predicted = point.resid[:ratings.nnz] + data.vals[:ratings.nnz]
    U, V = state.model.U, state.model.V
    want = h.logistic(np.einsum("ij,ij->i", U[ratings.rows], V[ratings.cols]))
    np.testing.assert_allclose(predicted, want, rtol=0, atol=1e-15)
