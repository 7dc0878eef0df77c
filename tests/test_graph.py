"""Graph ingestion, validation, adjacency, rating derivation, round trips."""

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
    from hetecf.graph import BLOCK_LINES

    lines = ["a1\tp1\twrites"] * (BLOCK_LINES + 10)
    lines[BLOCK_LINES - 1 + first] = "a1\tp1\twrites\theavy"
    lines[BLOCK_LINES - 1 + second] = "a1\tp1"
    paths = write_dataset(tmp_path, GOOD_NODES, "\n".join(lines) + "\n")
    with pytest.raises(GraphFormatError) as err:
        h.load_graph(*paths)
    assert err.value.line == BLOCK_LINES + first
    assert "unparseable weight 'heavy'" in str(err.value)


def test_duplicate_node_found_across_blocks(tmp_path):
    from hetecf.graph import BLOCK_LINES

    lines = [f"a{i}\tAuthor" for i in range(BLOCK_LINES + 10)]
    lines[BLOCK_LINES + 3] = "a7\tAuthor"
    lines[BLOCK_LINES + 5] = "a8\tAuthor"
    paths = write_dataset(tmp_path, "\n".join(lines) + "\np1\tPaper\n", "")
    with pytest.raises(GraphFormatError) as err:
        h.load_graph(*paths)
    assert str(err.value) == f"{paths[0]}:{BLOCK_LINES + 4}: duplicate node id 'a7'"


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
        hashlib.sha256(open(p, "rb").read()).digest() for p in (sp_, np_, ep)
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
    from hetecf.graph import BLOCK_LINES

    rng = np.random.default_rng(3)
    counts = {"Author": BLOCK_LINES // 2, "Paper": BLOCK_LINES, "Conf": 40}
    nodes = [(f"{t[0].lower()}{i}", t) for t, n in counts.items() for i in range(n)]
    order = rng.permutation(len(nodes))
    nodes = [nodes[k] for k in order]  # types interleave within each block
    edges = []
    for _ in range(2 * BLOCK_LINES + 100):
        a, p = rng.integers(0, counts["Author"]), rng.integers(0, counts["Paper"])
        edge = (f"a{a}", f"p{p}", "writes")
        edges.append(edge + (float(rng.random()),) if rng.random() < 0.5 else edge)
    edges += [(f"p{i}", f"c{i % 40}", "published_in") for i in range(counts["Paper"])]
    paths = write_dataset(tmp_path, _tsv(nodes), _tsv(edges))
    loaded = h.load_graph(*paths)
    built = h.build_graph(h.load_schema(paths[2]), nodes, edges)
    assert loaded.node_ids == built.node_ids
    assert list(loaded._index.items()) == list(built._index.items())
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
    expected = naive_pathsim(dfs_path_count(g, target), "rowcol")
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


# -------------------------------------------------- fast blocks vs line by line

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


def _load_fast_and_line_by_line(monkeypatch, paths, block_lines):
    """load_graph's outcome with fast blocks allowed, then with every block
    read line by line, and whether each block of the first load was fast.
    An outcome is the graph's ids, arrays and digests, or the error text."""
    from hetecf import graph as G

    monkeypatch.setattr(G, "BLOCK_LINES", block_lines)
    read, fast = G._Block.read, []

    def spy(fh, first_line):
        block = read(fh, first_line)
        if block is not None:
            fast.append(not block.strip)
        return block

    def load():
        try:
            g = h.load_graph(*paths)
        except GraphFormatError as exc:
            return str(exc)
        arrays = {name: [(a.dtype, a.tobytes()) for a in (m.indptr, m.indices, m.data)]
                  for name, m in g.matrices.items()}
        return (g.node_ids, list(g._index.items()), arrays, h.content_hash(g),
                g.source_digest)

    monkeypatch.setattr(G._Block, "read", staticmethod(spy))
    with_fast = load()
    seen = list(fast)
    monkeypatch.setattr(G, "_FAST_BYTE", np.zeros(256, bool))  # no block qualifies
    fast.clear()
    line_by_line = load()
    assert fast and not any(fast)
    return (with_fast, line_by_line), seen


def _write_lines(tmp_path, nodes, edges):
    paths = write_dataset(tmp_path, "", "")
    for path, lines in ((paths[0], nodes), (paths[1], edges)):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(lines))
    return paths


@pytest.mark.parametrize("block_lines", [1, 2, 3, 4, 7])
def test_fast_blocks_parse_like_line_by_line(tmp_path, monkeypatch, block_lines):
    paths = _write_lines(tmp_path, PARITY_NODES, PARITY_EDGES)
    (fast, slow), seen = _load_fast_and_line_by_line(monkeypatch, paths, block_lines)
    assert any(seen) and not all(seen)
    assert fast == slow
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
    assert fast[3] == h.content_hash(want)


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
    (fast, slow), seen = _load_fast_and_line_by_line(monkeypatch, paths, block_lines)
    assert seen[-1]  # the block that failed was a fast one
    assert fast == slow
    assert fast.startswith(f"{paths[0 if file == 'nodes' else 1]}:4: ")
    assert message in fast
