"""Shared fixtures: toy bibliographic graphs and random instance builders."""

import numpy as np
import pytest
import scipy.sparse as sp

from hetecf import (
    RatingMatrix,
    Relation,
    RelationSet,
    Schema,
    build_graph,
    make_path,
)
from hetecf.metapath import SimilarityMatrix


@pytest.fixture
def biblio_schema():
    return Schema(
        node_types=("Author", "Paper", "Conf"),
        user_type="Author",
        item_type="Conf",
        relations=(
            Relation("writes", "Author", "Paper"),
            Relation("published_in", "Paper", "Conf"),
        ),
    )


@pytest.fixture
def toy_graph(biblio_schema):
    """Three authors, three papers, two conferences."""
    nodes = [
        ("a1", "Author"), ("a2", "Author"), ("a3", "Author"),
        ("p1", "Paper"), ("p2", "Paper"), ("p3", "Paper"),
        ("c1", "Conf"), ("c2", "Conf"),
    ]
    edges = [
        ("a1", "p1", "writes"), ("a2", "p1", "writes"),
        ("a1", "p2", "writes"), ("a2", "p2", "writes"),
        ("a1", "p3", "writes"), ("a3", "p3", "writes"),
        ("p1", "c1", "published_in"), ("p2", "c1", "published_in"),
        ("p3", "c2", "published_in"),
    ]
    return build_graph(biblio_schema, nodes, edges)


def random_symmetric_similarity(n, density, rng, scale=1.0):
    """Symmetric nonnegative matrix with zero diagonal and values in [0, scale]."""
    mask = rng.random((n, n)) < density
    vals = rng.random((n, n)) * scale
    S = np.triu(mask * vals, 1)
    return sp.csr_array(S + S.T)


def random_instance(rng, n=8, m=6, d=3, n_uu=2, n_ii=2, n_ui=2,
                    density=0.4, lam=0.01, mu=0.3):
    """Random ratings + fabricated similarity matrices for gradient tests."""
    schema = Schema(
        ("U", "X", "I"), "U", "I",
        (Relation("r1", "U", "X"), Relation("r2", "X", "I")),
    )
    p_uu = make_path(schema, [("r1", True), ("r1", False)])
    p_ii = make_path(schema, [("r2", False), ("r2", True)])
    p_ui = make_path(schema, [("r1", True), ("r2", True)])
    uu = [
        SimilarityMatrix(p_uu, random_symmetric_similarity(n, density, rng))
        for _ in range(n_uu)
    ]
    ii = [
        SimilarityMatrix(p_ii, random_symmetric_similarity(m, density, rng))
        for _ in range(n_ii)
    ]
    ui = []
    for _ in range(n_ui):
        mask = rng.random((n, m)) < density
        ui.append(
            SimilarityMatrix(p_ui, sp.csr_array(mask * rng.random((n, m))))
        )
    rels = RelationSet(uu, ii, ui)
    total = n * m
    k = max(2, int(density * total))
    flat = rng.choice(total, size=k, replace=False)
    ratings = RatingMatrix(n, m, flat // m, flat % m, rng.uniform(0.05, 1.0, size=k))
    from hetecf import Hyperparams

    hp = Hyperparams(d=d, lam=lam, mu=mu, seed=int(rng.integers(0, 2**31)))
    return ratings, rels, hp


def random_ratings(rng, n, m, density=0.3, lo=0.05, hi=1.0):
    total = n * m
    k = max(2, int(density * total))
    flat = rng.choice(total, size=k, replace=False)
    return RatingMatrix(n, m, flat // m, flat % m, rng.uniform(lo, hi, size=k))


# A corpus of random citation graphs, shared by the acceptance and metapath tests.
CITE_SCHEMA = Schema(
    ("Author", "Paper", "Conf"), "Author", "Conf",
    (Relation("writes", "Author", "Paper"),
     Relation("published_in", "Paper", "Conf"),
     Relation("cites", "Paper", "Paper")),
)

# lengths 1 through 4; a mix of palindromic and one-way shapes
PATH_TEXTS = (
    "Paper -cites-> Paper",
    "Author -writes-> Paper <-writes- Author",
    "Author -writes-> Paper -published_in-> Conf",
    "Conf <-published_in- Paper -published_in-> Conf",
    "Author -writes-> Paper -cites-> Paper -published_in-> Conf",
    "Author -writes-> Paper -cites-> Paper <-writes- Author",
    "Conf <-published_in- Paper -cites-> Paper -published_in-> Conf",
    "Author -writes-> Paper -published_in-> Conf <-published_in- Paper <-writes- Author",
)


@pytest.fixture(scope="session")
def graph_corpus():
    """100 random bibliographic graphs of at most 30 nodes."""
    rng = np.random.default_rng(202)
    graphs = []
    for _ in range(100):
        na, npp, nc = (int(x) for x in rng.integers(1, 11, size=3))
        nodes = (
            [(f"a{i}", "Author") for i in range(na)]
            + [(f"p{i}", "Paper") for i in range(npp)]
            + [(f"c{i}", "Conf") for i in range(nc)]
        )
        edges = []
        for i in range(na):
            for j in range(npp):
                if rng.random() < 0.35:
                    edges.append((f"a{i}", f"p{j}", "writes"))
        for i in range(npp):
            for j in range(nc):
                if rng.random() < 0.35:
                    edges.append((f"p{i}", f"c{j}", "published_in"))
            for j in range(npp):
                if i != j and rng.random() < 0.25:
                    edges.append((f"p{i}", f"p{j}", "cites"))
        graphs.append(build_graph(CITE_SCHEMA, nodes, edges))
    return graphs
