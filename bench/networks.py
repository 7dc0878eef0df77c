"""Seeded benchmark inputs, written as the text files the CLI reads.

Two networks share the bibliographic schema of ``hetecf.synth``
(Author / Paper / Conf / Term; user = Author, item = Conf):

* ``dense``: ``synth.generate(SynthSpec(seed).scaled(5))``, 200 authors x
  60 confs with every pair rated.
* ``sparse``: a per-source-node sampler that gives every source node a
  fixed out-degree with uniform targets.  ``synth.generate`` draws a
  dense source x target uniform array per relation, which at this size
  (6000 x 6000 papers for ``cites``) would take 288 MB on its own.
"""

import json
import os

import numpy as np

SCHEMA_TEXT = """\
nodetype Author user
nodetype Paper
nodetype Conf item
nodetype Term
relation writes Author Paper
relation published_in Paper Conf
relation contains Paper Term
relation cites Paper Paper
"""

TARGET_PATH = "Author -writes-> Paper -published_in-> Conf"

DEFAULT_PATHS = (
    "UU: Author -writes-> Paper <-writes- Author",
    "II: Conf <-published_in- Paper -published_in-> Conf",
    "UI: Author -writes-> Paper -cites-> Paper -published_in-> Conf",
)

SPARSE_PATHS = DEFAULT_PATHS + (
    "UU: Author -writes-> Paper -contains-> Term <-contains- Paper <-writes- Author",
    "II: Conf <-published_in- Paper -contains-> Term <-contains- Paper"
    " -published_in-> Conf",
    "UI: Author -writes-> Paper -cites-> Paper -cites-> Paper -published_in-> Conf",
)

SPARSE_COUNTS = {"Author": 3000, "Paper": 6000, "Conf": 600, "Term": 1500}

# relation: (source type, target type, out-degree of every source node)
SPARSE_DEGREES = {
    "writes": ("Author", "Paper", 3),
    "published_in": ("Paper", "Conf", 1),
    "contains": ("Paper", "Term", 3),
    "cites": ("Paper", "Paper", 3),
}

PREFIX = {"Author": "a", "Paper": "p", "Conf": "c", "Term": "t"}


class Network:
    """Node ids per type plus edges as (relation, src index, dst index) arrays."""

    def __init__(self, counts, edges, paths):
        self.counts = dict(counts)
        self.edges = edges  # list of (relation, src_type, dst_type, src, dst)
        self.paths = tuple(paths)

    def ids(self, node_type):
        return [f"{PREFIX[node_type]}{i}" for i in range(self.counts[node_type])]

    def write(self, directory):
        """Write schema, nodes, edges and paths files; returns their paths."""
        os.makedirs(directory, exist_ok=True)
        files = {
            name: os.path.join(directory, fname)
            for name, fname in (
                ("schema", "schema.txt"),
                ("nodes", "nodes.tsv"),
                ("edges", "edges.tsv"),
                ("paths", "paths.txt"),
            )
        }
        with open(files["schema"], "w", encoding="utf-8") as fh:
            fh.write(SCHEMA_TEXT)
        with open(files["nodes"], "w", encoding="utf-8") as fh:
            for t in PREFIX:
                fh.writelines(f"{nid}\t{t}\n" for nid in self.ids(t))
        with open(files["edges"], "w", encoding="utf-8") as fh:
            for rel, st, dt, src, dst in self.edges:
                ps, pd = PREFIX[st], PREFIX[dt]
                fh.writelines(
                    f"{ps}{s}\t{pd}{d}\t{rel}\n" for s, d in zip(src.tolist(), dst.tolist())
                )
        with open(files["paths"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.paths) + "\n")
        return files


def dense_network(seed, scale=5):
    """The ``SynthSpec(seed).scaled(scale)`` network of ``hetecf.synth``."""
    from hetecf import synth

    spec = synth.SynthSpec(seed=seed).scaled(scale)
    graph = synth.generate(spec)
    edges = []
    for rel in graph.schema.relations:
        coo = graph.matrices[rel.name].tocoo()
        order = np.lexsort((coo.col, coo.row))
        edges.append((rel.name, rel.source, rel.target, coo.row[order], coo.col[order]))
    return Network(spec.counts, edges, DEFAULT_PATHS)


def sparse_network(seed):
    """Fixed out-degree per source node, targets uniform and seeded.

    A repeated target is a parallel edge, which the graph loader sums
    into one weighted edge; citations never point at the citing paper.
    """
    rng = np.random.default_rng([seed, 0x5A5])
    edges = []
    for rel, (st, dt, degree) in SPARSE_DEGREES.items():
        ns, nt = SPARSE_COUNTS[st], SPARSE_COUNTS[dt]
        src = np.repeat(np.arange(ns), degree)
        if st == dt:
            dst = (src + 1 + rng.integers(0, nt - 1, size=src.size)) % nt
        else:
            dst = rng.integers(0, nt, size=src.size)
        edges.append((rel, st, dt, src, dst))
    return Network(SPARSE_COUNTS, edges, SPARSE_PATHS)


def write_config(path, settings):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(settings, fh, indent=1, sort_keys=True)
    return path
