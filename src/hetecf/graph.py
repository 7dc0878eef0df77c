"""Typed heterogeneous graph: schema, ingestion, adjacency, and rating matrices.

File formats (all UTF-8, ``#`` starts a comment, blank lines ignored):

schema file
    ``nodetype <TypeName> [user|item]`` declares a node type, optionally
    flagging it as the user or item side of the recommendation task.
    ``relation <name> <SourceType> <TargetType>`` declares a directed,
    typed relation.  Exactly one type must carry each flag, and they must
    be distinct.

nodes file
    One record per line: ``<node_id>\\t<node_type>``.  Node ids are
    treated as global: the same id may not appear twice, even under
    different types.

edges file
    ``<src_id>\\t<dst_id>\\t<relation>[\\t<weight>]``.  The endpoint types
    must match the relation declaration, weights must be finite and
    nonnegative (default 1.0), and parallel edges are summed into a
    single weighted edge.  An edge with ``src_id == dst_id`` is only
    representable when the relation is declared over a single type
    (e.g. user-user friendship); for cross-type relations it is rejected
    as a type mismatch.
"""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class SchemaError(ValueError):
    """Violation of the network schema (types, flags, relation triples)."""


class GraphFormatError(ValueError):
    """Malformed or inconsistent graph input, annotated with file and line."""

    def __init__(self, message, path=None, line=None):
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(prefix + message)
        self.source_path = path
        self.line = line


@dataclass(frozen=True)
class Relation:
    """A directed typed relation: edges run source -> target."""

    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Schema:
    node_types: tuple
    user_type: str
    item_type: str
    relations: tuple

    def __post_init__(self):
        if len(self.node_types) < 2:
            raise SchemaError("schema needs at least two node types")
        if len(set(self.node_types)) != len(self.node_types):
            raise SchemaError("duplicate node type declaration")
        for t in (self.user_type, self.item_type):
            if t not in self.node_types:
                raise SchemaError(f"flagged type {t!r} is not declared")
        if self.user_type == self.item_type:
            raise SchemaError("user and item flags must sit on distinct types")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate relation name")
        for r in self.relations:
            for t in (r.source, r.target):
                if t not in self.node_types:
                    raise SchemaError(
                        f"relation {r.name!r} references undeclared type {t!r}"
                    )

    def relation(self, name):
        for r in self.relations:
            if r.name == name:
                return r
        raise SchemaError(f"unknown relation {name!r}")

    def has_relation(self, name):
        return any(r.name == name for r in self.relations)


@dataclass
class HeteroGraph:
    """Heterogeneous network: per-type node tables plus per-relation adjacency.

    ``node_ids[t]`` lists external ids of type ``t`` in index order, so each
    type owns a dense 0..count-1 index space.  ``matrices[rel]`` is the
    weighted adjacency of that relation, shape (count(source), count(target)).
    """

    schema: Schema
    node_ids: dict
    matrices: dict
    _index: dict = field(repr=False, default=None)

    def __post_init__(self):
        if self._index is None:
            self._index = {}
            for t, ids in self.node_ids.items():
                for i, nid in enumerate(ids):
                    self._index[nid] = (t, i)

    def node_count(self, node_type):
        if node_type not in self.node_ids:
            raise SchemaError(f"unknown node type {node_type!r}")
        return len(self.node_ids[node_type])

    def node_index(self, node_id):
        """Return (type, index) for an external node id."""
        try:
            return self._index[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    def summary(self):
        lines = []
        for t in self.schema.node_types:
            lines.append(f"nodetype {t}: {self.node_count(t)} nodes")
        for r in self.schema.relations:
            nnz = self.matrices[r.name].nnz
            lines.append(f"relation {r.name} ({r.source} -> {r.target}): {nnz} edges")
        return "\n".join(lines)


class _Assembler:
    """Shared incremental construction with optional file/line context."""

    def __init__(self, schema):
        self.schema = schema
        self.ids = {t: [] for t in schema.node_types}
        self.index = {}
        self.edges = {r.name: ([], [], []) for r in schema.relations}

    def add_node(self, node_id, node_type, path=None, line=None):
        if node_type not in self.schema.node_types:
            raise GraphFormatError(
                f"node {node_id!r} has undeclared type {node_type!r}", path, line
            )
        if node_id in self.index:
            raise GraphFormatError(f"duplicate node id {node_id!r}", path, line)
        self.index[node_id] = (node_type, len(self.ids[node_type]))
        self.ids[node_type].append(node_id)

    def add_edge(self, src, dst, relation, weight=1.0, path=None, line=None):
        if relation not in self.edges:
            raise GraphFormatError(f"unknown relation {relation!r}", path, line)
        rel = self.schema.relation(relation)
        for nid, want, role in ((src, rel.source, "source"), (dst, rel.target, "target")):
            if nid not in self.index:
                raise GraphFormatError(
                    f"edge references unknown node id {nid!r}", path, line
                )
            got = self.index[nid][0]
            if got != want:
                raise GraphFormatError(
                    f"edge {src!r} -> {dst!r} via {relation!r}: {role} node "
                    f"{nid!r} has type {got!r}, expected {want!r}",
                    path,
                    line,
                )
        weight = float(weight)
        if not math.isfinite(weight) or weight < 0:
            raise GraphFormatError(
                f"edge {src!r} -> {dst!r} has invalid weight {weight!r}", path, line
            )
        rows, cols, vals = self.edges[relation]
        rows.append(self.index[src][1])
        cols.append(self.index[dst][1])
        vals.append(weight)

    def finish(self):
        matrices = {}
        for r in self.schema.relations:
            rows, cols, vals = self.edges[r.name]
            shape = (len(self.ids[r.source]), len(self.ids[r.target]))
            m = sp.coo_array(
                (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=shape
            ).tocsr()
            m.sum_duplicates()  # parallel edges collapse to one weighted edge
            matrices[r.name] = m
        return HeteroGraph(self.schema, self.ids, matrices, dict(self.index))


def build_graph(schema, nodes, edges):
    """Programmatic construction.

    Args:
        schema: Schema.
        nodes: iterable of (node_id, node_type).
        edges: iterable of (src_id, dst_id, relation) or (..., weight).
    """
    asm = _Assembler(schema)
    for node_id, node_type in nodes:
        asm.add_node(str(node_id), node_type)
    for e in edges:
        if len(e) == 3:
            src, dst, rel = e
            w = 1.0
        else:
            src, dst, rel, w = e
        asm.add_edge(str(src), str(dst), rel, w)
    return asm.finish()


def _records(path):
    """Yield (lineno, fields) from a tab-separated file, skipping comments."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, [f.strip() for f in line.split("\t")]


def load_schema(path):
    node_types, relations = [], []
    user_type = item_type = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            kind = fields[0]
            if kind == "nodetype":
                if len(fields) not in (2, 3):
                    raise GraphFormatError(
                        "expected 'nodetype <Name> [user|item]'", path, lineno
                    )
                node_types.append(fields[1])
                if len(fields) == 3:
                    flag = fields[2]
                    if flag == "user":
                        if user_type is not None:
                            raise GraphFormatError("second user flag", path, lineno)
                        user_type = fields[1]
                    elif flag == "item":
                        if item_type is not None:
                            raise GraphFormatError("second item flag", path, lineno)
                        item_type = fields[1]
                    else:
                        raise GraphFormatError(f"unknown flag {flag!r}", path, lineno)
            elif kind == "relation":
                if len(fields) != 4:
                    raise GraphFormatError(
                        "expected 'relation <name> <Source> <Target>'", path, lineno
                    )
                relations.append(Relation(fields[1], fields[2], fields[3]))
            else:
                raise GraphFormatError(f"unknown directive {kind!r}", path, lineno)
    if user_type is None or item_type is None:
        raise GraphFormatError("schema must flag one user and one item type", path)
    try:
        return Schema(tuple(node_types), user_type, item_type, tuple(relations))
    except SchemaError as exc:
        raise GraphFormatError(str(exc), path) from exc


def load_graph(nodes_path, edges_path, schema_path):
    """Parse and validate the three input files into a HeteroGraph."""
    schema = load_schema(schema_path)
    asm = _Assembler(schema)
    for lineno, fields in _records(nodes_path):
        if len(fields) != 2:
            raise GraphFormatError(
                f"expected '<node_id>\\t<node_type>', got {len(fields)} fields",
                nodes_path,
                lineno,
            )
        asm.add_node(fields[0], fields[1], nodes_path, lineno)
    for lineno, fields in _records(edges_path):
        if len(fields) not in (3, 4):
            raise GraphFormatError(
                f"expected '<src>\\t<dst>\\t<relation>[\\t<weight>]', got "
                f"{len(fields)} fields",
                edges_path,
                lineno,
            )
        if len(fields) == 4:
            try:
                w = float(fields[3])
            except ValueError:
                raise GraphFormatError(
                    f"unparseable weight {fields[3]!r}", edges_path, lineno
                ) from None
        else:
            w = 1.0
        asm.add_edge(fields[0], fields[1], fields[2], w, edges_path, lineno)
    return asm.finish()


def save_graph(graph, nodes_path, edges_path, schema_path):
    """Serialize a graph back to the three-file format (round-trips load_graph)."""
    lines = []
    for t in graph.schema.node_types:
        flag = ""
        if t == graph.schema.user_type:
            flag = " user"
        elif t == graph.schema.item_type:
            flag = " item"
        lines.append(f"nodetype {t}{flag}")
    for r in graph.schema.relations:
        lines.append(f"relation {r.name} {r.source} {r.target}")
    with open(schema_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    with open(nodes_path, "w", encoding="utf-8") as fh:
        for t in graph.schema.node_types:
            for nid in graph.node_ids[t]:
                fh.write(f"{nid}\t{t}\n")

    with open(edges_path, "w", encoding="utf-8") as fh:
        for r in graph.schema.relations:
            coo = graph.matrices[r.name].tocoo()
            src_ids = graph.node_ids[r.source]
            dst_ids = graph.node_ids[r.target]
            order = np.lexsort((coo.col, coo.row))
            for k in order:
                fh.write(
                    f"{src_ids[coo.row[k]]}\t{dst_ids[coo.col[k]]}\t{r.name}"
                    f"\t{float(coo.data[k])!r}\n"
                )


def adjacency(graph, relation, transposed=False):
    """Weighted adjacency of one relation as CSR; optionally its transpose."""
    rel = graph.schema.relation(relation)  # raises SchemaError if unknown
    m = graph.matrices[rel.name]
    return m.T.tocsr() if transposed else m


def content_hash(graph):
    """sha256 of the schema, the node tables and the weighted edges.

    Each type's ids are hashed as their lengths (in characters) followed
    by their UTF-8 concatenation, which the lengths split unambiguously.
    Each relation is hashed from the arrays of a canonical CSR copy
    (duplicates summed, indices sorted, little-endian int64/float64), so
    the hash ignores edge order and never modifies ``graph.matrices``.
    """
    h = hashlib.sha256()
    h.update(repr(graph.schema).encode())
    for t in graph.schema.node_types:
        ids = graph.node_ids[t]
        h.update(f"n\t{t}\t{len(ids)}\n".encode())
        h.update(np.fromiter(map(len, ids), dtype="<i8", count=len(ids)).tobytes())
        h.update("".join(ids).encode())
    for r in graph.schema.relations:
        m = sp.csr_array(graph.matrices[r.name], copy=True)
        m.sum_duplicates()
        m.sort_indices()
        h.update(f"e\t{r.name}\t{m.shape[0]}\t{m.shape[1]}\t{m.nnz}\n".encode())
        for arr, dtype in ((m.indptr, "<i8"), (m.indices, "<i8"), (m.data, "<f8")):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


class RatingMatrixError(ValueError):
    """Invalid rating matrix construction."""


@dataclass
class RatingMatrix:
    """Sparse user-item ratings in [0, 1].

    Only explicitly stored entries are observed; a value of exactly zero
    encodes "unobserved" and is dropped at construction.  Entries are kept
    in canonical row-major order with no duplicates.
    """

    n: int
    m: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise RatingMatrixError(f"empty matrix dimensions ({self.n}, {self.m})")
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        vals = np.asarray(self.vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise RatingMatrixError("rows/cols/vals must be 1-d arrays of equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.n:
                raise RatingMatrixError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.m:
                raise RatingMatrixError("column index out of range")
            if not np.all(np.isfinite(vals)):
                raise RatingMatrixError("non-finite rating")
            if vals.min() < 0.0 or vals.max() > 1.0:
                raise RatingMatrixError("rating outside [0, 1]")
        keep = vals != 0.0  # zero encodes unobserved
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
            dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if dup.any():
                k = int(np.flatnonzero(dup)[0])
                raise RatingMatrixError(
                    f"duplicate entry at ({rows[k]}, {cols[k]})"
                )
        self.rows, self.cols, self.vals = rows, cols, vals

    @classmethod
    def from_entries(cls, n, m, entries):
        entries = list(entries)
        rows = [e[0] for e in entries]
        cols = [e[1] for e in entries]
        vals = [e[2] for e in entries]
        return cls(n, m, np.asarray(rows, dtype=np.int64),
                   np.asarray(cols, dtype=np.int64),
                   np.asarray(vals, dtype=np.float64))

    @classmethod
    def from_sparse(cls, mat):
        coo = sp.coo_array(mat)
        return cls(coo.shape[0], coo.shape[1], coo.row, coo.col, coo.data)

    @property
    def nnz(self):
        return int(self.rows.size)

    @property
    def density(self):
        return self.nnz / (self.n * self.m)

    def to_csr(self):
        return sp.csr_array(
            (self.vals, (self.rows, self.cols)), shape=(self.n, self.m)
        )

    def subset(self, mask):
        """New RatingMatrix keeping entries where mask is True."""
        mask = np.asarray(mask, dtype=bool)
        return RatingMatrix(
            self.n, self.m, self.rows[mask], self.cols[mask], self.vals[mask]
        )


def derive_ratings(graph, target_path, variant="rowcol"):
    """Rating matrix from meta-path similarity along the user-item target path.

    R[i, j] is the similarity of user i and item j under ``target_path``;
    zero-similarity pairs stay unobserved.
    """
    from . import metapath  # local import: metapath depends on this module

    schema = graph.schema
    if target_path.source_type != schema.user_type or (
        target_path.target_type != schema.item_type
    ):
        raise SchemaError(
            f"target path runs {target_path.source_type!r} -> "
            f"{target_path.target_type!r}, expected "
            f"{schema.user_type!r} -> {schema.item_type!r}"
        )
    pc = metapath.path_count(graph, target_path)
    sim = metapath.pathsim(pc, variant=variant)
    return RatingMatrix.from_sparse(sim.matrix)
