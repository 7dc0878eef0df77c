"""Typed heterogeneous graph: schema, ingestion, adjacency, and rating matrices.

File formats (all UTF-8, ``#`` starts a comment, blank lines ignored;
nodes and edges fields are tab-separated and stripped of surrounding
whitespace):

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

The nodes and edges files are read ``BLOCK_LINES`` lines at a time, and
each block is checked with array masks.  The first bad record in file
order raises a ``GraphFormatError`` naming its ``file:line``.  An empty
node id, node type, edge endpoint or relation is an error.
``build_graph`` runs the same checks on in-memory records.

``load_graph`` reads each of the three files once, as bytes, and parses
them through a text wrapper that decodes and translates newlines like
``open(path, encoding="utf-8")``.  The graph it returns carries
``source_digest``: a sha256 over the sha256 digests of the schema, nodes
and edges bytes, in that order.  ``source_digest(...)`` computes the same
value from the files without parsing them, so a caller can tell whether
files are byte-identical to the ones a graph was loaded from.  Files
with the same bytes parse to the same graph.
"""

import hashlib
import io
import math
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat

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


@dataclass
class HeteroGraph:
    """Heterogeneous network: per-type node tables plus per-relation adjacency.

    ``node_ids[t]`` lists external ids of type ``t`` in index order, so each
    type owns a dense 0..count-1 index space.  ``matrices[rel]`` is the
    weighted adjacency of that relation, shape (count(source), count(target)).
    ``source_digest`` is the ``source_digest`` of the files ``load_graph``
    parsed, and None for a graph built in memory.
    """

    schema: Schema
    node_ids: dict
    matrices: dict
    _index: dict = field(repr=False, default=None)
    source_digest: str = None

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


# Lines parsed at once.  It bounds the text and arrays alive per block: with
# 8192, a whole ``bench/run.py`` run peaked 2-4 MB higher than with 2048,
# and ingest ran no faster.
BLOCK_LINES = 2048


# Bytes a field may hold in a fast block: printable ASCII except space and
# ``#``.  With tab and newline as separators, nothing else may occur.
_FIELD_BYTE = np.zeros(256, bool)
_FIELD_BYTE[0x21:0x7F] = True
_FIELD_BYTE[ord("#")] = False
_FAST_BYTE = _FIELD_BYTE.copy()
_FAST_BYTE[[ord("\t"), ord("\n")]] = True


class _Block:
    """Records of one block, as a flat field list plus per-record offsets.

    ``flat`` holds every field of every record in order, followed by
    padding, so that ``flat[start[r] + c]`` is field ``c`` of record ``r``
    when the record has more than ``c`` fields (and some other field or
    padding when it has not).  ``strip`` says whether fields carry
    surrounding whitespace that ingest removes.  ``width`` is the field
    count shared by every record, or 0 when the counts differ; a column of
    such a block is a slice of ``flat``.
    """

    def __init__(self, flat, count, lines, strip):
        self.flat = flat
        self.count = count
        self.start = np.cumsum(count) - count
        self.lines = lines
        self.strip = strip
        self.width = int(count[0]) if count.size and (count == count[0]).all() else 0
        flat.extend([""] * 4)

    @classmethod
    def read(cls, fh, first_line):
        """The next BLOCK_LINES lines of ``fh``, or None at its end.

        Fast block: when the text ends in a newline and holds only tabs,
        newlines and printable ASCII other than space and ``#``, with no
        line that is empty or starts with a tab, then no line is blank or
        a comment and no field has whitespace to strip.  Its fields are
        split off the whole text at once, and its tab counts come from
        byte positions.

        Any other block is read line by line: blank and ``#`` lines are
        dropped and every field is stripped.  The raw lines are released
        before the fields are split, to keep the block's peak memory low.
        """
        raw = list(islice(fh, BLOCK_LINES))
        if not raw:
            return None
        text = "".join(raw)
        if text.isascii() and text.endswith("\n"):
            codes = np.frombuffer(text.encode("ascii"), np.uint8)
            ends = np.flatnonzero(codes == ord("\n"))  # one per line
            starts = np.concatenate(([0], ends[:-1] + 1))
            if _FAST_BYTE[codes].all() and _FIELD_BYTE[codes[starts]].all():
                del raw
                tabs = np.diff(np.searchsorted(np.flatnonzero(codes == ord("\t")), ends),
                               prepend=0)
                lines = first_line + np.arange(ends.size)
                return cls(text.replace("\n", "\t").split("\t"), tabs + 1, lines, strip=False)
        del text
        keep = ~np.fromiter(map(str.isspace, raw), bool, len(raw))
        keep &= ~np.fromiter(
            map(str.startswith, map(str.lstrip, raw), repeat("#")), bool, len(raw)
        )
        if not keep.all():
            raw = list(compress(raw, keep.tolist()))
        tabs = np.fromiter(map(str.count, raw, repeat("\t")), np.intp, len(raw))
        text = "\t".join(raw)
        del raw
        return cls(text.split("\t"), tabs + 1, first_line + np.flatnonzero(keep), strip=True)

    @classmethod
    def from_records(cls, records, ids):
        """Block from in-memory tuples whose first ``ids`` fields are node ids."""
        records = [tuple(map(str, r[:ids])) + tuple(r[ids:]) for r in records]
        count = np.fromiter(map(len, records), np.intp, len(records))
        return cls(list(chain.from_iterable(records)), count, None, strip=False)

    def column(self, c, rows=None):
        """Field ``c`` of every record, or of the records in ``rows``, as an iterable."""
        if rows is None and c < self.width:
            values = self.flat[c:self.width * self.count.size:self.width]
        else:
            at = self.start if rows is None else self.start[rows]
            values = map(self.flat.__getitem__, (at + c).tolist())
        return map(str.strip, values) if self.strip else values

    def fields(self, r):
        """All fields of record ``r``."""
        begin = int(self.start[r])
        values = self.flat[begin:begin + int(self.count[r])]
        return [f.strip() for f in values] if self.strip else values

    def line(self, r):
        return None if self.lines is None else int(self.lines[r])


def _float_or_nan(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


class _Ingest:
    """Columnar graph assembly: every check runs as a mask over a block.

    Nodes are numbered globally in file order; ``_node_type`` and
    ``_node_local`` give each one's type code and index within its type.
    No empty string is ever a node id, type or relation here, so an empty
    field fails the same lookups as an unknown one.  When a block fails a
    check, ``_record_error`` re-checks its first failing record alone and
    builds the error that names it.
    """

    def __init__(self, schema):
        self.schema = schema
        self.ids = {t: [] for t in schema.node_types}
        self._number = {}  # node id -> global node number, in file order
        self._type_code = {t: k for k, t in enumerate(schema.node_types) if t}
        self._rel_code = {r.name: k for k, r in enumerate(schema.relations) if r.name}
        # a trailing -2 answers code -1 (unknown), so masks need no guards
        types = schema.node_types
        self._rel_source = np.array(
            [types.index(r.source) for r in schema.relations] + [-2], np.intp
        )
        self._rel_target = np.array(
            [types.index(r.target) for r in schema.relations] + [-2], np.intp
        )
        self._node_type = [np.empty(0, np.intp)]
        self._node_local = [np.empty(0, np.intp)]
        # per relation: (source index, target index, weight) arrays, in file order
        self._edges = [[(np.empty(0, np.intp),) * 2 + (np.empty(0),)]
                       for _ in schema.relations]

    def _nodes(self):
        """(type code per global node, with a trailing -1; local index)."""
        return (np.append(np.concatenate(self._node_type), -1),
                np.concatenate(self._node_local))

    def _register(self, ids, codes):
        g0 = len(self._number)
        self._number.update(zip(ids, range(g0, g0 + len(ids))))
        local = np.empty(len(ids), np.intp)
        for k, t in enumerate(self.schema.node_types):
            mask = codes == k
            local[mask] = len(self.ids[t]) + np.arange(np.count_nonzero(mask))
            self.ids[t].extend(compress(ids, mask.tolist()))
        self._node_type.append(codes)
        self._node_local.append(local)

    def add_nodes(self, block, path=None):
        n = block.count.size
        ids = list(block.column(0))
        codes = np.fromiter(
            map(self._type_code.get, block.column(1), repeat(-1)), np.intp, n
        )
        bad = (block.count != 2) | (codes < 0)
        bad |= np.fromiter(map(self._number.__contains__, ids), bool, n)
        if "" in ids:
            bad |= ~np.fromiter(map(bool, ids), bool, n)
        first = dict(zip(reversed(ids), range(n - 1, -1, -1)))
        if len(first) < n:  # an id repeated within the block
            bad |= np.fromiter(map(first.__getitem__, ids), np.intp, n) != np.arange(n)
        if bad.any():
            r = int(bad.argmax())
            self._register(ids[:r], codes[:r])  # the records before r are valid
            raise self._record_error("node", block.fields(r), path, block.line(r))
        self._register(ids, codes)

    def add_edges(self, block, path=None):
        n = block.count.size
        bad = (block.count < 3) | (block.count > 4)
        weights = np.ones(n)
        four = np.flatnonzero(block.count == 4)
        try:
            weights[four] = np.fromiter(map(float, block.column(3, four)), np.float64, four.size)
        except (TypeError, ValueError):  # unparseable weights read as NaN and fail below
            weights[four] = np.fromiter(
                map(_float_or_nan, block.column(3, four)), np.float64, four.size
            )
        codes = np.fromiter(map(self._rel_code.get, block.column(2), repeat(-1)), np.intp, n)
        s = np.fromiter(map(self._number.get, block.column(0), repeat(-1)), np.intp, n)
        d = np.fromiter(map(self._number.get, block.column(1), repeat(-1)), np.intp, n)
        node_type, node_local = self._nodes()
        bad |= (codes < 0) | (s < 0) | (d < 0)
        bad |= (node_type[s] != self._rel_source[codes])
        bad |= (node_type[d] != self._rel_target[codes])
        bad |= ~(np.isfinite(weights) & (weights >= 0))
        if bad.any():
            r = int(bad.argmax())
            raise self._record_error("edge", block.fields(r), path, block.line(r))
        for k, parts in enumerate(self._edges):
            sel = codes == k
            parts.append((node_local[s[sel]], node_local[d[sel]], weights[sel]))

    def _record_error(self, kind, fields, path, line):
        """The GraphFormatError for one record's first failing check.

        Checks run in a fixed order.  Nodes: field count, empty fields,
        declared type, duplicate id.  Edges: field count, empty fields,
        weight parse, relation, source id and type, target id and type,
        weight value.
        """

        def error(message):
            return GraphFormatError(message, path, line)

        if kind == "node":
            if len(fields) != 2:
                return error(
                    f"expected '<node_id>\\t<node_type>', got {len(fields)} fields"
                )
            node_id, node_type = fields
            for value, what in ((node_id, "node id"), (node_type, "node type")):
                if value == "":
                    return error(f"empty {what}")
            if node_type not in self._type_code:
                return error(f"node {node_id!r} has undeclared type {node_type!r}")
            if node_id in self._number:
                return error(f"duplicate node id {node_id!r}")
        else:
            if len(fields) not in (3, 4):
                return error(
                    f"expected '<src>\\t<dst>\\t<relation>[\\t<weight>]', got "
                    f"{len(fields)} fields"
                )
            src, dst, relation = fields[:3]
            for value, what in ((src, "source id"), (dst, "target id"),
                                (relation, "relation")):
                if value == "":
                    return error(f"empty {what}")
            weight = 1.0
            if len(fields) == 4:
                try:
                    weight = float(fields[3])
                except (TypeError, ValueError):
                    return error(f"unparseable weight {fields[3]!r}")
            if relation not in self._rel_code:
                return error(f"unknown relation {relation!r}")
            rel = self.schema.relations[self._rel_code[relation]]
            node_type = self._nodes()[0]
            for nid, want, role in ((src, rel.source, "source"),
                                    (dst, rel.target, "target")):
                if nid not in self._number:
                    return error(f"edge references unknown node id {nid!r}")
                got = self.schema.node_types[node_type[self._number[nid]]]
                if got != want:
                    return error(
                        f"edge {src!r} -> {dst!r} via {relation!r}: {role} node "
                        f"{nid!r} has type {got!r}, expected {want!r}"
                    )
            if not math.isfinite(weight) or weight < 0:
                return error(f"edge {src!r} -> {dst!r} has invalid weight {weight!r}")
        raise RuntimeError(f"{kind} record {fields!r} failed a mask but no check")

    def finish(self, source_digest=None):
        node_type, node_local = self._nodes()
        type_names = map(self.schema.node_types.__getitem__, node_type[:-1].tolist())
        index = dict(zip(self._number, zip(type_names, node_local.tolist())))
        matrices = {}
        for r, parts in zip(self.schema.relations, self._edges):
            rows, cols, vals = map(np.concatenate, zip(*parts))
            parts.clear()
            shape = (len(self.ids[r.source]), len(self.ids[r.target]))
            m = sp.coo_array((vals, (rows, cols)), shape=shape).tocsr()
            m.sum_duplicates()  # parallel edges collapse to one weighted edge
            matrices[r.name] = m
        return HeteroGraph(self.schema, self.ids, matrices, index, source_digest)


def build_graph(schema, nodes, edges):
    """Programmatic construction, checked like ``load_graph`` input.

    Args:
        schema: Schema.
        nodes: iterable of (node_id, node_type).
        edges: iterable of (src_id, dst_id, relation) or (..., weight).

    Node ids and endpoints are converted with ``str``; errors carry no
    file or line.
    """
    ingest = _Ingest(schema)
    for records, add, ids in ((nodes, ingest.add_nodes, 1), (edges, ingest.add_edges, 2)):
        records = iter(records)
        while chunk := list(islice(records, BLOCK_LINES)):
            add(_Block.from_records(chunk, ids))
    return ingest.finish()


def load_schema(path):
    with open(path, encoding="utf-8") as fh:
        return _parse_schema(fh, path)


def _parse_schema(fh, path):
    """The Schema in the text stream ``fh``; errors name ``path``."""
    node_types, relations = [], []
    user_type = item_type = None
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


def _combine(digests):
    """The ``source_digest`` of files whose own sha256 digests are ``digests``."""
    h = hashlib.sha256()
    for digest in digests:
        h.update(digest)
    return h.hexdigest()


def _file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while data := fh.read(1 << 20):
            h.update(data)
    return h.digest()


def source_digest(nodes_path, edges_path, schema_path):
    """sha256 over the sha256 digests of the schema, nodes and edges files.

    The files are streamed, not parsed; the value equals the
    ``source_digest`` of ``load_graph`` on the same files.
    """
    return _combine(map(_file_sha256, (schema_path, nodes_path, edges_path)))


def _read_text(path):
    """(sha256 digest of the bytes of ``path``, a text stream over those bytes).

    The stream decodes and translates newlines exactly like
    ``open(path, encoding="utf-8")``, so the digest covers the very bytes
    that are parsed.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).digest(), io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def load_graph(nodes_path, edges_path, schema_path):
    """Parse and validate the three input files into a HeteroGraph.

    The first bad record in file order raises a GraphFormatError naming
    its ``file:line``.  Each file is read once; the graph's
    ``source_digest`` covers the bytes read.
    """
    digest, text = _read_text(schema_path)
    digests = [digest]
    with text as fh:
        ingest = _Ingest(_parse_schema(fh, schema_path))
    for path, add in ((nodes_path, ingest.add_nodes), (edges_path, ingest.add_edges)):
        digest, text = _read_text(path)
        digests.append(digest)
        with text as fh:
            first_line = 1
            while (block := _Block.read(fh, first_line)) is not None:
                add(block, path)
                first_line += BLOCK_LINES
    return ingest.finish(_combine(digests))


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
