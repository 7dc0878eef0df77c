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

The nodes and edges files are each read whole, as bytes, and cut into
blocks of ``BLOCK_RECORDS`` lines, whose records are parsed as field
offsets into the block's bytes.  A line ends at ``\\n``, ``\\r\\n`` or
``\\r``, like ``open(path, encoding="utf-8")`` reads it.  A block that,
once its line ends are ``\\n``, holds only tabs, newlines and printable
ASCII other than space and ``#``, with no line that is empty or starts
with a tab, is parsed as it is: no line of it is blank or a comment and
no field has whitespace to strip.  Any other block is first normalised
on its own: decoded as UTF-8, rid of blank and ``#`` lines and of the
whitespace around each field, and encoded again, with the line number of
each record kept.  The records are then checked with array masks, the
nodes file's all at once and the edges file's a block at a time.  The
first bad record in file order raises a ``GraphFormatError`` naming its
``file:line``.  An empty node id, node type, edge endpoint or relation
is an error.  So is a byte that is not valid UTF-8, at its place in
file order: it names its line, and the records before it are checked
first.  The schema file is decoded whole, before any other check.

Node ids are decoded to strings; edge endpoints never are.  Each
endpoint is looked up in a hash table of the node ids by a 64-bit key
of its bytes, scrambled with a seed drawn per process, and a node counts
as found only once its bytes equal the endpoint's, so ids of any length
or content resolve exactly.  Node types and relations are looked up the
same way in tables of the declared names, and only the weights of
4-field records are parsed, with ``float``.  Each relation's CSR arrays
use 32-bit indices when its shape allows, and scipy keeps that width
through the products built from them.  ``build_graph`` puts in-memory
records through the same checks.  The dict from every node id to its
type and index is built only when ``HeteroGraph.node_index`` is first
called, or for the message of an edge that fails a check.

``load_graph`` reads each of the three files once.  The graph it
returns carries ``source_digest``: a sha256 over the sha256 digests of
the schema, nodes and edges bytes, in that order.  ``source_digest(...)``
computes the same value from the files without parsing them, so a
caller can tell whether files are byte-identical to the ones a graph was
loaded from.  Files with the same bytes parse to the same graph.
"""

import functools
import hashlib
import io
import math
import os
from dataclasses import dataclass
from itertools import chain, compress, islice

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

    ``_index`` maps every node id to its (type, index).  It is built on
    first use, type by type, since only ``node_index`` reads it.
    """

    schema: Schema
    node_ids: dict
    matrices: dict
    source_digest: str = None

    @functools.cached_property
    def _index(self):
        return _node_index(self.schema.node_types, self.node_ids)

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


def _node_index(node_types, node_ids):
    """A dict from every node id to its (type, index), type by type in
    ``node_types`` order."""
    return {nid: (t, i) for t in node_types for i, nid in enumerate(node_ids[t])}


# Lines of a nodes or edges file cut into one block.  Each block of an
# edges file is checked at once; the blocks of a nodes file are checked
# together, since every edge needs all the ids.  A block that is not plain
# is normalised on its own, so that text, its line list and its copies never
# span more than one block.  A block's arrays take about 100 bytes per
# record, and each block costs a fixed 0.1-0.2 ms.  Loading the 51k-edge
# paths_sparse network took 46 ms in blocks of 2048 lines, 34 ms in blocks
# of 8192 and 36 ms in one block, whose peak traced memory was 2 MB higher
# (one core of a 2-vCPU host).
BLOCK_RECORDS = 8192
# In-memory edge records that build_graph checks at once.  Their Python
# tuples dominate its cost, so larger chunks mostly add memory: with 8192,
# build_graph on the 40k-edge train_dense network ran 10% faster, but the
# benchmark process that builds it peaked 0.5 MB higher.
CHUNK_RECORDS = 2048

# Bytes a block may hold and be parsed as it is: tab, newline and printable
# ASCII except space and ``#``.
_PLAIN_BYTES = b"\t\n" + bytes(b for b in range(0x21, 0x7F) if b != ord("#"))

# _MASK[k] keeps the first k bytes of a little-endian 8-byte word.
_MASK = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# Drawn per process and added before every scramble, so that no set of ids
# chosen in advance shares one key or one home slot.
_SEED = np.uint64(int.from_bytes(os.urandom(8), "little"))


def _scramble(x):
    """splitmix64's finaliser of ``x + _SEED``: a permutation of the 64-bit
    words in which every output bit depends on every input bit."""
    x = x + _SEED
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _words(data):
    """The 8-byte little-endian word at every byte offset of ``data``, read
    past its end as zeros: a view, so no word is copied."""
    return np.ndarray(len(data) + 1, "<u8", data + bytes(8), strides=(1,))


def _heads(words, begin, length):
    """The first 8 bytes of each field, zero-filled, as one 64-bit word."""
    return words[begin] & _MASK[np.minimum(length, 8)]


def _keys(words, begin, length, head):
    """A 64-bit key per field: its first word ``head``, with each later one
    folded in.  Equal bytes give equal keys; unequal bytes may too."""
    key = head.copy()
    at, long = 8, np.flatnonzero(length > 8)
    while long.size:
        word = words[begin[long] + at] & _MASK[np.minimum(length[long] - at, 8)]
        key[long] = _scramble(key[long]) ^ word
        at += 8
        long = long[length[long] > at]
    return key


def _same_tail(words, begin, other_words, other_begin, length):
    """Whether the bytes after the first 8 of each field of ``length``
    bytes at ``begin`` equal those at the matching ``other_begin``."""
    same = np.ones(length.size, bool)
    at, todo = 8, np.flatnonzero(length > 8)
    while todo.size:
        mask = _MASK[np.minimum(length[todo] - at, 8)]
        equal = (words[begin[todo] + at] & mask) == (other_words[other_begin[todo] + at] & mask)
        same[todo[~equal]] = False
        at += 8
        todo = todo[equal & (length[todo] > at)]
    return same


def _home(keys, size):
    """Home slot of each key in a hash table of ``size`` (a power of two)
    slots: the top bits of the scrambled key."""
    return (_scramble(keys) >> np.uint64(65 - size.bit_length())).astype(np.intp)


def _byte_table(words, begin, length):
    """A hash table of the fields of ``length`` bytes at ``begin`` in
    ``words``, for ``_find``.

    Each slot holds the position of a field, or -1.  A field sits at its
    key's home slot or, if that is taken, at the first free slot after it
    (wrapping around); at most a quarter of the slots are used.
    """
    head = _heads(words, begin, length)
    keys = _keys(words, begin, length, head)
    position = np.int32 if keys.size < np.iinfo(np.int32).max else np.intp
    table = np.full(1 << max(1, (4 * keys.size).bit_length()), -1, position)
    slot, pending = _home(keys, table.size), np.arange(keys.size)
    while pending.size:
        free = table[slot] == -1
        table[slot[free]] = pending[free]
        lost = table[slot] != pending
        pending, slot = pending[lost], (slot[lost] + 1) & (table.size - 1)
    # a last entry that matches no field answers the empty slot's -1
    return words, begin, np.append(length, -1), np.append(head, np.uint64(0)), table


def _name_table(names):
    """The ``_byte_table`` of declared names, in their UTF-8 bytes."""
    raw = [name.encode("utf-8", "surrogatepass") for name in names]
    length = np.fromiter(map(len, raw), np.intp, len(raw))
    return _byte_table(_words(b"".join(raw)), np.cumsum(length) - length, length)


def _find(table, records, c):
    """Position in ``table`` of field ``c`` of each record, or -1.

    Each field probes the table from its key's home slot on, and stops at
    the entry whose bytes equal its own or at an empty slot.  An empty
    field matches nothing.
    """
    words, begin, length, head, table = table
    field_begin, field_length = records.column(c)
    field_head = _heads(records.words, field_begin, field_length)
    slot = _home(_keys(records.words, field_begin, field_length, field_head), table.size)
    found = np.full(slot.size, -1, np.intp)
    todo = np.arange(slot.size)
    if not field_length.all():
        todo = np.flatnonzero(field_length)
        slot, field_begin, field_length, field_head = (
            slot[todo], field_begin[todo], field_length[todo], field_head[todo])
    while todo.size:
        entry = table[slot]
        same = (head[entry] == field_head) & (length[entry] == field_length)
        long = np.flatnonzero(same & (field_length > 8))
        if long.size:
            same[long] = _same_tail(records.words, field_begin[long], words,
                                    begin[entry[long]], field_length[long])
        found[todo[same]] = entry[same]
        more = ~same & (entry >= 0)
        todo, slot = todo[more], (slot[more] + 1) & (table.size - 1)
        field_begin, field_length, field_head = (
            field_begin[more], field_length[more], field_head[more])
    return found


def _is_plain(block, ragged):
    """Whether ``block``, whole lines ending in ``\\n``, is plain: it holds
    only plain bytes and, unless ``ragged``, no line of it starts with a
    tab or a newline, so no line is blank or a comment and no field has
    whitespace to strip."""
    return not (ragged or block.translate(None, _PLAIN_BYTES))


def _decode(data, path, first=0):
    """``data``, whose first line is line ``first + 1`` of file ``path``,
    decoded as UTF-8.  A byte that is not valid UTF-8 raises a
    GraphFormatError naming its line; lines end at ``\\n``, ``\\r\\n`` or
    ``\\r``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = first + 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise GraphFormatError(
            f"not valid UTF-8 ({exc.reason} 0x{data[exc.start]:02x})", path, line
        ) from None


def _normalise(block, first, path):
    """(records, line of each) for a block of whole lines, each ending in
    ``\\n``, whose first line is line ``first + 1`` of file ``path``.

    ``block`` is decoded as UTF-8 and split into lines.  Blank lines and
    those whose first character that is not whitespace is ``#`` are
    dropped; every field of the rest is stripped.  The records are encoded
    again, one per line.
    """
    text = _decode(block, path, first)
    records, lines = [], []
    for number, line in enumerate(text.split("\n"), start=first + 1):
        head = line.lstrip()
        if head and not head.startswith("#"):
            records.append("\t".join([f.strip() for f in line.split("\t")]) + "\n")
            lines.append(number)
    return "".join(records).encode(), np.array(lines, np.intp)


def _file_blocks(data, size, path):
    """(records, line of each) of the bytes of file ``path``, ``size``
    lines at a time in file order.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r``, like
    ``open(path, encoding="utf-8")`` reads it, so a block never splits a
    character or a line end.  Each block has its line ends turned into
    ``\\n``, one added after a last line that has none.  A plain block is
    then yielded as it is and any other is normalised; a block left with
    no record is skipped.  A block with a byte that is not valid UTF-8
    yields its lines before that byte's line, then raises the
    GraphFormatError naming that line.
    """
    codes = np.frombuffer(data, np.uint8)
    # a megabyte at a time, so that each array of one bool per byte is small
    ends = np.concatenate([np.flatnonzero(codes[a:a + (1 << 20)] == 10) + a
                           for a in range(0, codes.size, 1 << 20)] or [np.empty(0, np.intp)])
    cr = b"\r" in data
    if cr and data.count(b"\r") > data.count(b"\r\n"):  # a \r that no \n follows
        at = np.flatnonzero(codes == 13)
        lone = at[codes[np.minimum(at + 1, codes.size - 1)] != 10]
        ends = np.sort(np.concatenate([ends, lone]))
        del at, lone
    cuts = [0] + (ends[size - 1::size] + 1).tolist()  # byte offsets between blocks
    # blocks with a line that starts with a tab, \n or \r, and so may be blank
    first = np.append(codes[:1], codes[ends[ends < codes.size - 1] + 1])  # byte of each line
    ragged = set((np.flatnonzero(first < 14) // size).tolist())
    del codes, ends, first
    if cuts[-1] < len(data):
        cuts.append(len(data))
    for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
        block = data[a:b]
        if cr:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not block.endswith(b"\n"):
            block += b"\n"
        if _is_plain(block, k in ragged):
            count = size if b < len(data) else block.count(b"\n")  # the last may be short
            lines = np.arange(k * size + 1, k * size + count + 1)
        else:
            try:
                block, lines = _normalise(block, k * size, path)
            except GraphFormatError as exc:  # not UTF-8: the lines before it come first
                good = exc.line - k * size - 1  # whole lines of the block before the bad one
                ends = np.flatnonzero(np.frombuffer(block, np.uint8) == 10)
                block, lines = _normalise(block[:ends[good - 1] + 1 if good else 0], k * size, path)
                if lines.size:
                    yield block, lines
                raise
        if lines.size:
            yield block, lines


def _split(data):
    """(begin, length) of each field and field count of each record, for
    records that end in a newline and fields that hold no tab or newline."""
    codes = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(codes < 11)
    kind = codes[ends]
    if kind.size and kind.min() < 9:  # bytes 0-8, left inside normalised fields
        ends, kind = ends[kind >= 9], kind[kind >= 9]
    begin = np.zeros_like(ends)
    np.add(ends[:-1], 1, out=begin[1:])
    last = np.flatnonzero(kind == 10)
    count = last + 1
    np.subtract(last[1:], last[:-1], out=count[1:])
    return begin, ends - begin, count


class _Records:
    """Tab-separated records as field offsets into one byte string.

    Field ``f`` is the ``length[f]`` bytes from ``begin[f]`` on, and
    record ``r`` holds the ``count[r]`` fields from ``first[r]`` on; an
    empty field follows the last.  ``lines`` gives each record's line in
    its file.  Records built in memory keep their tuples in ``records``,
    whose first ``id_fields`` fields are node ids, and have no line.
    """

    def __init__(self, data, begin, length, count, lines=None, records=None,
                 id_fields=0):
        self.data = data
        self.words = _words(data)
        self.begin, self.length = np.append(begin, len(data)), np.append(length, 0)
        self.count = count
        self.first = np.cumsum(count) - count
        self.width = int(count[0]) if count.size and (count == count[0]).all() else 0
        self.lines = lines
        self.records = records
        self.id_fields = id_fields

    @classmethod
    def parse(cls, data, lines):
        """Records from file bytes: whole lines, each ending in a newline,
        that are plain or normalised; ``lines`` gives the line of each."""
        return cls(data, *_split(data), lines=lines)

    @classmethod
    def from_records(cls, records, id_fields):
        """Records from a list of in-memory tuples whose first ``id_fields``
        fields are node ids.  Every field is converted with ``str`` into the
        byte string; ``records`` keeps the tuples as given."""
        count = np.fromiter(map(len, records), np.intp, len(records))
        fields = list(map(str, chain.from_iterable(records)))
        text = "".join(fields)
        if text.isascii():  # one byte per character
            data, encoded = text.encode("ascii"), fields
        else:
            encoded = [f.encode("utf-8", "surrogatepass") for f in fields]
            data = b"".join(encoded)
        length = np.fromiter(map(len, encoded), np.intp, len(fields))
        return cls(data, np.cumsum(length) - length, length, count, records=records,
                   id_fields=id_fields)

    def column(self, c, rows=None):
        """(begin, length) of field ``c`` of every record, or of the records
        in ``rows``.  A record with ``c`` or fewer fields gets another one's."""
        if rows is None and c < self.width:
            return self.begin[c:-1:self.width], self.length[c:-1:self.width]
        at = self.first if rows is None else self.first[rows]
        at = np.minimum(at + c, self.begin.size - 1)
        return self.begin[at], self.length[at]

    def values(self, c, rows=None):
        """Field ``c`` of every record, or of the records in ``rows``, as
        Python values: each tuple's own for in-memory records, else the
        field decoded."""
        if self.records is not None:
            rows = range(len(self.records)) if rows is None else rows.tolist()
            records = map(self.records.__getitem__, rows)
            if c < self.id_fields:
                return [str(r[c]) if len(r) > c else "" for r in records]
            return [r[c] for r in records]
        if rows is None and c < self.width:  # one decode for the whole column
            return self.data.decode().replace("\n", "\t").split("\t")[c:-1:self.width]
        begin, length = self.column(c, rows)
        data = self.data
        return [data[b:e].decode() for b, e in zip(begin.tolist(), (begin + length).tolist())]

    def fields(self, r):
        """All fields of record ``r``."""
        if self.records is not None:
            record = self.records[r]
            return [str(f) for f in record[:self.id_fields]] + list(record[self.id_fields:])
        at = slice(int(self.first[r]), int(self.first[r] + self.count[r]))
        return [self.data[b:b + n].decode()
                for b, n in zip(self.begin[at].tolist(), self.length[at].tolist())]

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
    Node ids, node types and relations are each found through a
    ``_byte_table``; an empty field matches none of them.  When a check
    fails, ``_record_error`` re-checks the first failing record alone and
    builds the error that names it.
    """

    def __init__(self, schema):
        self.schema = schema
        # a trailing -2 answers code -1 (unknown), so masks need no guards
        types = schema.node_types
        self._rel_source = np.array(
            [types.index(r.source) for r in schema.relations] + [-2], np.intp
        )
        self._rel_target = np.array(
            [types.index(r.target) for r in schema.relations] + [-2], np.intp
        )
        self._types = _name_table(types)
        self._relations = _name_table([r.name for r in schema.relations])
        # per relation: (source index, target index, weight) arrays, in file order
        self._edges = [[(np.empty(0, np.int32),) * 2 + (np.empty(0),)]
                       for _ in schema.relations]

    def add_nodes(self, records, path=None):
        n = records.count.size
        ids = records.values(0)
        codes = _find(self._types, records, 1)
        types = self.schema.node_types
        self.ids, local = {}, np.empty(n, np.int32 if n <= np.iinfo(np.int32).max else np.intp)
        for k, t in enumerate(types):
            mask = codes == k
            local[mask] = np.arange(np.count_nonzero(mask))
            self.ids[t] = list(compress(ids, mask.tolist()))
        begin, length = records.column(0)
        bad = (records.count != 2) | (codes < 0) | (length == 0)
        if len(set(ids)) < n:  # an id repeated
            first = dict(zip(reversed(ids), range(n - 1, -1, -1)))
            bad |= np.fromiter(map(first.__getitem__, ids), np.intp, n) != np.arange(n)
        if bad.any():
            r = int(bad.argmax())
            raise self._record_error("node", records.fields(r), path, records.line(r),
                                     set(ids[:r]))
        self._node_type = np.append(codes, -1)  # the -1 answers node -1 (unknown)
        self._node_local = local
        self._nodes = _byte_table(records.words, begin, length)

    def add_edges(self, records, path=None):
        n = records.count.size
        bad = (records.count < 3) | (records.count > 4)
        weights = np.ones(n)
        four = np.flatnonzero(records.count == 4)
        text = records.values(3, four)
        try:
            weights[four] = np.fromiter(map(float, text), np.float64, four.size)
        except (TypeError, ValueError):  # unparseable weights read as NaN and fail below
            weights[four] = np.fromiter(map(_float_or_nan, text), np.float64, four.size)
        codes = _find(self._relations, records, 2)
        s, d = _find(self._nodes, records, 0), _find(self._nodes, records, 1)
        bad |= (codes < 0) | (s < 0) | (d < 0)
        bad |= self._node_type[s] != self._rel_source[codes]
        bad |= self._node_type[d] != self._rel_target[codes]
        bad |= ~(np.isfinite(weights) & (weights >= 0))
        if bad.any():
            r = int(bad.argmax())
            known = _node_index(self.schema.node_types, self.ids)
            raise self._record_error("edge", records.fields(r), path, records.line(r), known)
        for k, parts in enumerate(self._edges):
            sel = codes == k
            parts.append((self._node_local[s[sel]], self._node_local[d[sel]], weights[sel]))

    def _record_error(self, kind, fields, path, line, known):
        """The GraphFormatError for one record's first failing check.

        ``known`` holds the node ids valid so far: for a node record, those
        of the records before it; for an edge record, the graph's index.
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
            if node_type not in self.schema.node_types:
                return error(f"node {node_id!r} has undeclared type {node_type!r}")
            if node_id in known:
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
            names = [r.name for r in self.schema.relations]
            if relation not in names:
                return error(f"unknown relation {relation!r}")
            rel = self.schema.relations[names.index(relation)]
            for nid, want, role in ((src, rel.source, "source"),
                                    (dst, rel.target, "target")):
                if nid not in known:
                    return error(f"edge references unknown node id {nid!r}")
                got = known[nid][0]
                if got != want:
                    return error(
                        f"edge {src!r} -> {dst!r} via {relation!r}: {role} node "
                        f"{nid!r} has type {got!r}, expected {want!r}"
                    )
            if not math.isfinite(weight) or weight < 0:
                return error(f"edge {src!r} -> {dst!r} has invalid weight {weight!r}")
        raise RuntimeError(f"{kind} record {fields!r} failed a mask but no check")

    def finish(self, source_digest=None):
        matrices = {}
        for r, parts in zip(self.schema.relations, self._edges):
            rows, cols, vals = map(np.concatenate, zip(*parts))
            parts.clear()
            shape = (len(self.ids[r.source]), len(self.ids[r.target]))
            # scipy keeps 32-bit indices through every product built from these
            index = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
            m = sp.coo_array((vals, (rows.astype(index, copy=False),
                                     cols.astype(index, copy=False))), shape=shape).tocsr()
            m.sum_duplicates()  # parallel edges collapse to one weighted edge
            matrices[r.name] = m
        return HeteroGraph(self.schema, self.ids, matrices, source_digest)


def build_graph(schema, nodes, edges):
    """Programmatic construction, checked like ``load_graph`` input.

    Args:
        schema: Schema.
        nodes: iterable of (node_id, node_type).
        edges: iterable of (src_id, dst_id, relation) or (..., weight).

    Node ids, node types, endpoints and relations are converted with
    ``str``; a weight is parsed with ``float``.  Errors carry no file or
    line.
    """
    ingest = _Ingest(schema)
    ingest.add_nodes(_Records.from_records(list(nodes), 1))
    edges = iter(edges)
    while chunk := list(islice(edges, CHUNK_RECORDS)):
        ingest.add_edges(_Records.from_records(chunk, 2))
    return ingest.finish()


def load_schema(path):
    with open(path, "rb") as fh:
        return _parse_schema(fh.read(), path)


def _parse_schema(data, path):
    """The Schema in the bytes ``data`` of file ``path``; errors name ``path``.

    The bytes are decoded as UTF-8 and split into lines like
    ``open(path, encoding="utf-8")`` reads them.
    """
    node_types, relations = [], []
    user_type = item_type = None
    lines = io.StringIO(_decode(data, path), newline=None)
    for lineno, raw in enumerate(lines, start=1):
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
    """sha256 digest of the bytes of ``path``, read into one reused buffer.

    Reading each megabyte into a new bytes object costs a fresh mapping
    and its page faults every time: streaming the 1 MB edges file of the
    51k-edge benchmark network that way took 1.6 ms against 1.0 ms.
    """
    h = hashlib.sha256()
    buffer = bytearray(1 << 18)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            h.update(view[:size])
    return h.digest()


def source_digest(nodes_path, edges_path, schema_path):
    """sha256 over the sha256 digests of the schema, nodes and edges files.

    The files are streamed, not parsed; the value equals the
    ``source_digest`` of ``load_graph`` on the same files.
    """
    return _combine(map(_file_sha256, (schema_path, nodes_path, edges_path)))


def _read(path):
    """(sha256 digest of the bytes of ``path``, those bytes)."""
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).digest(), data


def load_graph(nodes_path, edges_path, schema_path):
    """Parse and validate the three input files into a HeteroGraph.

    The first bad record in file order raises a GraphFormatError naming
    its ``file:line``.  Each file is read once; the graph's
    ``source_digest`` covers the bytes read.
    """
    digest, data = _read(schema_path)
    digests = [digest]
    ingest = _Ingest(_parse_schema(data, schema_path))
    digest, data = _read(nodes_path)
    digests.append(digest)
    blocks, bad_byte = [], None  # checked at once: edges need every id
    try:
        for block in _file_blocks(data, BLOCK_RECORDS, nodes_path):
            blocks.append(block)
    except GraphFormatError as exc:  # not UTF-8: the records before it are checked first
        bad_byte = exc
    del data
    lines = np.concatenate([lines for _, lines in blocks] or [np.empty(0, np.intp)])
    ingest.add_nodes(_Records.parse(b"".join([block for block, _ in blocks]), lines),
                     nodes_path)
    del blocks, lines
    if bad_byte is not None:
        raise bad_byte
    digest, data = _read(edges_path)
    digests.append(digest)
    for block, lines in _file_blocks(data, BLOCK_RECORDS, edges_path):
        ingest.add_edges(_Records.parse(block, lines), edges_path)
    del data
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
    Each relation is hashed from the arrays of its canonical CSR form
    (duplicates summed, indices sorted, little-endian int64/float64, so
    32-bit and 64-bit indices hash alike), made on a copy when the matrix
    is not canonical, so the hash ignores edge order and never modifies
    ``graph.matrices``.
    """
    h = hashlib.sha256()
    h.update(repr(graph.schema).encode())
    for t in graph.schema.node_types:
        ids = graph.node_ids[t]
        h.update(f"n\t{t}\t{len(ids)}\n".encode())
        h.update(np.fromiter(map(len, ids), dtype="<i8", count=len(ids)).tobytes())
        h.update("".join(ids).encode())
    for r in graph.schema.relations:
        m = sp.csr_array(graph.matrices[r.name])
        if not m.has_canonical_format:
            m = sp.csr_array(m, copy=True)
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


def derive_ratings(graph, target_path):
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
    return RatingMatrix.from_sparse(metapath.pathsim(pc).matrix)
