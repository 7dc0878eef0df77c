"""Meta-path algebra: path counts via sparse chain products and PathSim.

Textual path grammar (whitespace-separated tokens):

    <Type0> <arrow> <Type1> <arrow> ... <TypeK>

where an arrow is either ``-rel->`` (follow relation ``rel`` forward) or
``<-rel-`` (follow it against its declared direction).  Example::

    Author -writes-> Paper <-writes- Author

A path-set file groups one path per line under ``UU:`` (user-user),
``II:`` (item-item) or ``UI:`` (user-item) prefixes.

Similarity matrices are recomputed on every call.  That is not because
it is cheaper than reading a stored copy: on the ``paths_sparse``
benchmark network, counting and normalizing the Author-Paper-Term-
Paper-Author path takes several times as long as ``np.load`` of its
arrays (about 32 ms against 4 ms on one core of a 2-vCPU host).  There
is no on-disk cache so that no stored copy can go stale: an earlier
cache was removed together with the invalidation it needed and its
``cache_dir`` setting.

A palindromic path H H^-1 is counted from its first half H alone, as
M M^T (the commuting matrix of PathSim), which comes out exactly
symmetric and with sorted indices, so PathSim needs no re-sort.  Its
PathSim reads the row sums as the column sums, so the similarity is
exactly symmetric too and is marked so.  ``build_relation_set`` checks
every other user-user and item-item similarity against its transpose
once and averages only those that differ.

One path's chain, :func:`similarity`, depends on the graph alone, reads
``graph.matrices`` without writing them, makes no BLAS call and logs
nothing, so the CLI runs the chains of different paths on two threads,
costliest first by :func:`instance_count`.  :func:`inert` only tests a
similarity; :func:`warn_inert` logs.
"""

import io
import logging
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import GraphFormatError, _decode, adjacency

_FORWARD = re.compile(r"-([A-Za-z_]\w*)->")
_BACKWARD = re.compile(r"<-([A-Za-z_]\w*)-")
_TYPE = re.compile(r"[A-Za-z_]\w*")

GROUPS = ("UU", "II", "UI")

log = logging.getLogger(__name__)


class PathError(ValueError):
    """Malformed or schema-incompatible meta-path."""


@dataclass(frozen=True)
class Step:
    """One hop: a relation name and whether it is followed forward."""

    relation: str
    forward: bool = True


@dataclass(frozen=True)
class MetaPath:
    """Ordered relation steps with the node-type sequence they traverse."""

    steps: tuple
    node_types: tuple

    def __post_init__(self):
        if not self.steps:
            raise PathError("meta-path needs at least one step")
        if len(self.node_types) != len(self.steps) + 1:
            raise PathError("node_types must have one more entry than steps")

    @property
    def source_type(self):
        return self.node_types[0]

    @property
    def target_type(self):
        return self.node_types[-1]

    @property
    def is_palindromic(self):
        """True when the path equals its own reverse, step for step."""
        return self == reverse(self)

    def to_string(self):
        parts = [self.node_types[0]]
        for step, t in zip(self.steps, self.node_types[1:]):
            arrow = f"-{step.relation}->" if step.forward else f"<-{step.relation}-"
            parts.append(arrow)
            parts.append(t)
        return " ".join(parts)

    def __str__(self):
        return self.to_string()


def make_path(schema, steps):
    """Build a MetaPath from (relation, forward) pairs, deriving node types."""
    built = []
    types = None
    for rel_name, forward in steps:
        rel = schema.relation(rel_name)
        src, dst = (rel.source, rel.target) if forward else (rel.target, rel.source)
        if types is None:
            types = [src]
        elif types[-1] != src:
            raise PathError(
                f"step {rel_name!r} starts at {src!r} but path is at {types[-1]!r}"
            )
        types.append(dst)
        built.append(Step(rel_name, bool(forward)))
    return MetaPath(tuple(built), tuple(types))


def parse_path(text, schema):
    """Parse the textual path grammar and validate it against the schema."""
    tokens = text.split()
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        raise PathError(f"malformed path {text!r}: expected 'Type arrow Type ...'")
    types = tokens[0::2]
    arrows = tokens[1::2]
    steps = []
    for tok in arrows:
        m = _FORWARD.fullmatch(tok)
        if m:
            steps.append((m.group(1), True))
            continue
        m = _BACKWARD.fullmatch(tok)
        if m:
            steps.append((m.group(1), False))
            continue
        raise PathError(f"malformed arrow {tok!r} in path {text!r}")
    for t in types:
        if not _TYPE.fullmatch(t):
            raise PathError(f"malformed type token {t!r} in path {text!r}")
        if t not in schema.node_types:
            raise PathError(f"undeclared node type {t!r} in path {text!r}")
    path = MetaPath(tuple(Step(*step) for step in steps), tuple(types))
    validate_path(path, schema)
    return path


def reverse(path):
    """The reverse meta-path: steps in opposite order, each direction flipped."""
    steps = tuple(Step(s.relation, not s.forward) for s in reversed(path.steps))
    return MetaPath(steps, tuple(reversed(path.node_types)))


@dataclass
class PathCountMatrix:
    """Weighted path-instance counts between source-type and target-type nodes.

    ``symmetric`` is True when the counts are exactly symmetric by
    construction, as ``path_count`` builds those of a palindromic path.
    """

    path: MetaPath
    matrix: sp.csr_array
    symmetric: bool = False

    @property
    def source_type(self):
        return self.path.source_type

    @property
    def target_type(self):
        return self.path.target_type


@dataclass
class SimilarityMatrix:
    """PathSim-normalized path counts; values lie in [0, 1].

    ``symmetric`` is True only when ``matrix`` equals its own transpose
    array for array: built so from symmetric counts by ``pathsim``, or
    checked so by ``build_relation_set``.  The relation set that ``train``
    and ``evaluate`` hand to training holds no ``matrix`` (None) for a
    user-user or item-item path: training reads only its path and its
    Laplacian.
    """

    path: MetaPath
    variant: str
    matrix: sp.csr_array
    symmetric: bool = False


def validate_path(path, schema):
    """Check every step against the schema's relation declarations."""
    walked = make_path(schema, [(step.relation, step.forward) for step in path.steps])
    if walked.node_types != path.node_types:
        raise PathError(
            f"path {path} writes types {path.node_types} but its relations "
            f"traverse {walked.node_types}"
        )


def path_count(graph, path):
    """Ordered product of per-step adjacency matrices.

    Counts every path instance, revisiting nodes freely; with unit edge
    weights the entries are exact instance counts.  The result shares no
    buffer with ``graph.matrices``.

    A palindromic path P = H H^-1 (see ``MetaPath.is_palindromic``; its
    step count is even) multiplies only its first half H into M and
    returns M M^T, the commuting matrix.  With M's indices sorted, entries
    (s, t) and (t, s) sum the same products in the same order, so the
    counts are exactly symmetric, and the CSC arrays of M M^T are the CSR
    arrays of its transpose, that is, of itself, with sorted indices.
    Such counts are marked ``symmetric``.
    """
    validate_path(path, graph.schema)
    palindromic = path.is_palindromic
    steps = path.steps[:len(path.steps) // 2] if palindromic else path.steps
    product = None
    for step in steps:
        m = adjacency(graph, step.relation, transposed=not step.forward)
        product = m if product is None else product @ m
    if palindromic:
        # a copy, so that sort_indices never rewrites graph.matrices
        half = sp.csr_array(product, copy=True)
        half.sort_indices()
        product = (half @ half.T).tocsc().T
    else:
        # a one-step forward product is the graph's own adjacency: copy it,
        # so that eliminate_zeros never rewrites graph.matrices
        product = sp.csr_array(product, copy=len(steps) == 1)
    product.eliminate_zeros()
    return PathCountMatrix(path, product, symmetric=palindromic)


def pathsim(pc, variant="rowcol"):
    """Normalize path counts to [0, 1] similarities.

    ``rowcol`` (default): sim(s, t) = 2*PC(s, t) / (rowsum(s) + colsum(t)),
    i.e. paths from s plus paths into t.  ``diagonal``: the classic
    2*PC(s, t) / (PC(s, s) + PC(t, t)), defined only for palindromic paths.
    A zero denominator yields similarity 0.

    For counts marked ``symmetric`` the row sums serve as the column sums,
    so S(s, t) and S(t, s) are computed from the same operands and S is
    returned marked ``symmetric``.
    """
    if variant not in ("rowcol", "diagonal"):
        raise PathError(f"unknown PathSim variant {variant!r}")
    counts = pc.matrix
    if not counts.has_sorted_indices:  # sort a copy; pc.matrix is untouched
        counts = sp.csr_array(counts, copy=True)
        counts.sort_indices()
    per_row = np.diff(counts.indptr)
    if variant == "diagonal":
        if not pc.path.is_palindromic:
            raise PathError(
                f"diagonal variant needs a palindromic path, got "
                f"{pc.path.to_string()!r}"
            )
        by_row = by_col = pc.matrix.diagonal()
    else:
        by_row = np.asarray(pc.matrix.sum(axis=1)).ravel()
        by_col = by_row if pc.symmetric else np.asarray(pc.matrix.sum(axis=0)).ravel()
    denom = np.repeat(by_row, per_row)
    denom += by_col[counts.indices]
    positive = denom > 0
    data = counts.data * 2.0
    np.divide(data, denom, out=data, where=positive)
    data[~positive] = 0.0
    del denom, positive  # freed before the index arrays are copied
    out = sp.csr_array(
        (data, counts.indices.copy(), counts.indptr.copy()), shape=counts.shape
    )
    out.eliminate_zeros()
    return SimilarityMatrix(pc.path, variant, out, symmetric=pc.symmetric)


class PathSpecError(GraphFormatError):
    """Malformed meta-path set file, annotated with file and line."""


@dataclass
class PathGroups:
    """Meta-paths grouped by role: user-user, item-item, user-item."""

    user_user: list
    item_item: list
    user_item: list

    @property
    def counts(self):
        return (len(self.user_user), len(self.item_item), len(self.user_item))


def parse_path_spec(text, schema, source=None):
    """Parse a path-set file body into PathGroups (see module docstring),
    split into lines as ``open(path, encoding="utf-8")`` reads them."""
    groups = {g: [] for g in GROUPS}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        head = head.strip()
        if not sep or head not in GROUPS:
            raise PathSpecError(
                f"expected 'UU:|II:|UI: <path>', got {line!r}", source, lineno
            )
        try:
            path = parse_path(rest.strip(), schema)
        except PathError as exc:
            raise PathSpecError(str(exc), source, lineno) from exc
        u, i = schema.user_type, schema.item_type
        want = {"UU": (u, u), "II": (i, i), "UI": (u, i)}[head]
        got = (path.source_type, path.target_type)
        if got != want:
            raise PathSpecError(
                f"{head} path must run {want[0]!r} -> {want[1]!r}, got "
                f"{got[0]!r} -> {got[1]!r}",
                source,
                lineno,
            )
        groups[head].append(path)
    return PathGroups(groups["UU"], groups["II"], groups["UI"])


def load_path_spec(path, schema):
    """The PathGroups of file ``path``; a byte that is not valid UTF-8
    raises a GraphFormatError naming its line."""
    with open(path, "rb") as fh:
        return parse_path_spec(_decode(fh.read(), path), schema, source=path)


@dataclass
class RelationSet:
    """Similarity matrices per group, the model-side view of the meta-paths."""

    user_user: list
    item_item: list
    user_item: list

    @property
    def counts(self):
        return (len(self.user_user), len(self.item_item), len(self.user_item))


def _symmetric(sim):
    """``sim`` made exactly symmetric, with the check done once.

    A ``sim`` already marked ``symmetric`` is returned as it is.  Otherwise
    S is kept, and marked, when its transpose has the very same CSR
    arrays, and becomes (S + S^T)/2 when it does not.
    """
    if sim.symmetric:
        return sim
    S = sim.matrix
    T = S.T.tocsr()
    if all(np.array_equal(a, b) for a, b in
           ((S.indptr, T.indptr), (S.indices, T.indices), (S.data, T.data))):
        return SimilarityMatrix(sim.path, sim.variant, S, symmetric=True)
    return SimilarityMatrix(sim.path, sim.variant, sp.csr_array((S + T) * 0.5))


def inert(sim):
    """Whether a similarity has no off-diagonal entry: its Laplacian is zero.

    ``sim.matrix`` is canonical (no duplicate entries), so it stores at
    most one diagonal entry per row, and an inert S has nnz <= n.  A larger
    S is not inert, and the check allocates O(n) either way.
    """
    S = sim.matrix
    n = S.shape[0]
    if S.nnz > n:
        return False
    rows = np.repeat(np.arange(n), np.diff(S.indptr))
    return bool(np.array_equal(S.indices, rows))


def warn_inert(group, path):
    """Log that the ``group`` path ``path`` is inert (see :func:`inert`)."""
    log.warning(
        "%s path %s is inert: its similarity has no entries off the "
        "diagonal, so its Laplacian is zero", group, path,
    )


def declared(groups):
    """(group, path) of every path of ``groups``: UU, then II, then UI,
    each in file order."""
    return [
        (group, path)
        for group, paths in zip(GROUPS, (groups.user_user, groups.item_item, groups.user_item))
        for path in paths
    ]


def instance_count(graph, path):
    """The instances of ``path`` in ``graph``, weighted by the product of
    their edge weights: the sum 1^T A_1 ... A_k 1 of its counts, from
    sparse products of ``graph.matrices`` with a vector, without a
    transposed copy.  It estimates the cost of the path's chain."""
    x = np.ones(graph.node_count(path.target_type))
    for step in reversed(path.steps):
        m = graph.matrices[step.relation]
        x = m @ x if step.forward else m.T @ x
    return float(x.sum())


def similarity(graph, group, path):
    """(counts, similarity) of the ``group`` path ``path``: its
    ``path_count``, and its ``pathsim`` made exactly symmetric (see
    :func:`build_relation_set`) when ``group`` is UU or II."""
    counts = path_count(graph, path)
    sim = pathsim(counts)
    return counts, sim if group == "UI" else _symmetric(sim)


def build_relation_set(graph, groups):
    """Compute the similarity matrix of every declared path.

    User-user and item-item matrices are made exactly symmetric for the
    graph regularizer.  A palindromic path's S is symmetric by
    construction and already marked so.  Every other one is transposed
    once: when the transpose has the same CSR arrays, S is kept and
    marked ``symmetric``; otherwise S becomes (S + S^T)/2.  ``laplacian``
    skips its own check for a marked S.  A
    user-user or item-item path whose similarity has no entries off the
    diagonal is logged as inert: its Laplacian is all zero.
    """
    out = {group: [] for group in GROUPS}
    for group, path in declared(groups):
        _, sim = similarity(graph, group, path)
        if group != "UI" and inert(sim):
            warn_inert(group, path)
        out[group].append(sim)
    return RelationSet(out["UU"], out["II"], out["UI"])
