"""Independent reference implementations used to validate the library.

Everything here is deliberately naive: explicit DFS enumeration instead
of matrix products, double loops instead of traces, and a standalone
plain logistic-MF trainer.  None of it shares code with the package
beyond data-structure access.
"""

import hashlib
import io
import math
from collections import defaultdict

import numpy as np
import scipy.sparse as sp
from scipy.special import expit


def dfs_path_count(graph, path):
    """Enumerate every path instance by depth-first search.

    Returns a dense (count(source_type), count(target_type)) array whose
    entries are sums over instances of the product of edge weights.
    """
    fwd, bwd = {}, {}
    for rel in graph.schema.relations:
        coo = graph.matrices[rel.name].tocoo()
        f, b = defaultdict(list), defaultdict(list)
        for r, c, w in zip(coo.row, coo.col, coo.data):
            f[int(r)].append((int(c), float(w)))
            b[int(c)].append((int(r), float(w)))
        fwd[rel.name], bwd[rel.name] = f, b

    ns = graph.node_count(path.source_type)
    nt = graph.node_count(path.target_type)
    out = np.zeros((ns, nt))
    steps = path.steps

    def walk(start, node, step_idx, acc):
        if step_idx == len(steps):
            out[start, node] += acc
            return
        step = steps[step_idx]
        adj = fwd[step.relation] if step.forward else bwd[step.relation]
        for nxt, w in adj.get(node, ()):
            walk(start, nxt, step_idx + 1, acc * w)

    for s in range(ns):
        walk(s, s, 0, 1.0)
    return out


def naive_pathsim(counts, variant="rowcol"):
    """Entrywise PathSim from a dense path-count matrix."""
    counts = np.asarray(counts, dtype=float)
    ns, nt = counts.shape
    rowsum = counts.sum(axis=1)
    colsum = counts.sum(axis=0)
    out = np.zeros_like(counts)
    for s in range(ns):
        for t in range(nt):
            if variant == "rowcol":
                denom = rowsum[s] + colsum[t]
            else:
                denom = counts[s, s] + counts[t, t]
            out[s, t] = 2.0 * counts[s, t] / denom if denom > 0 else 0.0
    return out


def reference_count(graph, path):
    """The path's counts by the plain route: the full chain product of its
    adjacency matrices, copied, zeros dropped, indices sorted."""
    product = None
    for step in path.steps:
        m = graph.matrices[step.relation]
        m = m if step.forward else m.T.tocsr()
        product = m if product is None else product @ m
    out = sp.csr_array(product, copy=True)
    out.eliminate_zeros()
    out.sort_indices()
    return out


def reference_pathsim(counts, variant="rowcol"):
    """PathSim of sorted CSR counts, entry by entry over the stored entries."""
    rows = np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr))
    cols = counts.indices
    if variant == "diagonal":
        diag = counts.diagonal()
        denom = diag[rows] + diag[cols]
    else:
        denom = (np.asarray(counts.sum(axis=1)).ravel()[rows]
                 + np.asarray(counts.sum(axis=0)).ravel()[cols])
    data = np.zeros(counts.nnz)
    positive = denom > 0
    data[positive] = 2.0 * counts.data[positive] / denom[positive]
    out = sp.csr_array((data, cols.copy(), counts.indptr.copy()), shape=counts.shape)
    out.eliminate_zeros()
    return out


def reference_relation_set(graph, groups):
    """Similarity matrices per group (UU, II, UI) by the plain route: every
    user-user and item-item matrix is averaged with its transpose."""
    out = []
    for name in ("user_user", "item_item", "user_item"):
        mats = [reference_pathsim(reference_count(graph, p))
                for p in getattr(groups, name)]
        if name != "user_item":
            mats = [sp.csr_array((S + S.T) * 0.5) for S in mats]
        out.append(mats)
    return out


def reference_laplacian(S, tol=1e-9):
    """D - S after checking that S equals its transpose within ``tol``."""
    gap = (S - S.T).toarray()
    assert np.abs(gap).max(initial=0.0) <= tol, "asymmetric similarity"
    deg = np.asarray(S.sum(axis=1)).ravel()
    return sp.csr_array(sp.diags_array(deg, format="csr") - S)


def reference_ingest(node_types, relations, files):
    """Parse nodes and edges files one line at a time, as a text stream.

    ``node_types`` are the declared type names, ``relations`` the declared
    (name, source, target) triples, and ``files`` maps ``"schema"``,
    ``"nodes"`` and ``"edges"`` to (path, bytes).  Lines end at \\n,
    \\r\\n or \\r; blank and ``#`` lines are skipped and every field is
    stripped.  Records are checked in file order, each check in a fixed
    order, and the first failure is returned as ``(message, line)`` with
    the message prefixed by ``path:line:``.  Otherwise the result is
    ``(ids, index, arrays, digest)``: ids per type in file order, the
    (id, (type, index)) pairs in file order, per relation the row-sorted
    CSR (indptr, indices, data) with parallel edges summed in file order,
    and the sha256 over the sha256 digests of the schema, nodes and edges
    bytes.
    """
    ids = {t: [] for t in node_types}
    index = {}
    kinds = {name: (source, target) for name, source, target in relations}
    sums = {name: {} for name, _, _ in relations}

    def records(kind):
        path, data = files[kind]
        for line_no, line in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
                                       start=1):
            if line.isspace() or line.lstrip().startswith("#"):
                continue
            yield path, line_no, [f.strip() for f in line.split("\t")]

    def node_problem(fields):
        if len(fields) != 2:
            return f"expected '<node_id>\\t<node_type>', got {len(fields)} fields"
        node_id, node_type = fields
        if node_id == "":
            return "empty node id"
        if node_type == "":
            return "empty node type"
        if node_type not in node_types:
            return f"node {node_id!r} has undeclared type {node_type!r}"
        if node_id in index:
            return f"duplicate node id {node_id!r}"
        index[node_id] = (node_type, len(ids[node_type]))
        ids[node_type].append(node_id)
        return None

    def edge_problem(fields):
        if len(fields) not in (3, 4):
            return (f"expected '<src>\\t<dst>\\t<relation>[\\t<weight>]', got "
                    f"{len(fields)} fields")
        src, dst, name = fields[:3]
        for value, what in ((src, "source id"), (dst, "target id"), (name, "relation")):
            if value == "":
                return f"empty {what}"
        weight = 1.0
        if len(fields) == 4:
            try:
                weight = float(fields[3])
            except ValueError:
                return f"unparseable weight {fields[3]!r}"
        if name not in kinds:
            return f"unknown relation {name!r}"
        for node_id, want, role in zip((src, dst), kinds[name], ("source", "target")):
            if node_id not in index:
                return f"edge references unknown node id {node_id!r}"
            got = index[node_id][0]
            if got != want:
                return (f"edge {src!r} -> {dst!r} via {name!r}: {role} node {node_id!r} "
                        f"has type {got!r}, expected {want!r}")
        if not math.isfinite(weight) or weight < 0:
            return f"edge {src!r} -> {dst!r} has invalid weight {weight!r}"
        key = (index[src][1], index[dst][1])
        pairs = sums[name]
        pairs[key] = pairs[key] + weight if key in pairs else weight
        return None

    for kind, problem in (("nodes", node_problem), ("edges", edge_problem)):
        for path, line_no, fields in records(kind):
            message = problem(fields)
            if message is not None:
                return f"{path}:{line_no}: {message}", line_no
    arrays = {}
    for name, source, _ in relations:
        pairs = sorted(sums[name].items())
        counts = np.bincount([r for (r, _), _ in pairs], minlength=len(ids[source]))
        arrays[name] = (np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
                        np.array([c for (_, c), _ in pairs], np.int64),
                        np.array([w for _, w in pairs], np.float64))
    digest = hashlib.sha256(b"".join(
        hashlib.sha256(files[kind][1]).digest() for kind in ("schema", "nodes", "edges")
    )).hexdigest()
    return ids, list(index.items()), arrays, digest


def reference_top_k(item_ids, scores, k):
    """The ``k`` (item id, score) pairs of highest score, by a sort of
    every pair: highest score first, equal scores in item-id order."""
    return sorted(zip(item_ids, scores), key=lambda t: (-t[1], t[0]))[:k]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def naive_objective(U, V, alpha, beta, w, rating_triples, n, m,
                    sims_uu, sims_ii, rel_triples, lam, mu):
    """Double-loop evaluation of the training objective.

    The graph-regularizer terms use the pairwise form
    (1/2) * sum_ij S(i,j) ||U_i - U_j||^2 rather than the Laplacian trace.
    """
    J = 0.0
    for i, j, v in rating_triples:
        J += (_sigmoid(U[i] @ V[j]) - v) ** 2

    for a, S in zip(alpha, sims_uu):
        S = np.asarray(S.todense()) if sp.issparse(S) else np.asarray(S)
        acc = 0.0
        for i in range(n):
            for j in range(n):
                acc += S[i, j] * float(np.sum((U[i] - U[j]) ** 2))
        J += a * 0.5 * acc

    for b, S in zip(beta, sims_ii):
        S = np.asarray(S.todense()) if sp.issparse(S) else np.asarray(S)
        acc = 0.0
        for i in range(m):
            for j in range(m):
                acc += S[i, j] * float(np.sum((V[i] - V[j]) ** 2))
        J += b * 0.5 * acc

    for wk, triples in zip(w, rel_triples):
        acc = 0.0
        for i, j, v in triples:
            acc += (_sigmoid(U[i] @ V[j]) - v) ** 2
        J += mu * wk * acc

    cnt_u = np.zeros(n)
    cnt_i = np.zeros(m)
    for i, j, _ in rating_triples:
        cnt_u[i] += 1
        cnt_i[j] += 1
    cnt_u[cnt_u == 0] = 1.0
    cnt_i[cnt_i == 0] = 1.0
    ridge = 0.0
    for i in range(n):
        ridge += cnt_u[i] * float(np.sum(U[i] ** 2))
    for j in range(m):
        ridge += cnt_i[j] * float(np.sum(V[j] ** 2))
    ridge += float(np.sum(alpha**2) + np.sum(beta**2) + np.sum(w**2))
    return J + lam * ridge


def objective(model, weights, ratings, rels, hp, laps=None, mu=None):
    """The training objective J, term by term: the rating fit, each
    Laplacian's trace ``Tr(X^T L X)``, the residuals of each user-item
    relation's stored entries and the count-weighted ridge.  The reference
    for central differences and for ``Problem.value``, which sums the
    same terms from one merged entry list.  ``laps`` (an object with
    ``user`` and ``item`` Laplacian lists) defaults to the
    :func:`reference_laplacian` of each similarity, and ``mu`` to
    ``hp.mu`` or the observed density."""
    if mu is None:
        mu = ratings.nnz / (ratings.n * ratings.m) if hp.mu is None else hp.mu
    U, V = model.U, model.V
    if laps is None:
        lap_u = [reference_laplacian(s.matrix) for s in rels.user_user]
        lap_v = [reference_laplacian(s.matrix) for s in rels.item_item]
    else:
        lap_u, lap_v = laps.user, laps.item

    def f(rows, cols):
        return expit(np.einsum("ij,ij->i", U[rows], V[cols]))

    fit = float(np.sum((f(ratings.rows, ratings.cols) - ratings.vals) ** 2))
    reg_u = float(sum(a * float(np.sum(U * (L @ U))) for a, L in zip(weights.alpha, lap_u)))
    reg_v = float(sum(b * float(np.sum(V * (L @ V))) for b, L in zip(weights.beta, lap_v)))
    ssq = np.zeros(len(rels.user_item))
    for k, sim in enumerate(rels.user_item):
        M = sp.coo_array(sim.matrix)
        ssq[k] = np.sum((f(M.row, M.col) - M.data) ** 2)
    rel_fit = float(mu * float(weights.w @ ssq))
    n_user = np.maximum(np.bincount(ratings.rows, minlength=ratings.n), 1).astype(np.float64)
    n_item = np.maximum(np.bincount(ratings.cols, minlength=ratings.m), 1).astype(np.float64)
    ridge = float(
        hp.lam
        * (
            float(n_user @ np.sum(U**2, axis=1))
            + float(n_item @ np.sum(V**2, axis=1))
            + float(weights.alpha @ weights.alpha)
            + float(weights.beta @ weights.beta)
            + float(weights.w @ weights.w)
        )
    )
    return fit + reg_u + reg_v + rel_fit + ridge


def central_difference(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[k] += h
        xm.flat[k] -= h
        g.flat[k] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def count_observed(vals):
    """Counting oracle for the density rule."""
    return sum(1 for v in vals if v != 0.0)


class PlainLogisticMF:
    """Standalone logistic matrix factorization with the weighted ridge.

    Mirrors the reduction of the full model when every path group is
    empty: same seeded init, same accept/reject descent, whose step grows
    by 1.2 after each accepted step and halves after each rejected or
    non-finite candidate, with more than ten halvings in a row (no
    accepted step between them) counted as divergence; same stopping
    rule: an outer iteration converges when it accepted at least one step
    and moved U, V and J by less than ``outer_tol`` relative to their
    values at its start.  Written independently as the oracle for the
    reduction-equivalence test: it takes none of the learner's constants.
    It computes the logistic with scipy's ``expit``, which the package does
    not use: the package evaluates the same formula with numpy's ``exp``,
    within 4 ulp of ``expit``, far inside the reduction tests' tolerances;
    everything else is reimplemented.
    """

    def __init__(self, hp):
        self.hp = hp

    def _objective(self, U, V):
        from scipy.special import expit

        rows, cols, vals = self.rows, self.cols, self.vals
        p = expit(np.einsum("ij,ij->i", U[rows], V[cols]))
        fit = float(np.sum((p - vals) ** 2))
        ridge = self.hp.lam * (
            float(self.cnt_u @ np.sum(U**2, axis=1))
            + float(self.cnt_i @ np.sum(V**2, axis=1))
        )
        return fit + ridge

    def _gradient(self, U, V):
        from scipy.special import expit

        rows, cols, vals = self.rows, self.cols, self.vals
        z = np.einsum("ij,ij->i", U[rows], V[cols])
        p = expit(z)
        g = 2.0 * p * (1.0 - p) * (p - vals)
        G = sp.csr_array((g, (rows, cols)), shape=(U.shape[0], V.shape[0]))
        dU = 2.0 * self.hp.lam * self.cnt_u[:, None] * U + G @ V
        dV = 2.0 * self.hp.lam * self.cnt_i[:, None] * V + G.T @ U
        return dU, dV

    def fit(self, ratings):
        hp = self.hp
        n, m = ratings.n, ratings.m
        self.rows, self.cols, self.vals = ratings.rows, ratings.cols, ratings.vals
        self.cnt_u = np.bincount(self.rows, minlength=n).astype(float)
        self.cnt_i = np.bincount(self.cols, minlength=m).astype(float)
        self.cnt_u[self.cnt_u == 0] = 1.0
        self.cnt_i[self.cnt_i == 0] = 1.0

        rng = np.random.default_rng(hp.seed)
        U = rng.uniform(-0.01, 0.01, size=(n, hp.d))
        V = rng.uniform(-0.01, 0.01, size=(m, hp.d))

        step = hp.learn_rate
        halvings_in_a_row = 0
        j_cur = self._objective(U, V)
        self.j_trace = [j_cur]
        eps = 1e-12
        self.converged = False
        for _ in range(hp.max_outer):
            U0, V0, j0 = U.copy(), V.copy(), j_cur
            accepted = 0
            for _ in range(hp.max_inner):
                dU, dV = self._gradient(U, V)
                Uc = U - step * dU
                Vc = V - step * dV
                rel = max(
                    np.linalg.norm(Uc - U) / (np.linalg.norm(U) + eps),
                    np.linalg.norm(Vc - V) / (np.linalg.norm(V) + eps),
                )
                with np.errstate(over="ignore", invalid="ignore"):
                    j_new = self._objective(Uc, Vc)
                if np.isfinite(j_new) and j_new <= j_cur:
                    U, V = Uc, Vc
                    j_cur = j_new
                    accepted += 1
                    step *= 1.2
                    halvings_in_a_row = 0
                    if rel < hp.inner_tol:
                        break
                else:
                    step *= 0.5
                    halvings_in_a_row += 1
                    assert halvings_in_a_row <= 10, "oracle diverged"
            self.j_trace.append(j_cur)
            outer_rel = max(
                np.linalg.norm(U - U0) / (np.linalg.norm(U0) + eps),
                np.linalg.norm(V - V0) / (np.linalg.norm(V0) + eps),
                abs(j_cur - j0) / (abs(j0) + eps),
            )
            if accepted > 0 and outer_rel < hp.outer_tol:
                self.converged = True
                break
        self.U, self.V = U, V
        return self
