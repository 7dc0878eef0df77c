"""Two-phase alternating gradient descent on the unified objective.

:func:`set_up` builds a run's inputs from a graph: the ratings and the
relation set, which carries its Laplacians.  One :class:`Problem` is built per
training run.  It merges the ratings and the user-item relation entries
into one coefficient-weighted entry list (coefficient 1 for a rating,
``mu * w_k`` for an entry of relation k) and holds the Laplacians, mu and
the per-node rating counts.

Each outer iteration first descends the latent factors (U, V) with the
path weights frozen, then descends the path weights (alpha, beta, w) with
the factors frozen, projecting the weights onto [0, inf) after every step.

Factor phase: :meth:`Problem.evaluate` computes once per candidate (U, V)
what every term needs from the factors: the residuals and logistic slopes
of the entries, ``L @ U`` or ``L @ V`` with its trace for each Laplacian
(one list, user-user first), and the factor ridge.  The objective value
and the next gradient both read this :class:`Point`, so an accepted
candidate's gradient gathers no rows again.  The predictions come from
one dense ``U @ V.T`` when the entries cover at least
``DENSE_MIN_DENSITY`` of the user-item grid, and from the row gathers of
``model.pair_dots``, which serving shares, otherwise.  Every Laplacian
product has one entry point, ``_multiply_rows``, called on row blocks
fixed once per Problem (all of L's rows as one block, or the two halves
below when the worker shares the product), with one kernel per
Laplacian, also fixed once per Problem: a
Laplacian of at most ``DENSE_MAX_NODES`` nodes that stores at least
``DENSE_MIN_FILL`` of its n x n entries keeps a dense copy, multiplied by
a BLAS-free ``np.einsum`` contraction whose cost stays linear in d; every
other one runs the CSR kernel that scipy's ``L @ X`` runs, with the bytes
scipy's gives.  The logistic is ``model.logistic``, numpy's vectorised
exp in one formula.  The factor gradient, and the norms that scale a
candidate's relative change, are computed once per factor point: a
rejected candidate leaves the factors and the frozen weights as they
were.

Worker thread: with two CPUs, a Problem shares the work of each new Point
with the thread of one :class:`Worker`, started on first use and stopped
when ``train`` ends; :func:`set_up` runs its tasks on another.  Each
Laplacian whose product costs at least ``PARALLEL_MIN_WORK`` multiply-adds
(entries read x d: the stored entries, or all n x n of a dense copy) is
cut once per Problem, at the row nearest half its entries, into two row
blocks that share its operands.  A Point whose work (distinct pairs x d
when its entry half is recomputed, plus entries read x d of its new
products) reaches the same threshold gives :meth:`Worker.share` one list
of independent tasks: the entry half first, so that it runs on this
thread, then every row block of each new product.  The dense side's
entry half calls BLAS through ``U @ V.T``, so that order keeps BLAS off
the worker, which runs scipy sparse kernels, row gathers, ``np.einsum``
and ufuncs under the caller's ``np.errstate``.  It is exact: each task
runs the same kernel over the same operands whichever thread takes it,
every output row of a product comes from the same kernel over the same
entries in the same order as in one block, and the traces and sums are
taken on this thread after the join, so the model's bytes do not depend
on the split.  Below the threshold, or when ``os.sched_getaffinity``
gives one CPU, the same tasks run inline and no thread starts.  ``train``
logs one INFO line saying whether the kernels ran on two threads, or why
not.

Active set: at the start of each factor phase :meth:`Problem.activate`
keeps in the entry list only the rating block and the user-item relations
whose weight is nonzero, rebuilding the list when that set changes, and
keeps for the candidates only the Laplacian products of the user-user and
item-item paths whose ``alpha_k`` or ``beta_k`` is nonzero.  With the
weights frozen, a path whose weight is 0 adds exactly 0 to J and to the
factor gradient, so this is exact for any weight rule.  A Point records
the entry list it was evaluated on and is never used under another; it
may be used under any weights whose nonzero graph weights it holds
products for.

Weight phase: with the factors frozen the objective is
``const + c . theta + lam * ||theta||^2``, where theta stacks
(alpha, beta, w) and c = (Tr(U^T L U) per user path, Tr(V^T L V) per item
path, mu * residual sum of squares per relation) is read off the Point.
The traces of the paths the factor phase skipped are computed once per
weight phase, at the frozen factors, and c is read once per weight phase
through :meth:`Problem.weight_costs`.  A weight candidate therefore costs
O(number of paths), and :meth:`Problem.value` gives it exactly the value
a full evaluation at those factors and weights would.

Step rule: each phase keeps its own step, both starting at
``learn_rate``.  A candidate is accepted only if its objective is finite
and does not exceed the current one, so the accepted-step objective trace
is non-increasing by construction.  Each accepted factor step multiplies
the factor step by ``STEP_GROWTH`` (the "bold driver" rule); the weight
step never grows.  Each rejected candidate, in either phase, halves that
phase's step.  More than ``MAX_HALVINGS`` halvings with no accepted step
of either phase in between abort training as divergent.

Stop rule: a run converges on the first outer iteration that accepts a
step and changes U, V and J each by less than ``outer_tol`` relative to
their values at the start of the iteration.  The weights take no part.
"""

import functools
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs

from . import metapath
from .graph import RatingMatrix, derive_ratings
from .model import (
    FactorModel,
    LaplacianSet,
    NumericalError,
    PathWeights,
    atomic_write_bytes,
    effective_mu,
    laplacian,
    logistic_and_slope,
    pair_dots,
    rating_counts,
    trace_quad,
)

log = logging.getLogger(__name__)

STEP_GROWTH = 1.2
MAX_HALVINGS = 10
_EPS = 1e-12

# Entry density (distinct user-item pairs / (n * m)) from which the
# predictions and the fit gradient use dense n x m products instead of row
# gathers.  Measured per gradient-and-value pass at d = 10, one BLAS
# thread: at density 0.1 the two break even on 1000 x 300 and 3000 x 600
# grids, from 0.2 up the dense pass is 1.7-3.2x faster there, and on a
# 200 x 60 grid it is 2.3-8.4x faster at every density.
DENSE_MIN_DENSITY = 0.2
# Multiply-adds from which work is shared with the worker thread: both the
# per-Laplacian threshold from which a product (entries read x d) is cut
# into row halves, and the per-Point threshold from which a Point's tasks
# (its entry half's distinct pairs x d, plus its new products' entries
# read x d) are shared.  Measured in paired training runs at d = 10 on a
# 2-CPU host with one BLAS thread: splitting a Laplacian product of 144k
# multiply-adds made a run 19% slower and one of 324k 4.5% slower; 400k
# broke even; 576k and 1.3M made it 2.8% and 11% faster.  The threshold
# sits at twice the break-even.
PARALLEL_MIN_WORK = 1_000_000
# Share of its n x n entries from which a Laplacian of at most
# DENSE_MAX_NODES nodes keeps a dense copy, whose products run as a
# BLAS-free contraction instead of the CSR kernel.  Measured per product
# with one BLAS thread.  At d = 10 and n = 60-600, fill 0.6-0.7 broke even;
# at 0.8 the dense kernel took 0.74-1.00x the CSR kernel's time, and on a
# full Laplacian 0.61-0.81x.  At n = 1000-2000 it took 1.08-1.28x at fill
# 0.8 and 0.89-1.05x on a full one, so larger Laplacians keep CSR; a dense
# copy of 600 nodes holds 2.9 MB.  The dense kernel's cost grows with d
# faster than the CSR kernel's: at d = 20-40 and n <= 600 it took
# 1.00-1.21x at fill 0.8 and 0.80-0.98x on a full Laplacian.
DENSE_MIN_FILL = 0.8
DENSE_MAX_NODES = 600


class DivergenceError(NumericalError):
    """More than ``MAX_HALVINGS`` step halvings with no accepted step."""

    def __init__(self, message, j_trace):
        super().__init__(message)
        self.j_trace = list(j_trace)


@dataclass
class TrainState:
    """Mutable snapshot of a training run.

    ``factor_step`` and ``weight_step`` are the current step of each
    phase.  Every rejected candidate halves its phase's step, so
    ``halvings``, the step halvings over the whole run, is the sum of the
    two rejected counts; ``stalled_halvings`` counts the halvings since
    the last accepted step of either phase, which ``MAX_HALVINGS`` bounds.
    ``point`` caches the :class:`Point` of ``model`` once evaluated.
    """

    model: FactorModel
    weights: PathWeights
    factor_step: float
    weight_step: float
    j_value: float = np.nan
    j_trace: list = field(default_factory=list)  # per outer iteration
    step_trace: list = field(default_factory=list)  # per accepted step
    outer_iters: int = 0
    factor_steps: int = 0
    weight_steps: int = 0
    factor_rejected: int = 0
    weight_rejected: int = 0
    stalled_halvings: int = 0
    converged: bool = False
    log_rows: list = field(default_factory=list)
    point: object = None

    @property
    def halvings(self):
        return self.factor_rejected + self.weight_rejected


def init(hp, shapes):
    """Seeded random starting point.

    ``shapes`` is (n, m, n_user_paths, n_item_paths, n_cross_paths).
    Factors start in uniform [-0.01, 0.01], weights in uniform [0, 1).
    """
    n, m, n_uu, n_ii, n_ui = shapes
    if n < 1 or m < 1:
        raise ValueError("need at least one user and one item")
    rng = np.random.default_rng(hp.seed)
    U = rng.uniform(-0.01, 0.01, size=(n, hp.d))
    V = rng.uniform(-0.01, 0.01, size=(m, hp.d))
    alpha = rng.uniform(0.0, 1.0, size=n_uu)
    beta = rng.uniform(0.0, 1.0, size=n_ii)
    w = rng.uniform(0.0, 1.0, size=n_ui)
    return TrainState(
        model=FactorModel(U, V),
        weights=PathWeights(alpha, beta, w),
        factor_step=hp.learn_rate,
        weight_step=hp.learn_rate,
    )


@dataclass
class Point:
    """What every objective term needs from one pair of factors.

    A Point depends on which weights are zero.  It holds the residuals of
    the rating block and of the relations in the Problem's active set
    (``active``) when it was evaluated, and the Problem values or
    differentiates it only while that set is current.  Its Laplacians are
    the Problem's, user-user first: for each it holds ``L @ U`` or
    ``L @ V`` and its trace only if it was asked for; the others read
    ``None`` and a trace of 0.  It may be used under any weights whose
    nonzero ``alpha_k`` and ``beta_k`` it holds products for.
    The sets change only at the start of a factor phase, and the weight
    phase first completes the Point with every trace, so one Point serves
    every weight candidate of a weight phase.
    """

    model: FactorModel
    active: tuple  # indices of the user-item relations it was evaluated on
    slope: np.ndarray  # f'(U_i . V_j) per distinct entry pair
    resid: np.ndarray  # f(U_i . V_j) - target per entry
    fit: float  # rating residual sum of squares
    rel_ssq: np.ndarray  # residual sum of squares per user-item relation, 0 if inactive
    LX: list  # L @ U or L @ V per Laplacian, None where not computed
    tr: np.ndarray  # Tr(U^T L U) or Tr(V^T L V) per Laplacian, 0 where not computed
    factor_ridge: float  # sum_i c_i ||U_i||^2 + sum_j c_j ||V_j||^2


# each objective term's key and the name its NumericalError gives
_TERM_LABELS = (
    ("fit", "rating fit"),
    ("user_graph", "user graph regularizer"),
    ("item_graph", "item graph regularizer"),
    ("relation_fit", "relation fit"),
    ("ridge", "ridge"),
)
TERMS = tuple(key for key, _ in _TERM_LABELS)


def _check_terms(values):
    """Raise NumericalError naming the first non-finite term of ``values``,
    given in ``TERMS`` order."""
    for value, (_, label) in zip(values, _TERM_LABELS):
        if not math.isfinite(value):
            raise NumericalError(f"objective term {label!r} is non-finite ({value!r})")


def _relation_entries(sims, m):
    """(pair keys ``row * m + col``, values) of each user-item similarity
    in ``sims``, in the order of coo_array(M); the values are M's own
    array (not clipped: they are PathSim values, already in [0, 1])."""
    out = []
    for sim in sims:
        M = sp.csr_array(sim.matrix)
        keys = np.repeat(np.arange(M.shape[0], dtype=np.int64) * m, np.diff(M.indptr))
        keys += M.indices
        out.append((keys, np.asarray(M.data, dtype=np.float64)))
    return out


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class Worker:
    """This thread and, when the process may run on two CPUs, one worker
    thread, started on first use and stopped by :meth:`close` (or on
    leaving a ``with`` block).

    Every task given to :meth:`share` but the first may run on the worker
    thread.  So such a task makes no BLAS call (a multi-threaded OpenBLAS
    keeps its threads spinning after one, on the CPU the other thread
    needs) and no logging.  It runs under the caller's ``np.errstate``,
    which :meth:`share` carries over, since errstate is per thread.
    """

    def __init__(self):
        self.two_threads = _cpu_count() > 1
        self.tasks = 0  # tasks the worker thread ran
        self._pool = None

    def share(self, tasks):
        """The results of the callables ``tasks``, in task order.

        This thread runs the first task and the worker the second; then
        each takes the next task in order until none is left.  Every task
        runs once.  When tasks raise, the first exception in task order is
        raised, unchanged, once both threads are done.  The worker runs
        its tasks under this thread's ``np.errstate``.  With one CPU, or
        fewer than two tasks, the tasks run here in order and no thread
        starts.
        """
        if not self.two_threads or len(tasks) < 2:
            return [task() for task in tasks]
        outcomes = [None] * len(tasks)  # (result, exception) per task
        rest = iter(range(2, len(tasks)))
        lock = threading.Lock()
        errors = dict(np.geterr(), call=np.geterrcall())

        def run(k):
            ran = 0
            while k is not None:
                try:
                    outcomes[k] = (tasks[k](), None)
                except BaseException as exc:  # raised below, after the join
                    outcomes[k] = (None, exc)
                ran += 1
                with lock:
                    k = next(rest, None)
            return ran

        def work():
            with np.errstate(**errors):
                return run(1)

        if self._pool is None:
            self._pool = ThreadPoolExecutor(1, thread_name_prefix="hetecf-worker")
        future = self._pool.submit(work)
        try:
            run(0)
        finally:
            self.tasks += future.result()  # waits for the worker
        for _, exc in outcomes:
            if exc is not None:
                raise exc
        return [result for result, _ in outcomes]

    def close(self):
        """Stop the worker thread, if one was started."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class SetUp:
    """The result of :func:`set_up`; ``rels`` carries the Laplacians.
    ``paths`` holds, per declared path in declared order, (group, path,
    nnz, instance count, seconds, thread): ``nnz`` lists the stored
    entries of its counts, its similarity and, for a UU or II path, its
    Laplacian; the seconds and the thread are those of its chain.
    ``results`` holds the results of the ``tasks``."""

    ratings: RatingMatrix
    rels: metapath.RelationSet
    paths: list
    ratings_seconds: float
    wall_seconds: float
    two_threads: bool
    results: list


def set_up(graph, groups, target, tasks=()):
    """The ratings of the target path ``target``, the relation set of the
    path groups ``groups`` with its Laplacians, and the result of each
    callable of ``tasks`` on ``graph``, as a :class:`SetUp`.

    The ratings, one chain per declared path (counts, PathSim and, for a
    UU or II path, its Laplacian) and the ``tasks`` are the tasks of one
    :meth:`Worker.share`, in this order: the ratings, the chains, costliest
    first, then the ``tasks``.  A chain's cost is estimated by its path's
    ``metapath.instance_count``; equal estimates keep the declared order
    (UU, then II, then UI, each group in file order).  So the worker
    starts on the costliest chain while this thread runs the ratings and
    the cheaper chains.  Every task runs the same code on the same inputs
    as a one-thread run, so every similarity, Laplacian and model byte is
    the same.  After the join this thread warns, in declared order, of
    each inert UU or II path.  The relation set keeps no similarity matrix
    of a UU or II path, only its path and the Laplacian training reads.
    """
    def timed(task, *args):
        start = time.perf_counter()
        result = task(*args)
        return result, time.perf_counter() - start, threading.current_thread().name

    def chain(group, path):  # no BLAS call and no logging: it may run on the worker
        counts, sim = metapath.similarity(graph, group, path)
        nnz = (counts.matrix.nnz, sim.matrix.nnz)
        del counts  # freed before the Laplacian is assembled
        if group == "UI":
            return sim, None, nnz, False
        lap = laplacian(sim)
        return replace(sim, matrix=None), lap, nnz + (lap.nnz,), metapath.inert(sim)

    declared = metapath.declared(groups)
    start = time.perf_counter()
    estimates = [metapath.instance_count(graph, path) for _, path in declared]
    # costliest first, so that the worker starts on it; ties in declared order
    order = sorted(range(len(declared)), key=lambda k: -estimates[k])
    with Worker() as worker:
        (ratings, ratings_s, _), *done = worker.share(
            [functools.partial(timed, derive_ratings, graph, target)]
            + [functools.partial(timed, chain, *declared[k]) for k in order]
            + [functools.partial(task, graph) for task in tasks]
        )
    wall_s = time.perf_counter() - start
    chains = dict(zip(order, done))
    sims, laps = ({group: [] for group in metapath.GROUPS} for _ in range(2))
    facts = []
    for k, (group, path) in enumerate(declared):
        (sim, lap, nnz, inert), seconds, thread = chains[k]
        if inert:
            metapath.warn_inert(group, path)
        sims[group].append(sim)
        laps[group].append(lap)  # None for a UI path
        facts.append((group, path, nnz, estimates[k], seconds, thread))
    rels = metapath.RelationSet(sims["UU"], sims["II"], sims["UI"],
                                LaplacianSet(laps["UU"], laps["II"]))
    return SetUp(ratings, rels, facts, ratings_s, wall_s, worker.two_threads,
                 done[len(order):])


def _row_block(L, start, end):
    """Rows ``start:end`` of ``L`` as (first row, end row, columns,
    operands): for a dense array the operand is a view of those rows, for
    a CSR matrix they are (indptr, indices, data), whose ``indices`` and
    ``data`` are views of L's."""
    if isinstance(L, np.ndarray):
        return (start, end, L.shape[1], L[start:end])
    lo, hi = L.indptr[start], L.indptr[end]
    return (start, end, L.shape[1], L.indptr[start:end + 1] - lo,
            L.indices[lo:hi], L.data[lo:hi])


def _row_halves(L):
    """The two row blocks of ``L`` cut at the row nearest half its stored
    entries: half its rows for a dense array."""
    if isinstance(L, np.ndarray):
        cut = L.shape[0] // 2
    else:
        cut = int(np.searchsorted(L.indptr, L.nnz // 2))
    return [_row_block(L, 0, cut), _row_block(L, cut, L.shape[0])]


def _multiply_rows(block, X, out):
    """Write rows ``start:end`` of ``L @ X`` into those of ``out``, which
    must be zero there: the one entry point of every Laplacian product,
    with one kernel per kind of block.

    A CSR block runs the kernel that scipy's ``L @ X`` runs, adding into
    the zeros, so these rows get the bytes ``L @ X`` gives them.  A dense
    block runs ``np.einsum("ij,kj->ik", rows, Xᵀ)`` on a C-contiguous
    copy of Xᵀ: each entry is one dot product of two contiguous rows,
    whose bytes do not depend on the block's rows or on how either
    operand is aligned.  It never calls BLAS, so its cost stays linear in
    d and its bytes do not depend on BLAS threads.  Neither kernel does
    ufunc work, so no errstate applies to them; both release the GIL."""
    start, end, n_cols, *operands = block
    if (X.ndim != 2 or X.shape[0] != n_cols or out.shape[1:] != X.shape[1:]
            or out.shape[0] < end or not out.flags.c_contiguous):
        raise ValueError(f"row product of {n_cols} columns with X of shape {X.shape}"
                         f" into an output of shape {out.shape}")
    if len(operands) == 1:
        np.einsum("ij,kj->ik", operands[0], np.ascontiguousarray(X.T), out=out[start:end])
    else:
        csr_matvecs(end - start, n_cols, X.shape[1], *operands,
                    X.ravel(), out[start:end].ravel())


class Problem:
    """The fixed data of one training run, and the objective on it.

    The entry list holds the rating block and the blocks of the *active*
    user-item relations, those whose weight was nonzero when
    :meth:`activate` last ran (every relation before its first call).
    ``graph`` lists every Laplacian, user-user first, with the side it
    multiplies (0 for U, 1 for V), and ``active_graph`` names those whose
    products each factor candidate computes.  They are those of
    ``LaplacianSet.from_relation_set(rels)``: the ones ``rels`` carries,
    else built from its similarities.

    With two CPUs, the tasks of a Point whose work reaches
    ``PARALLEL_MIN_WORK`` multiply-adds (its entry half and the row blocks
    of its new products) are shared with the thread of a :class:`Worker`,
    started on first use; :meth:`close` stops it.
    """

    def __init__(self, ratings, rels, hp):
        self.hp = hp
        self.n, self.m = ratings.n, ratings.m
        self.laps = LaplacianSet.from_relation_set(rels)
        self.mu = effective_mu(hp, ratings)
        self.n_user, self.n_item = rating_counts(ratings)
        self._ratings = ratings
        self._user_item = list(rels.user_item)
        self._counts = (len(self.laps.user), len(self.laps.item), len(self._user_item))
        self.graph = [(side, sp.csr_array(L, dtype=np.float64))
                      for side, group in enumerate((self.laps.user, self.laps.item))
                      for L in group]
        self._names = tuple(
            [sim.path.to_string() for sim in group]
            for group in (rels.user_user + rels.item_item, rels.user_item)
        )
        self.active_graph = tuple(range(len(self.graph)))
        self.active = tuple(range(len(self._user_item)))
        self._inactive = ()
        self._worker = Worker()
        flat = self._set_entries()
        # dense or gathered products, decided once on every entry
        self.density = flat.size / (self.n * self.m)
        self.dense = self.density >= DENSE_MIN_DENSITY
        self._index_pairs(flat)
        # each Laplacian's product operand: a dense copy when it has at
        # most DENSE_MAX_NODES nodes and stores at least DENSE_MIN_FILL of
        # its entries, else its CSR matrix
        operands = [L.toarray() if L.shape[0] <= DENSE_MAX_NODES
                    and L.nnz >= DENSE_MIN_FILL * L.shape[0] * L.shape[1] else L
                    for _, L in self.graph]
        self._dense_graph = [k for k, A in enumerate(operands) if isinstance(A, np.ndarray)]
        # the entries each product reads, all n^2 of a dense copy
        self._graph_work = [A.size if isinstance(A, np.ndarray) else A.nnz for A in operands]
        # the first Point's work, the largest, for the report of why none was shared
        self._largest_work = flat.size + sum(self._graph_work)
        # the row blocks of each Laplacian: its halves when the worker
        # shares its products, else all its rows
        self._blocks = [_row_halves(A) if self._shared(w) else [_row_block(A, 0, A.shape[0])]
                        for A, w in zip(operands, self._graph_work)]
        # the factor ridge's gradient coefficients 2 lam c_i, as columns
        self._ridge_coefs = (2.0 * hp.lam * self.n_user[:, None],
                             2.0 * hp.lam * self.n_item[:, None])

    def _shared(self, work):
        """Whether work of ``work`` entries read per factor column (a
        Laplacian's product, or a Point's tasks) is shared with the worker
        thread."""
        return self._worker.two_threads and work * self.hp.d >= PARALLEL_MIN_WORK

    def close(self):
        """Stop the worker thread, if one was started."""
        self._worker.close()

    def kernel_report(self):
        """Whether the factor products ran on two threads, or why not, and
        which Laplacians, if any, took the dense kernel."""
        dense = [self._names[0][k] for k in self._dense_graph]
        dense = f"; dense Laplacians: {', '.join(dense)}" if dense else ""
        if self._worker.tasks:
            split = [name for name, blocks in zip(self._names[0], self._blocks)
                     if len(blocks) > 1]
            return (f"ran on two threads, {self._worker.tasks} tasks on the worker;"
                    f" Laplacians split by rows: {', '.join(split) or 'none'}{dense}")
        if not self._worker.two_threads:
            return f"ran on one thread: one CPU available{dense}"
        if self._shared(self._largest_work):  # every Point at the threshold had one task
            return f"ran on one thread: no Point of two tasks reached the threshold{dense}"
        return (f"ran on one thread: below the threshold (largest Point {self._largest_work}"
                f" pairs and entries x d {self.hp.d} < {PARALLEL_MIN_WORK}){dense}")

    @property
    def graph_products(self):
        """Laplacian products each factor candidate computes."""
        return len(self.active_graph)

    def _set_entries(self):
        """Concatenate the rating block and the active relation blocks into
        one entry list; returns the sorted distinct pair keys."""
        ratings = self._ratings
        # block 0 holds the ratings, block k + 1 the k-th active relation
        blocks = [(ratings.rows * self.m + ratings.cols, ratings.vals)] + _relation_entries(
            [self._user_item[k] for k in self.active], self.m
        )
        bounds = np.cumsum([0] + [len(vals) for _, vals in blocks]).tolist()
        self._block_slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._active_list = list(self.active)
        keys = np.concatenate([keys for keys, _ in blocks])
        self.vals = np.concatenate([vals for _, vals in blocks])
        del blocks  # free the per-block keys before the sort below
        # one entry per pair, in pair order: the entries need no gather by
        # pair and no sum over pairs
        self._in_order = bool(np.all(keys[1:] > keys[:-1]))
        if self._in_order:
            flat, self.pair = keys, np.arange(keys.size)
        else:  # np.unique(keys, return_inverse=True), with fewer temporaries
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            first = np.empty(keys.size, dtype=bool)
            first[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            flat = keys[first]
            np.cumsum(first, out=keys)  # 1 + each entry's pair, in sorted order
            keys -= 1
            self.pair = np.empty(keys.size, dtype=np.intp)
            self.pair[order] = keys
        self.n_pairs = flat.size
        # pairs covering the whole grid are the dense matrix's positions in order
        self._whole_grid = flat.size == self.n * self.m
        return flat

    def _index_pairs(self, flat):
        """Index the distinct pairs ``flat`` for the dense or the gathered
        products."""
        if self.dense:
            self._flat = flat
        else:
            self._pair_rows, self._pair_cols = np.divmod(flat, self.m)
            # CSR indices and indptr of the distinct pairs (sorted
            # row-major), which every fit gradient reuses
            index = np.int32 if max(self.n, self.m, flat.size) < 2**31 else np.int64
            indptr = np.zeros(self.n + 1, dtype=index)
            np.cumsum(np.bincount(self._pair_rows, minlength=self.n), out=indptr[1:])
            self._pattern = (self._pair_cols.astype(index), indptr)

    def activate(self, weights):
        """Make the active sets the relations whose ``w_k`` and the
        Laplacians whose ``alpha_k`` or ``beta_k`` is nonzero, rebuilding
        the entry list only when its set changes.

        Exact for any weight rule: while the weights are frozen, a path
        whose weight is 0 adds exactly 0 to J and to the factor gradient.
        """
        new = (active_relations(np.array(_graph_weights(weights))),
               active_relations(weights.w))
        old = (self.active_graph, self.active)
        if new == old:
            return
        left, back = [], []
        for names, now, before in zip(self._names, new, old):
            left += [names[k] for k in before if k not in now]
            back += [names[k] for k in now if k not in before]
        self.active_graph = new[0]
        if new[1] != self.active:
            self.active = new[1]
            self._inactive = tuple(
                k for k in range(len(self._user_item)) if k not in self.active
            )
            self._index_pairs(self._set_entries())
        n_user = len(self.laps.user)
        user = sum(k < n_user for k in self.active_graph)
        log.info(
            "active set: %d of %d user-item paths, %d pairs, %d of %d user-user"
            " and %d of %d item-item Laplacians; re-entered: %s; left: %s",
            len(self.active), len(self._user_item), self.n_pairs, user, n_user,
            len(self.active_graph) - user, len(self.laps.item),
            ", ".join(back) or "none", ", ".join(left) or "none",
        )

    def _check(self, point, weights):
        """Refuse weights of other path counts than the Problem's, a Point
        of another entry list, weights that are nonzero outside the
        user-item active set, whose relations the entry list lacks, and
        graph weights that are nonzero where the Point holds no product."""
        if weights.counts != self._counts:
            raise ValueError(
                f"weight counts {weights.counts} do not match the paths {self._counts}"
            )
        if point.active != self.active:
            raise ValueError(
                f"Point evaluated on active set {point.active}, used on {self.active}"
            )
        if any(weights.w[k] != 0.0 for k in self._inactive):
            raise ValueError("a user-item weight outside the active set is nonzero")
        for X, a in zip(point.LX, _graph_weights(weights)):
            if X is None and a != 0.0:
                raise ValueError("Point lacks the Laplacian product of a nonzero weight")

    def _entry_half(self, U, V):
        """Slopes, residuals and residual sums of the entry list at (U, V):
        the predictions of one ``U @ V.T`` (BLAS) on the dense side, else
        gathered by ``model.pair_dots``, then f and f' of all."""
        if self._whole_grid:
            z = (U @ V.T).ravel()
        elif self.dense:
            z = np.take((U @ V.T).ravel(), self._flat)
        else:
            z = pair_dots(U, V, self._pair_rows, self._pair_cols)
        p, slope = logistic_and_slope(z, (z, np.empty_like(z)))
        resid = (p if self._in_order else np.take(p, self.pair)) - self.vals
        squares = resid**2
        ssq = [np.add.reduce(squares[block]) for block in self._block_slices]
        rel_ssq = np.zeros(len(self._user_item))
        rel_ssq[self._active_list] = ssq[1:]
        return {"slope": slope, "resid": resid, "fit": ssq[0], "rel_ssq": rel_ssq}

    def evaluate(self, model, base=None, every_path=False):
        """The Point of ``model``'s factors on the current entry list, with
        the products of the active Laplacians (of every Laplacian with
        ``every_path``).

        ``base``, a Point of the same factors, lends what is still valid:
        its products, and its entry half when it was evaluated on the
        current entry list.  A ``base`` that lacks nothing is returned.

        Its tasks are the entry half, unless ``base`` lends it, and then
        every row block of each new product ``L @ U`` or ``L @ V``, written
        into zeros by ``_multiply_rows`` through the Laplacian's dense or
        CSR kernel.  With two CPUs, once their work (distinct pairs x d for
        the entry half, entries read x d for the products) reaches
        ``PARALLEL_MIN_WORK``, they are shared with the worker in that
        order: this thread takes the first, the entry half, whose dense
        product may call BLAS.  Otherwise they run here in order.  The
        traces and the ridge are taken here after the join.
        """
        if base is not None and base.model is not model:
            raise ValueError("base Point is of other factors")
        U, V = factors = model.U, model.V
        LX = list(base.LX) if base else [None] * len(self.graph)
        wanted = range(len(LX)) if every_path else self.active_graph
        new = [k for k in wanted if LX[k] is None]
        same_entries = base is not None and base.active == self.active
        if same_entries and not new:
            return base
        tr = base.tr.copy() if base else np.zeros(len(LX))
        for k in new:
            LX[k] = np.zeros((self.graph[k][1].shape[0], U.shape[1]))
        tasks = [] if same_entries else [functools.partial(self._entry_half, U, V)]
        tasks += [functools.partial(_multiply_rows, block, factors[self.graph[k][0]], LX[k])
                  for k in new for block in self._blocks[k]]
        work = (0 if same_entries else self.n_pairs) + sum(self._graph_work[k] for k in new)
        if self._shared(work):
            done = self._worker.share(tasks)
        else:
            done = [task() for task in tasks]
        entries = ({k: getattr(base, k) for k in ("slope", "resid", "fit", "rel_ssq")}
                   if same_entries else done[0])
        for k in new:
            on, L = self.graph[k]
            tr[k] = trace_quad(L, factors[on], LX[k])
        factor_ridge = base.factor_ridge if base else (
            float(self.n_user @ np.add.reduce(U**2, axis=1))
            + float(self.n_item @ np.add.reduce(V**2, axis=1))
        )
        return Point(model=model, active=self.active, LX=LX, tr=tr,
                     factor_ridge=factor_ridge, **entries)

    def _term_values(self, point, weights):
        """The five objective terms, in ``TERMS`` order, unchecked."""
        self._check(point, weights)
        a, b, w = weights.alpha, weights.beta, weights.w
        return (
            float(point.fit),
            float(a @ point.tr[:a.size]),
            float(b @ point.tr[a.size:]),
            float(self.mu * float(w @ point.rel_ssq)),
            float(self.hp.lam * (point.factor_ridge + float(a @ a) + float(b @ b) + float(w @ w))),
        )

    def terms(self, point, weights):
        """The five objective terms at ``point``'s factors and ``weights``;
        a non-finite term raises NumericalError naming it."""
        values = self._term_values(point, weights)
        _check_terms(values)
        return dict(zip(TERMS, values))

    def value(self, point, weights):
        """The objective J at ``point``'s factors and ``weights``: the
        value of every candidate of either phase.  A non-finite term
        raises as in :meth:`terms`; a sum of finite terms may overflow."""
        values = self._term_values(point, weights)
        total = sum(values)
        if not math.isfinite(total):  # a non-finite term, or finite ones that overflow
            _check_terms(values)
        return total

    def factor_gradient(self, point, weights):
        """Gradient of J with respect to U and V at ``point``."""
        self._check(point, weights)
        U, V = point.model.U, point.model.V
        # 2 x each block's coefficient: 1 for the ratings, mu * w_k for the
        # k-th active relation
        coefs = [2.0] + [2.0 * (self.mu * x) for x in weights.w[self._active_list].tolist()]
        slope = point.slope if self._in_order else np.take(point.slope, self.pair)
        g = np.empty_like(slope)
        for block, c in zip(self._block_slices, coefs):
            np.multiply(slope[block], c, out=g[block])
        g *= point.resid
        if not self._in_order:
            g = np.bincount(self.pair, weights=g, minlength=self.n_pairs)
        if self._whole_grid:
            G = g.reshape(self.n, self.m)
        elif self.dense:
            G = np.zeros(self.n * self.m)
            G[self._flat] = g
            G = G.reshape(self.n, self.m)
        else:
            G = sp.csr_array(
                (g, *self._pattern), shape=(self.n, self.m)
            )
        dU = self._ridge_coefs[0] * U + G @ V
        dV = self._ridge_coefs[1] * V + G.T @ U
        for (on, _), c, LX in zip(self.graph, _graph_weights(weights), point.LX):
            if c != 0.0:
                grad = dV if on else dU
                grad += (2.0 * c) * LX
        if not (np.isfinite(dU).all() and np.isfinite(dV).all()):
            raise NumericalError("non-finite factor gradient")
        return dU, dV

    def weight_costs(self, point, weights):
        """The weight phase's cost vector c at ``point``'s factors, as the
        (alpha, beta, w) blocks of Python floats: Tr(U^T L U) per user
        path, Tr(V^T L V) per item path and ``mu`` x the residual sum of
        squares per relation.  The factors stay frozen through a weight
        phase, so it reads c once.

        ``point`` must hold the trace of every Laplacian (evaluate it with
        ``every_path``), and ``weights`` must pass the Point's checks.  The
        ``c_k`` of a relation outside the user-item active set is not
        computed and reads 0; see :func:`update_weights` for why that is
        exact.
        """
        self._check(point, weights)
        if any(X is None for X in point.LX):
            raise ValueError("the weight gradient needs the trace of every Laplacian")
        n_user = len(self.laps.user)
        return (point.tr[:n_user].tolist(), point.tr[n_user:].tolist(),
                (self.mu * point.rel_ssq).tolist())

    def weight_gradient(self, costs, theta):
        """Gradient ``c + 2 lam theta`` of J with respect to (alpha, beta,
        w), with ``costs`` the blocks of c from :meth:`weight_costs` and
        ``theta`` those of the weights, both as lists of Python floats,
        which give the bits numpy's elementwise arithmetic gives.  Returns
        the three blocks as lists; a non-finite entry raises
        NumericalError."""
        ridge = 2.0 * self.hp.lam
        grads = [[c + ridge * x for c, x in zip(*pair)] for pair in zip(costs, theta)]
        if not all(math.isfinite(g) for grad in grads for g in grad):
            raise NumericalError("non-finite weight gradient")
        return grads


def active_relations(w):
    """Indices of the relations whose weight is nonzero."""
    return tuple(np.flatnonzero(w != 0.0).tolist())


def _graph_weights(weights):
    """alpha and then beta as Python floats, one weight per Laplacian of
    ``Problem.graph``."""
    return weights.alpha.tolist() + weights.beta.tolist()


def build_problem(ratings, rels, hp):
    """The Problem of one training run on ``ratings`` and ``rels``."""
    return Problem(ratings, rels, hp)


def _point(state, data, every_path=False):
    """The Point of the state's current factors on the current active sets
    (with every Laplacian's product under ``every_path``), evaluated on
    first use.  A Point of the same factors lends whatever of it is still
    valid, so a change of active set recomputes only what it touches."""
    point = state.point
    base = point if point is not None and point.model is state.model else None
    state.point = data.evaluate(state.model, base, every_path)
    return state.point


def grad_factors(state, data):
    """Analytic gradient of the objective with respect to U and V."""
    return data.factor_gradient(_point(state, data), state.weights)


def grad_weights(state, data):
    """Analytic gradient of the objective with respect to (alpha, beta, w);
    with the factors frozen the trace and residual terms are constants.
    The state's Point is first completed with every Laplacian's trace."""
    w = state.weights
    costs = data.weight_costs(_point(state, data, every_path=True), w)
    theta = (w.alpha.tolist(), w.beta.tolist(), w.w.tolist())
    return tuple(np.array(g, dtype=np.float64) for g in data.weight_gradient(costs, theta))


def _norm(x):
    """``np.linalg.norm(x)`` of a real array, without its argument handling
    and without BLAS, whose threads may keep spinning after a call."""
    x = x.ravel(order="K")
    return math.sqrt(np.einsum("i,i->", x, x))


def _rel_change(new, old, scale=None):
    """||new - old|| / (||old|| + eps); ``scale``, when given, is that
    denominator, taken once for every ``new`` of the same ``old``."""
    if scale is None:
        scale = _norm(old) + _EPS
    return _norm(new - old) / scale


def _weights_rel_change(new, old):
    """``_rel_change`` of two blocks of path weights given as lists of
    Python floats: for a handful of weights, that is cheaper than numpy's
    calls."""
    change = math.sqrt(sum((a - b) * (a - b) for a, b in zip(new, old)))
    return change / (math.sqrt(sum(b * b for b in old)) + _EPS)


def _descend(state, data, propose, phase):
    """Shared accept/reject inner loop.

    ``propose`` maps the current state and a step to (candidate,
    rel_change): the candidate is a (Point, PathWeights) pair and
    rel_change the max per-block relative parameter change of the step.
    ``phase`` is "factor" or "weight" and names the step and the counters
    that are advanced.  A candidate whose objective is non-finite is
    rejected like one that raises J.  An accepted factor step grows the
    factor step by ``STEP_GROWTH``; every rejection halves the phase's
    step.
    """
    hp = data.hp
    if not np.isfinite(state.j_value):  # phase entered without a prior objective
        state.j_value = data.value(_point(state, data), state.weights)
    j_cur = state.j_value
    step_name, steps_name, rejected_name = (
        f"{phase}_step", f"{phase}_steps", f"{phase}_rejected"
    )
    # a grown step may overshoot into overflow: that candidate is rejected
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hp.max_inner):
            candidate, rel = propose(state, getattr(state, step_name))
            try:
                j_new = data.value(*candidate)
            except NumericalError:
                j_new = np.inf
            if j_new <= j_cur:
                state.point, state.weights = candidate
                state.model = state.point.model
                j_cur = j_new
                state.j_value = j_new
                state.step_trace.append(j_new)
                setattr(state, steps_name, getattr(state, steps_name) + 1)
                state.stalled_halvings = 0
                if phase == "factor":
                    state.factor_step *= STEP_GROWTH
                if rel < hp.inner_tol:
                    break
            else:
                setattr(state, rejected_name, getattr(state, rejected_name) + 1)
                setattr(state, step_name, getattr(state, step_name) * 0.5)
                state.stalled_halvings += 1
                log.debug("%s candidate rejected; step now %g", phase,
                          getattr(state, step_name))
                if state.stalled_halvings > MAX_HALVINGS:
                    raise DivergenceError(
                        f"objective still increasing after {MAX_HALVINGS} "
                        f"step halvings without an accepted step (J = {j_cur:.6g})",
                        state.step_trace,
                    )
    return state


def update_factors(state, data):
    """Inner loop of the factor phase: full-gradient descent on (U, V);
    returns the mutated state.  The active sets are recomputed from the
    weights first, which stay frozen for the whole phase.

    The gradient is computed once per factor point: a rejected candidate
    leaves the factors and the weights as they were, so the next candidate
    steps along the same gradient, with a halved step.  The norms that
    scale each candidate's relative change are kept beside that gradient.
    """
    data.activate(state.weights)
    at = None  # (factors, dU, dV, ||U|| + eps, ||V|| + eps) of the current point

    def propose(state, step):
        nonlocal at
        model = state.model
        if at is None or at[0] is not model:
            at = (model, *grad_factors(state, data),
                  _norm(model.U) + _EPS, _norm(model.V) + _EPS)
        _, dU, dV, scale_U, scale_V = at
        U = model.U - step * dU
        V = model.V - step * dV
        rel = max(_rel_change(U, model.U, scale_U), _rel_change(V, model.V, scale_V))
        return (data.evaluate(FactorModel(U, V)), state.weights), rel

    return _descend(state, data, propose, "factor")


def update_weights(state, data):
    """Inner loop of the weight phase: projected descent on (alpha, beta, w),
    each candidate valued in closed form at the frozen factors.

    The traces ``c_k`` of the Laplacians the factor phase skipped are
    computed here once, at the frozen factors, since a trace computed in
    floating point is not guaranteed to be >= 0.  A user-item weight
    outside the active set is 0 and its ``c_k``, a sum of squares, is not
    computed: it reads 0, so the step leaves the weight at 0.  That is
    exact because the projected step ``max(0 - eta * c_k, 0)`` is 0 for
    every ``c_k >= 0``.  This is the one place that depends on the descent
    rule: a rule that can move a zero weight must compute ``c_k`` for the
    inactive relations.

    The factors stay frozen, so c is read once per phase, through
    :meth:`Problem.weight_costs`, and each candidate's gradient comes
    from :meth:`Problem.weight_gradient` on it.
    """
    if sum(state.weights.counts) == 0:
        return state
    point = _point(state, data, every_path=True)
    costs = data.weight_costs(point, state.weights)

    def propose(state, eta):
        wts = state.weights
        old = (wts.alpha.tolist(), wts.beta.tolist(), wts.w.tolist())
        # the projected step max(theta - eta * grad, 0) in Python floats,
        # which give the bits numpy's elementwise arithmetic gives
        new = [[max(x - eta * g, 0.0) for x, g in zip(*pair)]
               for pair in zip(old, data.weight_gradient(costs, old))]
        rel = max(_weights_rel_change(*pair) for pair in zip(new, old))
        return (point, PathWeights(*new)), rel

    return _descend(state, data, propose, "weight")


def _run_phase(phase, update, state, data):
    """Run one phase; returns its accepted and rejected steps and wall
    time as log-row columns.  Each rejected step halved the phase's step."""
    steps = getattr(state, f"{phase}_steps")
    rejected = getattr(state, f"{phase}_rejected")
    start = time.perf_counter()
    update(state, data)
    return {
        f"{phase}_accepted": getattr(state, f"{phase}_steps") - steps,
        f"{phase}_rejected": getattr(state, f"{phase}_rejected") - rejected,
        f"{phase}_seconds": time.perf_counter() - start,
    }


def train(ratings, rels, hp):
    """Alternating two-phase descent; returns the final TrainState.

    The returned state carries the model, weights, per-outer-iteration
    objective trace (``j_trace``, first entry is the initial objective),
    the accepted-step trace, and one log row per outer iteration with the
    objective and its five terms, the per-block relative changes, each
    phase's step at the end of the iteration, each phase's accepted and
    rejected steps (each rejection halved that phase's step) and wall
    time, and the distinct user-item pairs and the Laplacian products
    each factor candidate evaluated.
    ``converged`` is set on the first outer iteration that accepts a step
    and changes U, V and J each by less than ``outer_tol`` relative to
    the start of the iteration; how the weights move does not count.
    The Laplacians are those ``rels`` carries, as :func:`set_up` fills
    them; a relation set made in memory without them has them built.
    """
    data = build_problem(ratings, rels, hp)
    try:
        return _train(data)
    finally:
        data.close()
        log.info("factor kernels %s", data.kernel_report())


def _train(data):
    """The outer loop of :func:`train` on the Problem ``data``."""
    hp = data.hp
    state = init(hp, (data.n, data.m, *data._counts))
    state.j_value = data.value(_point(state, data), state.weights)
    state.j_trace.append(state.j_value)
    for outer in range(1, hp.max_outer + 1):
        # no candidate changes the factors or the weights in place
        before = (state.model.U, state.model.V, state.weights)
        factor = _run_phase("factor", update_factors, state, data)
        factor_pairs, graph_products = data.n_pairs, data.graph_products
        weight = _run_phase("weight", update_weights, state, data)
        state.outer_iters = outer
        j_start = state.j_trace[-1]
        state.j_trace.append(state.j_value)
        rels_change = {
            "U": _rel_change(state.model.U, before[0]),
            "V": _rel_change(state.model.V, before[1]),
            "alpha": _weights_rel_change(state.weights.alpha.tolist(), before[2].alpha.tolist()),
            "beta": _weights_rel_change(state.weights.beta.tolist(), before[2].beta.tolist()),
            "w": _weights_rel_change(state.weights.w.tolist(), before[2].w.tolist()),
        }
        terms = data.terms(_point(state, data), state.weights)
        state.log_rows.append(
            {
                "iteration": outer,
                "objective": state.j_value,
                **terms,
                **{f"rel_change_{k}": v for k, v in rels_change.items()},
                "factor_step": state.factor_step,
                "weight_step": state.weight_step,
                **factor,
                **weight,
                "factor_pairs": factor_pairs,
                "graph_products": graph_products,
            }
        )
        log.info(
            "iteration %d: J %.10g = fit %.6g + user graph %.6g + item graph %.6g"
            " + relation fit %.6g + ridge %.6g; factor phase %d accepted,"
            " %d rejected, %.3fs on %d pairs and %d graph products;"
            " weight phase %d accepted, %d rejected, %.3fs;"
            " factor step %.6g, weight step %.6g",
            outer, state.j_value, *terms.values(), *factor.values(), factor_pairs,
            graph_products, *weight.values(), state.factor_step, state.weight_step,
        )
        accepted = factor["factor_accepted"] + weight["weight_accepted"]
        rel_j = abs(state.j_value - j_start) / (abs(j_start) + _EPS)
        if accepted and max(rels_change["U"], rels_change["V"], rel_j) < hp.outer_tol:
            state.converged = True
            log.info(
                "converged at iteration %d: relative change of U %.3g, of V %.3g"
                " and of J %.3g, all below outer_tol %g",
                outer, rels_change["U"], rels_change["V"], rel_j, hp.outer_tol,
            )
            break
    return state


LOG_FIELDS = (
    "iteration",
    "objective",
    *TERMS,
    "rel_change_U",
    "rel_change_V",
    "rel_change_alpha",
    "rel_change_beta",
    "rel_change_w",
    "factor_step",
    "weight_step",
    *(f"{phase}_{stat}" for phase in ("factor", "weight")
      for stat in ("accepted", "rejected", "seconds")),
    "factor_pairs",
    "graph_products",
)


def write_training_log(path, state):
    """CSV of the per-outer-iteration log rows, written atomically."""
    import csv
    import io

    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=LOG_FIELDS)
    writer.writeheader()
    for row in state.log_rows:
        # repr(float(x)): numpy 2 scalars repr as "np.float64(...)"
        writer.writerow({k: repr(float(row[k])) if isinstance(row[k], float) else row[k]
                         for k in LOG_FIELDS})
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))
