"""Synthetic heterogeneous networks and the training-time scaling benchmark.

``generate`` links every (source, target) pair of each relation
independently with the relation's probability (default 0.2), so edge
counts are Binomial(pairs, p).  The default schema mirrors a
bibliographic network: Author / Paper / Conf / Term with writes,
published_in, contains, and cites relations, user = Author,
item = Conf.
"""

import math
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from . import learner, metapath
from .graph import Schema, Relation, build_graph

DEFAULT_LINK_PROB = 0.2


def default_schema():
    return Schema(
        node_types=("Author", "Paper", "Conf", "Term"),
        user_type="Author",
        item_type="Conf",
        relations=(
            Relation("writes", "Author", "Paper"),
            Relation("published_in", "Paper", "Conf"),
            Relation("contains", "Paper", "Term"),
            Relation("cites", "Paper", "Paper"),
        ),
    )


def default_paths(schema):
    """A small benchmark path set on the default schema."""
    text = "\n".join(
        [
            "UU: Author -writes-> Paper <-writes- Author",
            "II: Conf <-published_in- Paper -published_in-> Conf",
            "UI: Author -writes-> Paper -cites-> Paper -published_in-> Conf",
        ]
    )
    return metapath.parse_path_spec(text, schema)


def default_target_path(schema):
    return metapath.parse_path(
        "Author -writes-> Paper -published_in-> Conf", schema
    )


@dataclass
class SynthSpec:
    """Node counts per type plus per-relation link probabilities."""

    schema: Schema = field(default_factory=default_schema)
    counts: dict = None
    link_prob: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.counts is None:
            self.counts = {"Author": 40, "Paper": 60, "Conf": 12, "Term": 20}
        for t in self.schema.node_types:
            if self.counts.get(t, 0) < 1:
                raise ValueError(f"need at least one node of type {t!r}")
        for name, p in self.link_prob.items():
            self.schema.relation(name)  # raises on unknown relation
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"link probability for {name!r} outside [0, 1]")

    def prob(self, relation):
        return self.link_prob.get(relation, DEFAULT_LINK_PROB)

    def scaled(self, factor):
        counts = {
            t: max(1, int(round(c * factor))) for t, c in self.counts.items()
        }
        return SynthSpec(self.schema, counts, dict(self.link_prob), self.seed)


def generate(spec):
    """Seeded random network: independent Bernoulli links per relation."""
    rng = np.random.default_rng(spec.seed)
    nodes = []
    firsts = [t[:1].lower() for t in spec.schema.node_types]
    if len(set(firsts)) == len(firsts):
        prefix = dict(zip(spec.schema.node_types, firsts))
    else:  # initials collide; fall back to full type names
        prefix = {t: t.lower() + "_" for t in spec.schema.node_types}
    for t in spec.schema.node_types:
        nodes.extend((f"{prefix[t]}{i}", t) for i in range(spec.counts[t]))
    edges = []
    for rel in spec.schema.relations:
        ns, nt = spec.counts[rel.source], spec.counts[rel.target]
        p = spec.prob(rel.name)
        if p <= 0.0:
            continue
        linked = rng.random((ns, nt)) < p
        src, dst = np.nonzero(linked)
        edges.extend(
            (f"{prefix[rel.source]}{s}", f"{prefix[rel.target]}{t}", rel.name)
            for s, t in zip(src, dst)
        )
    return build_graph(spec.schema, nodes, edges)


@dataclass
class TimingRow:
    d: int
    n: int
    m: int
    edges: int
    iterations: int
    seconds_median: float
    seconds_min: float
    seconds_max: float


def _cell_inputs(spec):
    """(ratings, relation set with its Laplacians, edge count) of one
    benchmark cell's network."""
    graph = generate(spec)
    inputs = learner.set_up(graph, default_paths(spec.schema), default_target_path(spec.schema))
    return inputs.ratings, inputs.rels, sum(m.nnz for m in graph.matrices.values())


# Shortest timed sample: a cell whose training run is quicker than this is
# timed over a batch of back-to-back runs, and the sample is their mean.
# Single runs of ~10 ms vary by up to 1.5x on a shared host.
MIN_SAMPLE_SECONDS = 0.1

# The d of every cell of the network-size sweep.
SIZE_SWEEP_D = 10


def _time_training(ratings, rels, hp, runs):
    """Mean wall-clock seconds of ``runs`` back-to-back trainings, and the
    last run's accepted step count."""
    t0 = time.perf_counter()
    for _ in range(runs):
        state = learner.train(ratings, rels, hp)
    return (time.perf_counter() - t0) / runs, state.factor_steps + state.weight_steps


def scaling_benchmark(
    base_spec=None,
    d_values=(5, 10, 20, 40),
    size_multipliers=(1.0, 1.5, 2.0, 3.0),
    hp=None,
    repeats=3,
):
    """Two sweeps with fixed iteration caps: time vs d at the base size,
    then time vs network size at d = ``SIZE_SWEEP_D``.

    Returns a list of TimingRow, one per cell, with the median, min and
    max over ``repeats`` samples of the wall-clock time of one training
    run; training cost is linear in d and in the user-item grid size, so
    both sweeps should regress linearly.  A training run starts from its
    cell's ratings and relation set with Laplacians, which ``learner.set_up``
    builds once per cell, outside the timed runs.  A sample averages
    back-to-back runs lasting at least MIN_SAMPLE_SECONDS (the batch size
    is set by an untimed first run per cell), and the samples go
    round-robin over the cells, so a stretch of host load or a clock
    change is shared by every cell instead of shifting one cell's median.
    """
    from .model import Hyperparams

    base_spec = base_spec or SynthSpec()
    hp = hp or Hyperparams(
        learn_rate=0.05, max_inner=5, max_outer=3, inner_tol=1e-9, outer_tol=1e-9
    )
    cells = []
    for spec, d in [(base_spec, d) for d in d_values] + [
        (base_spec.scaled(factor), SIZE_SWEEP_D) for factor in size_multipliers
    ]:
        ratings, rels, edges = _cell_inputs(spec)
        hp_cell = hp.with_overrides(d=int(d))
        first, _ = _time_training(ratings, rels, hp_cell, 1)
        runs = max(1, math.ceil(MIN_SAMPLE_SECONDS / max(first, 1e-9)))
        cells.append((ratings, rels, edges, hp_cell, runs))
    times = [[] for _ in cells]
    iterations = [0] * len(cells)
    for _ in range(repeats):
        for k, (ratings, rels, _, hp_cell, runs) in enumerate(cells):
            seconds, iterations[k] = _time_training(ratings, rels, hp_cell, runs)
            times[k].append(seconds)
    return [
        TimingRow(
            d=hp_cell.d,
            n=ratings.n,
            m=ratings.m,
            edges=int(edges),
            iterations=int(its),
            seconds_median=float(median(ts)),
            seconds_min=float(min(ts)),
            seconds_max=float(max(ts)),
        )
        for (ratings, _, edges, hp_cell, _), ts, its in zip(cells, times, iterations)
    ]
