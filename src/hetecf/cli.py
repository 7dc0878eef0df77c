"""Command-line interface.

Subcommands: validate, train, evaluate, predict.
Every subcommand accepts ``--config <file.json>`` supplying defaults for
its flags; explicit flags override the config file, and keys no
subcommand reads (such as ``cache_dir``, ``optimizer`` and ``variant``)
are ignored.
Exit codes: 0 success, 2 invalid input (files, schema, paths, arguments,
model files), 3 numerical failure (divergence or non-finite objective).
Any other exception is an internal error and propagates.

Output artifacts (model files, CSVs) are written atomically via
a temporary file and rename.

Set-up of ``train`` and ``evaluate``: after the graph is loaded,
``learner.set_up`` builds the ratings, the relation set and its
Laplacians on two threads, and, for ``train``, the graph's
``content_hash``.  ``-v`` then logs one INFO line per path, in declared
order, and one line of totals.

``train`` records in the model file the ``source_digest`` of the schema,
nodes and edges files it parsed, and the user and item ids in index
order.  ``predict`` answers from the model file alone when the user is
one of those stored ids and the files it is given have that digest, that
is, when they are byte-identical to the trained ones: they would parse to
the same graph, pass the graph-hash check and give the same ids.  In
every other case it parses the files, compares their ``content_hash``
with the model's, and looks the user up in the parsed graph.  Both paths
print the same answer; with ``-v``, one INFO line names the path that
answered and, for the parse path, why the model file could not.
"""

import argparse
import functools
import json
import logging
import sys
import time

import numpy as np

from . import evaluate as evaluate_mod
from . import learner, metapath
from .graph import (
    GraphFormatError,
    RatingMatrixError,
    SchemaError,
    content_hash,
    load_graph,
    source_digest,
)
from .model import (
    Hyperparams,
    ModelFormatError,
    NumericalError,
    atomic_write_bytes,
    effective_mu,
    load_model,
    save_model,
)

log = logging.getLogger("hetecf")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_INPUT_ERRORS = (
    GraphFormatError,
    SchemaError,
    RatingMatrixError,
    metapath.PathError,
    ModelFormatError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    json.JSONDecodeError,
    UnicodeDecodeError,
)


class CliError(ValueError):
    """Bad command-line usage not caught by argparse."""


def _load_config(path):
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise CliError(f"config {path!r} must hold a JSON object")
    return cfg


# Settings that name a file (or, for target_path, a meta-path): a config
# value for one of them must be a string.
_STRING_SETTINGS = frozenset((
    "nodes", "edges", "schema", "paths", "target_path", "model", "model_out",
    "log_out", "weights_out", "report_out",
))


def _setting(args, cfg, name, default=None):
    """Flag value if given, else config value, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    value = cfg.get(name, default)
    if name in _STRING_SETTINGS and value is not None and not isinstance(value, str):
        raise CliError(f"{name}: expected a string, got {value!r}")
    return value


def _require(args, cfg, name):
    value = _setting(args, cfg, name)
    if value is None:
        raise CliError(f"missing required setting {name!r} (flag or config)")
    return value


def _graph_files(args, cfg):
    """The (nodes, edges, schema) paths, in ``load_graph`` argument order."""
    return tuple(_require(args, cfg, name) for name in ("nodes", "edges", "schema"))


def _load_graph_from(args, cfg):
    return load_graph(*_graph_files(args, cfg))


def _hyperparams(args, cfg):
    try:
        base = dict(cfg.get("hyperparams", {}))
        for key in ("d", "lam", "mu", "learn_rate", "inner_tol", "outer_tol",
                    "max_inner", "max_outer", "seed"):
            value = getattr(args, key, None)
            if value is not None:
                base[key] = value
        return Hyperparams(**base)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid hyperparameters: {exc}") from None


def _number(value, kind, name, minimum=None):
    """``value`` as an int or float (``kind``), at least ``minimum``.  An
    int setting refuses a bool or a float, which ``int`` would truncate."""
    if kind is int and isinstance(value, (bool, float)):
        raise CliError(f"{name}: {value!r} is not a valid int")
    try:
        number = kind(value)
    except (TypeError, ValueError):
        raise CliError(f"{name}: {value!r} is not a valid {kind.__name__}") from None
    if minimum is not None and not number >= minimum:
        raise CliError(f"{name}: {value!r} is below {minimum}")
    return number


def _list_setting(args, cfg, name, default, convert):
    """Setting ``name`` as a list, each entry put through ``convert``: a
    comma list (flag or config string, blank entries dropped) or a JSON
    list (config).  Any other value, an empty list and an entry equal to
    an earlier one once converted are refused."""
    value = _setting(args, cfg, name, default)
    if isinstance(value, str):
        value = [x.strip() for x in value.split(",") if x.strip()]
    if not isinstance(value, list):
        raise CliError(f"{name}: expected a comma list or a list, got {value!r}")
    if not value:
        raise CliError(f"{name}: the list is empty")
    items = [convert(x) for x in value]
    for i, item in enumerate(items):
        if item in items[:i]:
            raise CliError(f"{name}: {value[i]!r} repeats an earlier entry")
    return items


def _method(name):
    if name in evaluate_mod.METHODS:
        return name
    raise CliError(f"methods: unknown method {name!r}; known: {', '.join(evaluate_mod.METHODS)}")


def cmd_validate(args):
    cfg = _load_config(args.config)
    graph = _load_graph_from(args, cfg)
    print(graph.summary())
    print(f"graph hash: {content_hash(graph)}")
    return EXIT_OK


def _prepare_training(args, cfg, graph_tasks=()):
    """(graph, path groups, ratings, relation set with its Laplacians, then
    the result of each callable of ``graph_tasks`` on the graph) of a
    ``train`` or ``evaluate`` call, set up by ``learner.set_up``."""
    start = time.perf_counter()
    graph = _load_graph_from(args, cfg)
    load_s = time.perf_counter() - start
    groups = metapath.load_path_spec(_require(args, cfg, "paths"), graph.schema)
    target = metapath.parse_path(_require(args, cfg, "target_path"), graph.schema)
    inputs = learner.set_up(graph, groups, target, graph_tasks)
    for group, path, nnz, instances, seconds, thread in inputs.paths:
        log.info("set-up: %s path %s: nnz of counts %d, similarity %d%s; %.6g instances,"
                 " %.4fs on %s", group, path, *nnz[:2],
                 "" if group == "UI" else f", Laplacian {nnz[2]}", instances, seconds, thread)
    log.info(
        "set-up: load %.4fs; ratings %.4fs and relation set with Laplacians %.4fs"
        " of task time, %.4fs wall on %s",
        load_s, inputs.ratings_seconds, sum(seconds for *_, seconds, _ in inputs.paths),
        inputs.wall_seconds, "two threads" if inputs.two_threads else "one thread",
    )
    return (graph, groups, inputs.ratings, inputs.rels, *inputs.results)


def cmd_train(args):
    cfg = _load_config(args.config)
    model_out = _require(args, cfg, "model_out")
    log_out = _setting(args, cfg, "log_out")
    weights_out = _setting(args, cfg, "weights_out")
    graph, groups, ratings, rels, ghash = _prepare_training(args, cfg, [content_hash])
    hp = _hyperparams(args, cfg)
    log.info(
        "training: %d users, %d items, %d observed ratings, mu=%g, d=%d",
        ratings.n, ratings.m, ratings.nnz, effective_mu(hp, ratings), hp.d,
    )
    state = learner.train(ratings, rels, hp)
    schema = graph.schema
    source = (graph.source_digest, graph.node_ids[schema.user_type],
              graph.node_ids[schema.item_type])
    save_model(model_out, state.model, state.weights, hp, ghash, source)
    print(
        f"trained {state.outer_iters} outer iterations "
        f"({state.factor_steps} factor steps, {state.weight_steps} weight steps), "
        f"objective {state.j_trace[0]:.6g} -> {state.j_value:.6g}, "
        f"converged={state.converged}"
    )
    print(f"model written to {model_out}")
    if log_out:
        learner.write_training_log(log_out, state)
        print(f"training log written to {log_out}")
    rows = evaluate_mod.report_weights(state.weights, groups)
    for group, path, value in rows:
        print(f"weight\t{group}\t{value:.4f}\t{path}")
    if weights_out:
        atomic_write_bytes(weights_out, evaluate_mod.weights_csv(rows).encode("utf-8"))
        print(f"weight report written to {weights_out}")
    return EXIT_OK


def cmd_evaluate(args):
    cfg = _load_config(args.config)
    report_out = _setting(args, cfg, "report_out")
    _, _, ratings, rels = _prepare_training(args, cfg)
    methods = _list_setting(args, cfg, "methods", list(evaluate_mod.METHODS), _method)
    fractions = _list_setting(args, cfg, "fractions", [0.4, 0.6],
                              lambda x: _number(x, float, "fractions"))
    if not all(0.0 < f < 1.0 for f in fractions):
        raise CliError(f"fractions must lie in (0, 1), got {fractions}")
    d_values = _list_setting(args, cfg, "d_values", [5, 10],
                             lambda x: _number(x, int, "d_values", 1))
    trials = _number(_setting(args, cfg, "trials", 10), int, "trials", 1)
    seed = _number(_setting(args, cfg, "seed", 0), int, "seed", 0)
    hp = _hyperparams(args, cfg)
    report = evaluate_mod.run_experiment(
        ratings,
        rels,
        methods=methods,
        fractions=fractions,
        d_values=d_values,
        trials=trials,
        seed=seed,
        hp=hp,
    )
    print(report.format_table())
    if report_out:
        atomic_write_bytes(report_out, report.to_csv().encode("utf-8"))
        print(f"report written to {report_out}")
    return EXIT_OK


def cmd_predict(args):
    cfg = _load_config(args.config)
    files = _graph_files(args, cfg)
    try:
        model, _, header = load_model(_require(args, cfg, "model"))
    except (CliError, *_INPUT_ERRORS):
        load_graph(*files)  # a bad graph file is reported before a bad model
        raise
    answer, reason = _stored_answer(header, files, _setting(args, cfg, "user"))
    if answer is None:
        answer = _parsed_answer(model, header, load_graph(*files), args, cfg)
        log.info("predict: answered from the parsed graph files: %s", reason)
    else:
        log.info("predict: answered from the model file: %s", reason)
    index, item_ids = answer
    k = _number(_setting(args, cfg, "top_k", 10), int, "top_k", 1)
    scores = model.predict_pairs(
        np.full(len(item_ids), index), np.arange(len(item_ids))
    )
    for item_id, score in top_k(item_ids, scores, k):
        print(f"{item_id}\t{score:.10g}")
    return EXIT_OK


def top_k(item_ids, scores, k):
    """The ``k`` (item id, score) pairs of highest score, equal scores in
    item-id order: ``sorted(zip(item_ids, scores), key=lambda t: (-t[1],
    t[0]))[:k]`` for distinct ids and scores that are not NaN.

    Only the candidates, the items that score at least the k-th highest
    score, are sorted by that key; ties at the k-th place are all among
    them.  The k-th score comes from a sort of the plain floats: with the
    selection, an eighth of the time of sorting 600 items by the key.
    """
    values = scores.tolist()
    picked = range(len(values))
    if k < len(values):
        picked = np.flatnonzero(scores >= sorted(values)[-k]).tolist()
    candidates = [(item_ids[j], values[j]) for j in picked]
    return sorted(candidates, key=lambda t: (-t[1], t[0]))[:k]


def _stored_answer(header, files, user_id):
    """((user index, item ids) from the model header, or None; the reason).

    The answer is None unless the header records the user among its ids
    and the files are byte-identical to the ones the model was trained on.
    """
    if "source_digest" not in header:
        return None, "the model records no source digest"
    if user_id is None:
        return None, "no user given"
    try:
        index = header["user_ids"].index(str(user_id))
    except ValueError:
        return None, f"user {str(user_id)!r} is not a stored user id"
    try:
        if source_digest(*files) != header["source_digest"]:
            return None, "the files' source digest differs from the model's"
    except OSError:  # an unreadable file: the parse path reports it
        return None, "a graph file could not be read"
    return (index, header["item_ids"]), "the files' source digest matches"


def _parsed_answer(model, header, graph, args, cfg):
    """(user index, item ids) from the parsed graph, after its checks."""
    ghash = content_hash(graph)
    if header.get("graph_hash") and header["graph_hash"] != ghash:
        raise CliError(
            "model was trained on a different graph "
            f"(model hash {header['graph_hash'][:12]}..., current {ghash[:12]}...)"
        )
    user_id = _require(args, cfg, "user")
    try:
        node_type, index = graph.node_index(str(user_id))
    except KeyError as exc:
        raise CliError(exc.args[0]) from None
    if node_type != graph.schema.user_type:
        raise CliError(
            f"node {user_id!r} has type {node_type!r}, not the user type "
            f"{graph.schema.user_type!r}"
        )
    item_ids = graph.node_ids[graph.schema.item_type]
    if model.n != graph.node_count(graph.schema.user_type) or model.m != len(item_ids):
        raise CliError(
            f"model shape ({model.n}, {model.m}) does not match graph "
            f"({graph.node_count(graph.schema.user_type)}, {len(item_ids)})"
        )
    return index, item_ids


def _add_input_flags(p):
    p.add_argument("--config")
    p.add_argument("--nodes", help="nodes file (<id>\\t<type> per line)")
    p.add_argument("--edges", help="edges file (<src>\\t<dst>\\t<relation>[\\t<w>])")
    p.add_argument("--schema", help="schema file (nodetype/relation directives)")


def _add_hp_flags(p):
    p.add_argument("--d", type=int, help="latent dimension")
    p.add_argument("--lam", type=float, help="ridge weight")
    p.add_argument("--mu", type=float,
                   help="relation-fit weight (default: observed density)")
    p.add_argument("--learn-rate", dest="learn_rate", type=float,
                   help="initial step of both descent phases, in (0, 1) (default 0.2)")
    p.add_argument("--inner-tol", dest="inner_tol", type=float)
    p.add_argument("--outer-tol", dest="outer_tol", type=float)
    p.add_argument("--max-inner", dest="max_inner", type=int)
    p.add_argument("--max-outer", dest="max_outer", type=int)
    p.add_argument("--seed", type=int)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser; built once per process, as parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hetecf",
        description="Heterogeneous-network collaborative filtering",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate the graph files")
    _add_input_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="train a model and write it to disk")
    _add_input_flags(p)
    p.add_argument("--paths")
    p.add_argument("--target-path", dest="target_path",
                   help="user->item meta-path whose similarities are the ratings")
    p.add_argument("--model-out", dest="model_out")
    p.add_argument("--log-out", dest="log_out", help="training log CSV")
    p.add_argument("--weights-out", dest="weights_out", help="weight report CSV")
    _add_hp_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run the hold-out protocol grid")
    _add_input_flags(p)
    p.add_argument("--paths")
    p.add_argument("--target-path", dest="target_path")
    p.add_argument("--methods", help="comma list from: " + ",".join(evaluate_mod.METHODS))
    p.add_argument("--fractions", help="comma list of training fractions")
    p.add_argument("--d-values", dest="d_values", help="comma list of dimensions")
    p.add_argument("--trials", type=int)
    p.add_argument("--report-out", dest="report_out")
    _add_hp_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="top-k items for one user")
    _add_input_flags(p)
    p.add_argument("--model")
    p.add_argument("--user")
    p.add_argument("--top-k", dest="top_k", type=int)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except learner.DivergenceError as exc:
        log.error("training diverged: %s", exc)
        return EXIT_NUMERICAL
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except (CliError, *_INPUT_ERRORS) as exc:
        log.error("%s", exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
