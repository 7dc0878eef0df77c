"""Which hetecf functions the traced run wraps, and the per-layer metrics.

Each metric is derived from the spans of one traced pass.  ``_s`` is
inclusive wall time summed over calls, ``_self_s`` excludes the time of
traced callees, counts are whole numbers.  A function the package no
longer has reports 0 and is listed as absent.
"""

import os

from tracer import outermost, summarize


def _nnz_of_graph(args, kwargs, graph):
    return {"edges": int(sum(m.nnz for m in graph.matrices.values()))}


# The benchmark's own operations, as roots that group the program's spans.
OPERATIONS = {
    f"bench.{op}": ("workloads", f"Session.{op}", None)
    for op in ("setup", "train", "evaluate", "predict")
}

TARGETS = {
    "cli.main": ("hetecf.cli", "main", None),
    "graph.load_graph": ("hetecf.graph", "load_graph", _nnz_of_graph),
    "graph.content_hash": ("hetecf.graph", "content_hash", None),
    "graph.derive_ratings": ("hetecf.graph", "derive_ratings", lambda a, k, r: {"nnz": int(r.nnz)}),
    "metapath.path_count": ("hetecf.metapath", "path_count",
                            lambda a, k, r: {"nnz": int(r.matrix.nnz)}),
    "metapath.pathsim": ("hetecf.metapath", "pathsim", None),
    "metapath.cached_similarity": ("hetecf.metapath", "cached_similarity",
                                   lambda a, k, r: {"status": r[1]}),
    "metapath.write_similarity": ("hetecf.metapath", "write_similarity",
                                  lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    "metapath.read_similarity": ("hetecf.metapath", "read_similarity", None),
    "model.laplacian": ("hetecf.model", "laplacian", lambda a, k, r: {"nnz": int(r.nnz)}),
    "model.objective": ("hetecf.model", "objective", None),
    "model.save_model": ("hetecf.model", "save_model", None),
    "model.load_model": ("hetecf.model", "load_model", None),
    "model.predict_pairs": ("hetecf.model", "FactorModel.predict_pairs",
                            lambda a, k, r: {"pairs": int(len(r))}),
    "learner.train": ("hetecf.learner", "train", lambda a, k, r: {
        "factor_steps": int(r.factor_steps),
        "weight_steps": int(r.weight_steps),
        "halvings": int(r.halvings),
    }),
    "learner.build_problem": ("hetecf.learner", "build_problem", None),
    "learner.update_factors": ("hetecf.learner", "update_factors", None),
    "learner.update_weights": ("hetecf.learner", "update_weights", None),
    "learner.grad_factors": ("hetecf.learner", "grad_factors", None),
    "evaluate.run_experiment": ("hetecf.evaluate", "run_experiment", None),
    "evaluate.split": ("hetecf.evaluate", "split", None),
}

# name -> unit, in report order
PER_LAYER = {
    "graph.load_graph_s": "s",
    "graph.load_graph_calls": "count",
    "graph.content_hash_s": "s",
    "graph.content_hash_calls": "count",
    "graph.derive_ratings_s": "s",
    "graph.edges": "count",
    "graph.ratings_nnz": "count",
    "metapath.path_count_s": "s",
    "metapath.path_count_nnz": "count",
    "metapath.pathsim_s": "s",
    "metapath.write_similarity_s": "s",
    "metapath.cache_bytes_written": "bytes",
    "metapath.read_similarity_s": "s",
    "metapath.cache_hit_ratio": "ratio",
    "model.laplacian_s": "s",
    "model.laplacian_nnz": "count",
    "model.objective_s": "s",
    "model.objective_calls": "count",
    "learner.grad_factors_s": "s",
    "learner.grad_factors_calls": "count",
    "learner.factor_phase_self_s": "s",
    "learner.weight_phase_self_s": "s",
    "learner.build_problem_s": "s",
    "learner.train_s": "s",
    "learner.factor_steps": "count",
    "learner.weight_steps": "count",
    "learner.halvings": "count",
    "learner.accept_ratio": "ratio",
    "model.save_model_s": "s",
    "model.load_model_s": "s",
    "model.predict_pairs_s": "s",
    "model.predict_pairs_pairs": "count",
    "evaluate.run_experiment_s": "s",
    "evaluate.split_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

_PHASES = ("learner.update_factors", "learner.update_weights")


def layer_metrics(spans):
    """Per-layer metrics of one pass (all but ``trace.overhead_s``)."""
    s = summarize(spans)

    def entry(name):
        return s.get(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "infos": []})

    def info_sum(name, key):
        return sum(i.get(key, 0) for i in entry(name)["infos"])

    statuses = [i.get("status") for i in entry("metapath.cached_similarity")["infos"]]
    lookups = sum(st in ("cached", "computed") for st in statuses)
    candidates = sum(
        1 for sp in spans
        if sp.name == "model.objective" and sp.parent >= 0 and spans[sp.parent].name in _PHASES
    )
    steps = info_sum("learner.train", "factor_steps") + info_sum("learner.train", "weight_steps")
    edges = [i["edges"] for i in entry("graph.load_graph")["infos"]]
    ratings = [i["nnz"] for i in entry("graph.derive_ratings")["infos"]]
    return {
        "graph.load_graph_s": entry("graph.load_graph")["seconds"],
        "graph.load_graph_calls": entry("graph.load_graph")["calls"],
        "graph.content_hash_s": entry("graph.content_hash")["seconds"],
        "graph.content_hash_calls": entry("graph.content_hash")["calls"],
        "graph.derive_ratings_s": entry("graph.derive_ratings")["seconds"],
        "graph.edges": max(edges, default=0),
        "graph.ratings_nnz": max(ratings, default=0),
        "metapath.path_count_s": entry("metapath.path_count")["seconds"],
        "metapath.path_count_nnz": info_sum("metapath.path_count", "nnz"),
        "metapath.pathsim_s": entry("metapath.pathsim")["seconds"],
        "metapath.write_similarity_s": entry("metapath.write_similarity")["seconds"],
        "metapath.cache_bytes_written": info_sum("metapath.write_similarity", "bytes"),
        "metapath.read_similarity_s": entry("metapath.read_similarity")["seconds"],
        "metapath.cache_hit_ratio": statuses.count("cached") / lookups if lookups else 0.0,
        "model.laplacian_s": entry("model.laplacian")["seconds"],
        "model.laplacian_nnz": info_sum("model.laplacian", "nnz"),
        "model.objective_s": entry("model.objective")["seconds"],
        "model.objective_calls": entry("model.objective")["calls"],
        "learner.grad_factors_s": entry("learner.grad_factors")["seconds"],
        "learner.grad_factors_calls": entry("learner.grad_factors")["calls"],
        "learner.factor_phase_self_s": entry("learner.update_factors")["self_seconds"],
        "learner.weight_phase_self_s": entry("learner.update_weights")["self_seconds"],
        "learner.build_problem_s": entry("learner.build_problem")["seconds"],
        "learner.train_s": entry("learner.train")["seconds"],
        "learner.factor_steps": info_sum("learner.train", "factor_steps"),
        "learner.weight_steps": info_sum("learner.train", "weight_steps"),
        "learner.halvings": info_sum("learner.train", "halvings"),
        "learner.accept_ratio": steps / candidates if candidates else 0.0,
        "model.save_model_s": entry("model.save_model")["seconds"],
        "model.load_model_s": entry("model.load_model")["seconds"],
        "model.predict_pairs_s": entry("model.predict_pairs")["seconds"],
        "model.predict_pairs_pairs": info_sum("model.predict_pairs", "pairs"),
        "evaluate.run_experiment_s": entry("evaluate.run_experiment")["seconds"],
        "evaluate.split_s": entry("evaluate.split")["seconds"],
        "cli.self_s": entry("cli.main")["self_seconds"],
    }


def by_operation(spans):
    """Inclusive seconds per traced function inside each benchmark
    operation (``bench.setup``, ``bench.train``, ...), summed over its calls.

    Only the outermost span of a name inside an operation counts, and
    ``cli.main`` gives the operation's total as the program sees it.
    """
    root_of = []
    for sp in spans:  # a parent always precedes its children
        root_of.append(root_of[sp.parent] if sp.parent >= 0 else sp)
    out = {}
    for i, sp in enumerate(spans):
        root = root_of[i]
        if root is sp or not root.name.startswith("bench."):
            continue
        if outermost(spans, i):
            op = out.setdefault(root.name[len("bench."):], {})
            op[sp.name] = op.get(sp.name, 0.0) + (sp.end - sp.start)
    return out
