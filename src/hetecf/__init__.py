"""Collaborative filtering on heterogeneous information networks.

The pipeline: ingest a typed graph, turn meta-paths into PathSim
similarity matrices, derive a bounded rating matrix from a user-item
target path, and fit logistic matrix factorization regularized by the
similarity structure, learning one nonnegative weight per meta-path.
"""

from .graph import (
    GraphFormatError,
    HeteroGraph,
    RatingMatrix,
    RatingMatrixError,
    Relation,
    Schema,
    SchemaError,
    adjacency,
    build_graph,
    content_hash,
    derive_ratings,
    load_graph,
    load_schema,
    save_graph,
    source_digest,
)
from .metapath import (
    MetaPath,
    PathCountMatrix,
    PathError,
    PathGroups,
    PathSpecError,
    RelationSet,
    SimilarityMatrix,
    Step,
    load_path_spec,
    make_path,
    parse_path,
    parse_path_spec,
    path_count,
    pathsim,
    reverse,
)
from .model import (
    FactorModel,
    Hyperparams,
    LaplacianSet,
    NumericalError,
    PathWeights,
    effective_mu,
    laplacian,
    load_model,
    logistic,
    mu_from_density,
    save_model,
)
from .learner import (
    DivergenceError,
    TrainState,
    build_problem,
    grad_factors,
    grad_weights,
    init,
    set_up,
    train,
    update_factors,
    update_weights,
)
from .evaluate import (
    MetricReport,
    SplitSpec,
    mae,
    report_weights,
    rmse,
    run_experiment,
    split,
)
from .synth import SynthSpec, generate, scaling_benchmark

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
