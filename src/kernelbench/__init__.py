"""Graph proximity/distance measure families and a clustering benchmark."""

__version__ = "0.1.0"

from .clustering import (
    Dendrogram,
    Partition,
    adjusted_rand_index,
    cut_dendrogram,
    ward_cluster,
    ward_linkage,
)
from .families import (
    FAMILIES,
    FAMILY_NAMES,
    DistanceMatrix,
    ProximityMatrix,
    family,
)
from .generators import (
    BlockModelSpec,
    block_model_spec,
    generate,
    uniform_spec,
)
from .graph import (
    Graph,
    build_graph,
    is_connected,
    laplacian,
    shortest_path_matrix,
)
from .measures import FamilyEvaluator, log_kernel
from .evaluation import (
    RejectCurve,
    Statistic,
    SweepResult,
    average_reject_curves,
    parameter_grid,
    reject_curve,
    reject_experiment,
    shutdown_pool,
    sweep_graphs,
    sweep_task,
)
from .spectral import (
    SymmetricEigen,
    solve_linear,
    sym_eigen,
)
from .datasets import (
    DatasetDescriptor,
    dataset_descriptor,
    load_dataset,
    load_graph,
    registry,
)
from .transforms import (
    clustering_sqdist,
    distance_to_kernel,
    proximity_to_distance,
    reject_distance,
)
