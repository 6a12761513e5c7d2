"""Communication-optimal data distributions for parallel symmetric
tensor-times-same-vector computation.

Subpackages cover finite-field arithmetic, Steiner (n, r, 3) system
construction and verification, bipartite matching, tetrahedral block
partitioning, sequential tensor kernels and drivers, communication
scheduling, a message-passing simulator with exact cost accounting, and the
communication lower-bound calculators.
"""

from .bounds import check_basic_hbl, check_symm_hbl, lower_bound, opt_solution, optimality_ratio
from .finite_field import Field, field_new
from .matching import BipartiteGraph, max_matching, regular_decompose
from .partition import (
    BlockIndex,
    TetraPartition,
    VectorLayout,
    build_partition,
    pad_dimension,
    storage_count,
    vector_layout,
)
from .schedule import CommSchedule, Demands, alltoall_cost, build_demands, build_schedule
from .simulator import SimReport, compute_report, simulate, verify_run
from .steiner import SteinerSystem, construct_spherical
from .tensor_core import (
    PackedSymTensor,
    cp_gradient,
    hopm,
    random_symmetric,
    random_vector,
    sttsv_symmetric,
    ternary_count,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Field",
    "field_new",
    "SteinerSystem",
    "construct_spherical",
    "BipartiteGraph",
    "max_matching",
    "regular_decompose",
    "BlockIndex",
    "TetraPartition",
    "VectorLayout",
    "build_partition",
    "vector_layout",
    "pad_dimension",
    "storage_count",
    "PackedSymTensor",
    "sttsv_symmetric",
    "ternary_count",
    "hopm",
    "cp_gradient",
    "random_symmetric",
    "random_vector",
    "Demands",
    "CommSchedule",
    "build_demands",
    "build_schedule",
    "alltoall_cost",
    "SimReport",
    "simulate",
    "compute_report",
    "verify_run",
    "check_basic_hbl",
    "check_symm_hbl",
    "opt_solution",
    "lower_bound",
    "optimality_ratio",
]
