"""Cartesian Genetic Programming with genotype reordering operators."""

__version__ = "0.1.0"

from .benchmarks import (
    BooleanBenchmark,
    DataSplit,
    RegressionBenchmark,
    boolean_fitness,
    build_boolean,
    build_regression,
    graph_params,
    mae_fitness,
)
from .evolution import ESConfig, RunResult, run_es, select_parent
from .genome import (
    ActiveSet,
    GraphParams,
    Genotype,
    NodeGene,
    decode_active,
    random_genome,
    validate,
)
from .mutation import single_mutation
from .reorder import (
    ReorderStrategy,
    lin_space,
    maybe_reorder,
    reorder_equidistant,
    reorder_leftskew,
    reorder_negbias,
    reorder_original,
    reorder_uniform,
    repair_forward_connections,
)

__all__ = [
    "ActiveSet",
    "BooleanBenchmark",
    "DataSplit",
    "ESConfig",
    "GraphParams",
    "Genotype",
    "NodeGene",
    "RegressionBenchmark",
    "ReorderStrategy",
    "RunResult",
    "boolean_fitness",
    "build_boolean",
    "build_regression",
    "decode_active",
    "graph_params",
    "lin_space",
    "mae_fitness",
    "maybe_reorder",
    "random_genome",
    "reorder_equidistant",
    "reorder_leftskew",
    "reorder_negbias",
    "reorder_original",
    "reorder_uniform",
    "repair_forward_connections",
    "run_es",
    "select_parent",
    "single_mutation",
    "validate",
]
