"""Data-parallel gradient synchronisation cost.

Each pipeline stage's weight gradients are all-reduced across the
data-parallel replicas once per iteration.  Different stages use disjoint
device groups, so the synchronisation time is the maximum (not the sum) over
stages; with balanced layer assignment all stages carry roughly the same
gradient volume.
"""

from __future__ import annotations

from repro.cluster.network import NetworkModel
from repro.model.config import ModelConfig
from repro.model.memory import weight_gradient_bytes
from repro.model.transformer import assign_layers

#: Fraction of the gradient all-reduce exposed on the iteration's critical
#: path; the rest overlaps the backward pass, as Megatron/DeepSpeed gradient
#: overlap does.  Planner predictions and executed iterations both use it.
EXPOSED_ALLREDUCE_FRACTION = 0.5


def gradient_allreduce_ms(
    model: ModelConfig,
    data_parallel: int,
    pipeline_parallel: int,
    tensor_parallel: int = 1,
    network: NetworkModel | None = None,
    same_node: bool = False,
) -> float:
    """Per-iteration gradient all-reduce time across data-parallel replicas.

    Args:
        model: Model configuration.
        data_parallel: Number of replicas participating in the all-reduce.
        pipeline_parallel: Number of pipeline stages (determines per-stage
            gradient volume).
        tensor_parallel: Tensor-parallel degree (shards the gradients).
        network: Communication model (defaults to the p4d-like model).
        same_node: Whether the data-parallel group is intra-node.
    """
    if data_parallel <= 1:
        return 0.0
    network = network or NetworkModel()
    assignments = assign_layers(model, pipeline_parallel)
    heaviest_stage_layers = max(assignment.total_layers for assignment in assignments)
    nbytes = weight_gradient_bytes(model, max(heaviest_stage_layers, 1), tensor_parallel)
    return network.allreduce_time_ms(nbytes, data_parallel, same_node=same_node)
