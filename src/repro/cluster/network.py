"""Alpha-beta communication cost model.

Pipeline-parallel point-to-point transfers and data-parallel all-reduces are
modelled with the standard latency/bandwidth (alpha-beta) model:

    time(bytes) = latency + bytes / bandwidth

Two link classes matter for the paper's testbed: NVSwitch within a p4d node
(600 GB/s per GPU pair, sub-microsecond latency) and the 400 Gbps EFA fabric
between nodes.  Collectives add the usual ``2 (p-1) / p`` volume factor for
ring all-reduce.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point link class.

    Attributes:
        name: Human readable name.
        bandwidth: Achievable bandwidth in bytes/s.
        latency_ms: One-way latency in milliseconds.
    """

    name: str
    bandwidth: float
    latency_ms: float

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        check_non_negative("latency_ms", self.latency_ms)

    def transfer_time_ms(self, nbytes: float | np.ndarray) -> float | np.ndarray:
        """Time to move ``nbytes`` across this link, in milliseconds.

        An array of sizes gives the array of their times, each bit-identical
        to the scalar call; a negative entry raises the scalar call's error.
        """
        if np.ndim(nbytes):
            nbytes = np.asarray(nbytes, dtype=float)
            check_non_negative("nbytes", float(np.min(nbytes, initial=0.0)))
        else:
            check_non_negative("nbytes", nbytes)
        return self.latency_ms + nbytes / self.bandwidth * 1e3


#: Intra-node NVSwitch link (per-GPU-pair effective bandwidth).
NVSWITCH = LinkSpec(name="nvswitch", bandwidth=300e9, latency_ms=0.005)

#: Inter-node 400 Gbps EFA link (per-GPU share of node bandwidth).
EFA_400GBPS = LinkSpec(name="efa-400gbps", bandwidth=50e9 / 8 * 8, latency_ms=0.03)


class NetworkModel:
    """Communication times between devices of a cluster.

    The model only distinguishes whether two devices share a node; all
    intra-node pairs use the intra-node link and all inter-node pairs use the
    inter-node link, which matches the symmetric p4d topology.
    """

    def __init__(
        self,
        intra_node: LinkSpec = NVSWITCH,
        inter_node: LinkSpec = EFA_400GBPS,
    ) -> None:
        self.intra_node = intra_node
        self.inter_node = inter_node

    def link_for(self, same_node: bool) -> LinkSpec:
        """Return the link class connecting two devices."""
        return self.intra_node if same_node else self.inter_node

    def p2p_time_ms(self, nbytes: float | np.ndarray, same_node: bool) -> float | np.ndarray:
        """Point-to-point transfer time (activations / gradients between
        pipeline stages), elementwise for an array of sizes."""
        return self.link_for(same_node).transfer_time_ms(nbytes)

    def allreduce_time_ms(self, nbytes: float, participants: int, same_node: bool) -> float:
        """Ring all-reduce time across ``participants`` devices.

        Used for the data-parallel gradient synchronisation and for the
        per-layer tensor-parallel all-reduces.
        """
        if participants < 1:
            raise ValueError(f"participants must be >= 1, got {participants}")
        if participants == 1:
            return 0.0
        link = self.link_for(same_node)
        volume_factor = 2.0 * (participants - 1) / participants
        steps = 2 * (participants - 1)
        return steps * link.latency_ms + nbytes * volume_factor / link.bandwidth * 1e3

    # ------------------------------------------------------------------ serialisation

    def to_dict(self) -> dict[str, Any]:
        """Serialise the link specs (for shipping planners across processes)."""
        return {"intra_node": asdict(self.intra_node), "inter_node": asdict(self.inter_node)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "NetworkModel":
        """Rebuild a :class:`NetworkModel` from :meth:`to_dict` output."""
        return cls(
            intra_node=LinkSpec(**payload["intra_node"]),
            inter_node=LinkSpec(**payload["inter_node"]),
        )
