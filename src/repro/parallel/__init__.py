"""Multi-GPU parallelization of the tree code (Sec. III-B).

Combines Peano-Hilbert SFC domain decomposition with the Local Essential
Tree (LET) method exactly as the paper describes:

- hierarchical parallel sampling (px x py DD-processes) computes domain
  boundaries from weighted key samples (Sec. III-B1);
- flop-weighted load balancing with the 30% particle-count cap;
- boundary trees are extracted from each local tree and allgathered;
  they double as LET structures for distant ranks;
- a symmetric sufficiency check decides which (near-neighbour) ranks
  need full LETs, without any request handshake;
- received LETs are processed *separately* against the local groups
  (no merge step), and partial forces are summed.
"""

from .loadbalance import cut_weighted_with_cap
from .sampling import sample_weighted_keys, serial_sample_boundaries, hierarchical_sample_boundaries
from .decomposition import DomainDecomposition, EmptyDomainError, domain_update
from .exchange import exchange_particles
from .lettree import LETData, prune_tree, build_let_for_box, boundary_structure, boundary_sufficient_for
from .gravity_parallel import DistributedForceResult, distributed_forces
from .feedback import COST_SOURCES, CostModel, LB_MODES, imbalance_ratio
from .statistics import RunStatistics, aggregate_rank_histories, run_statistics

__all__ = [
    "cut_weighted_with_cap",
    "sample_weighted_keys",
    "serial_sample_boundaries",
    "hierarchical_sample_boundaries",
    "DomainDecomposition",
    "EmptyDomainError",
    "domain_update",
    "exchange_particles",
    "LETData",
    "prune_tree",
    "build_let_for_box",
    "boundary_structure",
    "boundary_sufficient_for",
    "DistributedForceResult",
    "distributed_forces",
    "CostModel",
    "LB_MODES",
    "COST_SOURCES",
    "imbalance_ratio",
    "RunStatistics",
    "aggregate_rank_histories",
    "run_statistics",
]
