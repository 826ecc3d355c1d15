"""Cumulant-tensor machinery for partitioned independent component analysis.

Estimate higher-order cumulants, test the structured zero patterns that
independence assumptions impose on them, and recover mixing matrices up
to the block-orthogonal ambiguity group.
"""

from ._rng import substream
from .estimation import (
    DegenerateDataError,
    WhiteningResult,
    center,
    read_csv,
    sample_cumulant,
    sample_moment,
    whiten,
    write_csv,
)
from .groups import (
    BlockClassification,
    BlockLabel,
    BlockStructure,
    ProbeReport,
    classify_blocks,
    conjecture_probe,
    coset_residual,
    graph_automorphism_check,
    is_block_orthogonal,
    is_block_signed_permutation,
    is_signed_permutation,
    nearest_signed_permutation,
    random_block_orthogonal,
    random_orthogonal,
    random_signed_permutation,
)
from .partitions import cumulants_to_moments, enumerate_partitions, moments_to_cumulants
from .patterns import (
    IndependenceGraph,
    MembershipResult,
    PartitionSpec,
    ZeroPattern,
    diagonal_pattern,
    generic_sample,
    intersect_patterns,
    is_member,
    marginal_distinctness,
    mean_independence_pattern,
    pattern_from_graph,
    pattern_from_partition,
    reflectional_pattern,
    sample_membership_tol,
)
from .recovery import (
    DescentError,
    IdentifiabilityReport,
    RecoveryOptions,
    RecoveryReport,
    comon_pipeline,
    estimate_unmixing,
    minimize_off_pattern,
    off_pattern_energy,
    verify_identifiability,
)
# the simulate() dispatcher stays on the pica.simulate module to avoid
# shadowing the submodule name at package level
from .simulate import (
    SourceSpec,
    gen_graph_sources,
    gen_independent_sources,
    gen_partitioned_sources,
    mix,
)
from .tensor import (
    SymmetricTensor,
    hessian_eval,
    marginalize,
    multilinear_transform,
    polynomial_eval,
    tensor_from_entries,
)

__version__ = "0.1.0"
