"""Linear joint source-channel coding for three-sender multiple-access
channels with correlated sources.

The package splits into infrastructure (finite-field sampling, joint pmf
algebra, source and channel models) and the constructions built on top:
common-part extraction, identical-linear codebooks with and without
feedback, and the achievable-region evaluators that certify them.
"""

from .channels import (
    build_additive_pair_channel,
    build_fb_parallel_channel,
    build_quaternary_channel,
    transmit,
)
from .coding import (
    build_linear_jscc,
    build_unstructured_jscc,
    candidate_space,
    ml_decode,
    ml_decode_additive_pair,
    monte_carlo_error,
)
from .commonparts import (
    additive_common_search,
    affine_unstructuredness,
    gkw_mutual,
    gkw_pairwise,
    memoryless_unstructuredness,
)
from .gfcore import sample_uniform_matrix, verify_image_probability
from .macfb import (
    FBConfig,
    linear_codebook,
    ptp_simulation,
    run_fb_simulation,
    structure_necessity_probe,
    sumset,
)
from .probcore import (
    ConditionalPMF,
    JointPMF,
    binary_entropy,
    conditional_entropy,
    entropy,
    mutual_information,
)
from .regions import (
    eval_ces2,
    eval_cl2,
    eval_ces3,
    eval_hybrid,
    eval_macfb,
    gamma_star,
    hybrid_example_dist,
    max_product_mi,
    min_tv_to_structured,
    sigma0_frontier,
    sigma0_frontier_points,
    tv_bound_check,
)
from .rng import stream
from .sources import make_additive_triple, make_sigma_gamma_triple, sample_iid

__version__ = "0.1.0"

__all__ = [
    "build_additive_pair_channel",
    "build_fb_parallel_channel",
    "build_quaternary_channel",
    "transmit",
    "build_linear_jscc",
    "build_unstructured_jscc",
    "candidate_space",
    "ml_decode",
    "ml_decode_additive_pair",
    "monte_carlo_error",
    "additive_common_search",
    "affine_unstructuredness",
    "gkw_mutual",
    "gkw_pairwise",
    "memoryless_unstructuredness",
    "sample_uniform_matrix",
    "verify_image_probability",
    "FBConfig",
    "linear_codebook",
    "ptp_simulation",
    "run_fb_simulation",
    "structure_necessity_probe",
    "sumset",
    "ConditionalPMF",
    "JointPMF",
    "binary_entropy",
    "conditional_entropy",
    "entropy",
    "mutual_information",
    "eval_ces2",
    "eval_cl2",
    "eval_ces3",
    "eval_hybrid",
    "eval_macfb",
    "gamma_star",
    "hybrid_example_dist",
    "max_product_mi",
    "min_tv_to_structured",
    "sigma0_frontier",
    "sigma0_frontier_points",
    "tv_bound_check",
    "stream",
    "make_additive_triple",
    "make_sigma_gamma_triple",
    "sample_iid",
    "__version__",
]
