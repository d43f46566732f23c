"""Numerical laboratory for heat semigroups, optimal transport, and Brownian
path laws on metric measure spaces."""

__version__ = "0.1.0"

import os

# The runner's --threads pool is the lab's one level of parallelism.  OpenBLAS
# would otherwise start a worker per core that spins beside the pool after
# every large product or eigh, and its thread count also moves the last bits
# of the cone tables.  numpy reads this once, when it is first imported, so
# it must be set before any import below; a value the caller set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .spaces import (
    Circle,
    CollapseMap,
    EuclideanLogConcave,
    FiniteMms,
    Interval,
    PmmSpace,
    Torus,
    bishop_gromov_check,
    mesh_cone,
    theta_comparison,
    weighted_measure,
)
from .transport import (
    DiscreteMeasure,
    entropy_convexity_check,
    kr_dual_bound,
    wasserstein_1d,
    wasserstein_exact,
    wasserstein_grid,
)
from .heat import (
    SpectralKernel,
    entropy_identity_check,
    feller_check,
    get_kernel,
    graph_generator,
    mixing_bound_check,
    on_diagonal,
    relative_entropy,
    semigroup_apply,
    set_generator,
    spectral_gap,
)
from .kolmogorov import kstest_uniform
from .paths import (
    PathEnsemble,
    euler_maruyama,
    extract_fdd,
    kolmogorov_moment,
    modulus_statistic,
    sample_kernel_chain,
)
from .convergence import (
    LipschitzTestFunction,
    SpaceFamily,
    entropy_tightness,
    fdd_convergence_report,
    initial_law_w1,
    mcshane_extend,
    pathlaw_w1,
    pmg_test,
)
