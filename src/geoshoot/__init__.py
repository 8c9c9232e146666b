"""Diffeomorphic landmark matching by geodesic shooting on an N-particle
Hamiltonian system."""

from .analysis import (
    DIVERGED,
    ClusterVerdict,
    DistanceRecord,
    ExactnessRow,
    SweepGrid,
    cluster_test,
    convergence_sweep,
    exact_vs_inexact,
    iso_invariance_check,
    predict,
    shape_distance,
    triangle_inequality_audit,
)
from .errors import (
    ConfigurationError,
    DegenerateConfigurationError,
    DivergenceError,
    GeoshootError,
)
from .integrator import EvolveConfig, EvolveResult, evolve
from .io import (
    RunManifest,
    load_template,
    match_result_to_dict,
    save_match_result,
    save_template,
    write_manifest,
    write_sweep_csv,
    write_trajectory_csv,
)
from .kernels import (
    KernelFamily,
    KernelSpec,
    gram_matrix,
    kernel_derivative,
    kernel_value,
    pairwise_distances,
)
from .particles import (
    ParticleState,
    SystemSpec,
    conserved_quantities,
    hamiltonian,
    inexactness_energy,
    rhs,
    velocity_field,
)
from .shapes import (
    LandmarkTemplate,
    PlanarIsometry,
    circle,
    circle_ellipse_hybrid,
    ellipse_rot_shift,
    heart4,
    square,
    standard_rotated_ellipse,
)
from .shooting import (
    MatchResult,
    ResidualNorm,
    ShootingConfig,
    UpdateSpace,
    contraction_diagnostics,
    match,
    momenta_from_velocity,
    newton_match,
)

__version__ = "0.1.0"
