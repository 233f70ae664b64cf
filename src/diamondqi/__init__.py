"""Causal-diamond relativistic quantum information toolkit.

Conformal diamond/Rindler geometry, diamond and Unruh-diamond field modes,
Bogoliubov coefficients with an independent quadrature oracle, the
Alice-Dave reduced state on a truncated Fock space, and entanglement
measures (PPT spectrum, logarithmic negativity, entropies, mutual
information).
"""

from .entanglement import (
    EntanglementReport,
    PptSpectrum,
    entropies,
    figure_grid,
    log_negativity,
    mutual_information,
    negativity,
    ppt_spectrum_closed_form,
    ppt_spectrum_oracle,
    r_from_lifetime,
    report_for,
    sweep,
)
from .errors import (
    DiamondError,
    DomainCap,
    NonConvergence,
    OnHorizon,
    OutOfSupport,
    SingularPoint,
    TruncationTooSmall,
    UnsupportedRegion,
)
from .geometry import (
    DiamondChart,
    EventCoords,
    Frame,
    Region,
    Wedge,
    WedgeTag,
    classify_region,
    conformal_factor,
    convert,
    diamond_coords,
    diamond_to_rindler,
    eta_xi_to_diamond,
    eta_xi_to_rindler,
    lightcone_map,
    rindler_to_diamond,
    rindler_to_eta_xi,
)
from .modes import (
    Family,
    ModeRegion,
    ModeSpec,
    Sigma,
    SqueezingParameter,
    bogoliubov_closed_form,
    bogoliubov_quadrature,
    eval_mode,
    squeezing_from_frequency,
    thermal_occupation,
)
from .specfun import KummerParams, QuadratureSpec, kummer_m, oscillatory_integral
from .states import (
    BipartiteState,
    FockTruncation,
    Representation,
    SingleSystemState,
    Subsystem,
    build_rho_ad,
    partial_transpose,
    reduce_to_alice,
    reduce_to_dave,
    unruh_one_particle_coefficients,
    unruh_vacuum_coefficients,
)

__version__ = "0.1.0"
