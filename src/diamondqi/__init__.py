"""Causal-diamond relativistic quantum information toolkit.

Conformal diamond/Rindler geometry, diamond and Unruh-diamond field modes,
Bogoliubov coefficients with an independent quadrature oracle, the
Alice-Dave reduced state on a truncated Fock space, and entanglement
measures (PPT spectrum, logarithmic negativity, entropies, mutual
information).

Each public name is looked up in the module that owns it when it is
accessed (PEP 562), so ``import diamondqi`` loads no submodule, and a caller
that needs only the geometry never imports NumPy.
"""

import importlib

__version__ = "0.1.0"

# the owner of each public name; __all__, __dir__ and __getattr__ read it
_EXPORTS = {
    "entanglement": (
        "EntanglementReport",
        "entropies",
        "figure_grid",
        "log_negativity",
        "mutual_information",
        "negativity",
        "ppt_spectrum_closed_form",
        "ppt_spectrum_oracle",
        "r_from_lifetime",
        "report_for",
        "sweep",
    ),
    "errors": (
        "DiamondError",
        "DomainCap",
        "NonConvergence",
        "OnHorizon",
        "OutOfSupport",
        "SingularPoint",
        "TruncationTooSmall",
        "UnsupportedRegion",
    ),
    "geometry": (
        "DiamondChart",
        "EventCoords",
        "Frame",
        "Region",
        "Wedge",
        "classify_region",
        "conformal_factor",
        "convert",
        "diamond_coords",
        "diamond_to_rindler",
        "eta_xi_to_diamond",
        "eta_xi_to_rindler",
        "lightcone_map",
        "rindler_to_diamond",
        "rindler_to_eta_xi",
    ),
    "modes": (
        "Family",
        "ModeRegion",
        "ModeSpec",
        "Sigma",
        "bogoliubov_closed_form",
        "bogoliubov_quadrature",
        "eval_mode",
        "squeezing_from_frequency",
        "thermal_occupation",
    ),
    "specfun": ("KummerParams", "kummer_m"),
    "states": (
        "BipartiteState",
        "FockTruncation",
        "PartialTranspose",
        "build_rho_ad",
        "partial_transpose",
        "reduce_to_alice",
        "reduce_to_dave",
        "unruh_one_particle_coefficients",
        "unruh_vacuum_coefficients",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    # read from the owner on every access, so a name rebound there (by a
    # test's monkeypatch, say) reads rebound here too
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _OWNER:
        return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _OWNER.keys() | _EXPORTS.keys())
