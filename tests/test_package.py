"""The lazy package: what ``import diamondqi`` and each CLI subcommand load,
read in fresh interpreters, and the public names the package resolves."""

import importlib
import os
import subprocess
import sys

import pytest

import diamondqi

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# every public name of the package, by the module that owns it
PUBLIC_NAMES = {
    "entanglement": (
        "EntanglementReport", "entropies", "figure_grid", "log_negativity", "mutual_information",
        "negativity", "ppt_spectrum_closed_form", "ppt_spectrum_oracle", "r_from_lifetime",
        "report_for", "sweep",
    ),
    "errors": (
        "DiamondError", "DomainCap", "NonConvergence", "OnHorizon", "OutOfSupport", "SingularPoint",
        "TruncationTooSmall", "UnsupportedRegion",
    ),
    "geometry": (
        "DiamondChart", "EventCoords", "Frame", "Region", "Wedge", "classify_region",
        "conformal_factor", "convert", "diamond_coords", "diamond_to_rindler", "eta_xi_to_diamond",
        "eta_xi_to_rindler", "lightcone_map", "rindler_to_diamond", "rindler_to_eta_xi",
    ),
    "modes": (
        "Family", "ModeRegion", "ModeSpec", "Sigma", "bogoliubov_closed_form",
        "bogoliubov_quadrature", "eval_mode", "squeezing_from_frequency", "thermal_occupation",
    ),
    "specfun": ("KummerParams", "kummer_m"),
    "states": (
        "BipartiteState", "FockTruncation", "PartialTranspose", "build_rho_ad", "partial_transpose",
        "reduce_to_alice", "reduce_to_dave", "unruh_one_particle_coefficients",
        "unruh_vacuum_coefficients",
    ),
}
ALL_NAMES = sorted(name for names in PUBLIC_NAMES.values() for name in names)



def imported_modules(*args, cwd=None):
    """Names of the modules ``python -X importtime ARGS`` imports."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True)
    return {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.fixture(scope="module")
def numpy_itself():
    """The modules ``import numpy`` loads by itself: NumPy 1.24 loads
    numpy.polynomial, numpy.random and numpy.ma there, NumPy 2 none of them."""
    return imported_modules("-c", "import numpy")


def test_package_import_loads_no_numpy():
    loaded = imported_modules("-c", "import diamondqi")
    assert "diamondqi" in loaded
    assert "numpy" not in loaded
    assert not {f"diamondqi.{name}" for name in PUBLIC_NAMES} & loaded


def test_map_loads_no_numpy():
    loaded = imported_modules("-m", "diamondqi.cli", "map", "--alpha", "1", "--from", "diamond",
                              "--to", "rindler", "--point", "0.1,0.2")
    assert "diamondqi.geometry" in loaded
    assert "numpy" not in loaded


def test_figures_loads_neither_invariants_nor_mpmath(tmp_path, numpy_itself):
    loaded = imported_modules("-m", "diamondqi.cli", "figures", "--out-dir", str(tmp_path))
    assert (tmp_path / "fig3.csv").is_file() and "diamondqi.entanglement" in loaded
    for name in ("diamondqi.invariants", "mpmath", "diamondqi.modes", "diamondqi.specfun"):
        assert name not in loaded
    assert "numpy.polynomial" not in loaded - numpy_itself


def test_selftest_loads_no_masked_arrays(numpy_itself):
    loaded = imported_modules("-m", "diamondqi.cli", "selftest")
    assert "diamondqi.invariants" in loaded
    assert "numpy.ma" not in loaded - numpy_itself


def test_public_names_resolve_and_are_listed():
    listed = dir(diamondqi)
    for owner, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"diamondqi.{owner}")
        assert getattr(diamondqi, owner) is module and owner in listed
        for name in names:
            assert getattr(diamondqi, name) is getattr(module, name)
            assert name in listed
    assert sorted(diamondqi.__all__) == ALL_NAMES
    assert diamondqi.__version__ == "0.1.0"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from diamondqi import *", namespace)
    assert set(ALL_NAMES) <= namespace.keys()
    assert namespace["report_for"] is diamondqi.entanglement.report_for
