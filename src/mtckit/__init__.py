"""mtckit: exact computations with modular tensor category data.

Takes (S, T) matrices with cyclotomic entries and computes fusion rules,
generalized Frobenius-Schur indicators, and exact eigenvalue/multiplicity
data for rotation operators and braid-group elements.
"""

from .center import center_for, deligne_square
from .dataio import catalog, catalog_ring, parse_expr, parse_file
from .fusion_ring import fuse, power_decompose, verlinde
from .indicators import gfs_matrix, nu2_direct, nu_direct, nu_general, sl2_word
from .modular_data import construct, derive_invariants, validate
from .spectra import (
    braid_jm_spectrum,
    render_report,
    rotation_report,
    rotation_spectrum,
    semisimple_K,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "catalog",
    "catalog_ring",
    "parse_expr",
    "parse_file",
    "construct",
    "validate",
    "derive_invariants",
    "verlinde",
    "fuse",
    "power_decompose",
    "center_for",
    "deligne_square",
    "sl2_word",
    "gfs_matrix",
    "nu_general",
    "nu_direct",
    "nu2_direct",
    "rotation_spectrum",
    "rotation_report",
    "semisimple_K",
    "braid_jm_spectrum",
    "render_report",
]
