"""Exact and asymptotic spanning-tree enumeration for circulant graphs.

Functionality is organized along independent, cross-validating routes:

* :mod:`circtrees.graph` -- circulant specs, canonical step folding,
  Laplacians, eigenvalues;
* :mod:`circtrees.exact` -- ground-truth counts via Bareiss fraction-free
  determinants (matrix-tree theorem);
* :mod:`circtrees.algebra` -- integer polynomials and the exact resultant
  closed-form counts for both valency families (the method of record);
* :mod:`circtrees.chebyshev` -- integer Chebyshev algebra and the certified
  Chebyshev products that cross-check the closed form;
* :mod:`circtrees.arithmetic` -- square-free decompositions
  tau = c n a(n)^2 and the integer sequences a(n);
* :mod:`circtrees.mahler` -- Mahler measures of the associated Laurent
  polynomials, growth ratios, thermodynamic limits;
* :mod:`circtrees.cli` -- the ``circtrees`` command-line tool.

The package has no runtime dependency: every route runs on Python
integers and the standard library.  The exact modules are imported with
the package.  The names of :mod:`chebyshev` and :mod:`mahler` are resolved
on first use (PEP 562), so exact counting does not pay their import time.
"""

import importlib

from .algebra import IntPolynomial, tau_closed_form
from .arithmetic import (Decomposition, decompose, expected_coefficient,
                         family_spec, sequence_a, square_free_part)
from .errors import (CertificationError, CirctreesError,
                     DisconnectedGraphError, InternalConsistencyError,
                     NotAttemptedError, QuadratureError, RootRefinementError,
                     SpecError, SpecParseError)
from .exact import bareiss_determinant, tau_oracle
from .graph import (CirculantSpec, canonicalize, component_count, eigenvalue,
                    is_connected, laplacian, multiplier_conjugate, parse_spec)

__version__ = "0.1.0"

__all__ = [
    "CertificationError", "CertifiedRoots", "CirculantSpec", "CirctreesError",
    "Decomposition", "DisconnectedGraphError", "IntPolynomial",
    "InternalConsistencyError", "LaurentSpectrum", "MahlerEstimate",
    "NotAttemptedError", "QuadratureError", "RootRefinementError",
    "SpecError", "SpecParseError", "ThermoSeries", "associated_laurent",
    "asymptotic_ratio", "bareiss_determinant", "build_even_char",
    "build_odd_char", "canonicalize", "cheb_t", "cheb_u",
    "component_count", "decompose", "eigenvalue", "expected_coefficient",
    "family_spec", "find_roots", "is_connected", "laplacian",
    "mahler_quadrature", "mahler_root_product", "multiplier_conjugate",
    "parse_spec", "sequence_a", "square_free_part", "tau_closed_form",
    "tau_even", "tau_odd", "tau_oracle", "thermo_limit",
]

_LAZY = {
    **dict.fromkeys(("CertifiedRoots", "build_even_char", "build_odd_char",
                     "cheb_t", "cheb_u", "find_roots", "tau_even",
                     "tau_odd"), "chebyshev"),
    **dict.fromkeys(("LaurentSpectrum", "MahlerEstimate", "ThermoSeries",
                     "associated_laurent", "asymptotic_ratio",
                     "mahler_quadrature", "mahler_root_product",
                     "thermo_limit"), "mahler"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
