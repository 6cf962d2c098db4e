"""Exact enumeration of N-rooted ribbon graphs (maps) by edge count.

The package computes generating functions for the number of N-rooted maps
with a given number of edges, using exact rational arithmetic throughout,
and cross-validates every formula against independent brute-force oracles:

* :mod:`nrooted.series`   — truncated power series over ``fractions.Fraction``;
* :mod:`nrooted.qft`      — the correlator family Z_j, the mixed family
  Z_{N,p}, and the connected generating functions M_N;
* :mod:`nrooted.relations` — machine-checked structural identities
  (integer triangle, double-factorial series, polynomials in M₁, ODEs);
* :mod:`nrooted.ribbon`   — maps as permutation pairs, canonical labeling,
  enumeration by a scan over labelings;
* :mod:`nrooted.wick`     — the pairing/contraction model whose connected
  classes are counted by the same series;
* :mod:`nrooted.tables`   — the paper's count tables and M₁ identities;
* :mod:`nrooted.cli`      — the ``nrooted`` command-line interface.
"""

from .errors import BoundExceededError, ConsistencyError
from .series import Series
from .qft import (
    m0_series,
    m1_closed_form,
    m_count,
    m_series,
    z_np_series,
    z_recursion,
    z_series,
)
from .relations import (
    VerificationReport,
    b_table,
    mn_in_m1,
    r_series,
    verify_ode_m0,
    verify_ode_m1,
    verify_ode_z0,
    zj_over_z0_in_m1,
)
from .ribbon import (
    RootedMap,
    canonical_form,
    count_maps_by_division,
    enumerate_maps,
    genus_profile,
    map_from_json,
    map_to_json,
)
from .wick import (
    Contraction,
    count_connected_classes,
    enumerate_contractions,
    from_map,
    to_map,
    total_weighted_classes,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceededError",
    "ConsistencyError",
    "Series",
    "m0_series",
    "m1_closed_form",
    "m_count",
    "m_series",
    "z_np_series",
    "z_recursion",
    "z_series",
    "VerificationReport",
    "b_table",
    "mn_in_m1",
    "r_series",
    "verify_ode_m0",
    "verify_ode_m1",
    "verify_ode_z0",
    "zj_over_z0_in_m1",
    "RootedMap",
    "canonical_form",
    "count_maps_by_division",
    "enumerate_maps",
    "genus_profile",
    "map_from_json",
    "map_to_json",
    "Contraction",
    "count_connected_classes",
    "enumerate_contractions",
    "from_map",
    "to_map",
    "total_weighted_classes",
    "__version__",
]
