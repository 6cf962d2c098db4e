"""Exact enumeration of N-rooted ribbon graphs (maps) by edge count.

The package computes generating functions for the number of N-rooted maps
with a given number of edges, using exact rational arithmetic throughout,
and cross-validates every formula against independent brute-force oracles:

* :mod:`nrooted.series`   — truncated power series with exact rational
  coefficients;
* :mod:`nrooted.qft`      — the correlator family Z_j, the mixed family
  Z_{N,p}, and the connected generating functions M_N;
* :mod:`nrooted.relations` — machine-checked structural identities
  (integer triangle, double-factorial series, polynomials in M₁, ODEs);
* :mod:`nrooted.ribbon`   — maps as permutation pairs, canonical labeling,
  enumeration by orderly generation of canonical labelings;
* :mod:`nrooted.wick`     — the pairing/contraction model whose connected
  classes are counted by the same series;
* :mod:`nrooted.tables`   — the paper's count tables and M₁ identities;
* :mod:`nrooted.cli`      — the ``nrooted`` command-line interface.

The names below are exported lazily (PEP 562): ``import nrooted`` loads no
submodule, and each name is read from its home module, which is imported on
first access, so a command-line call pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: Each exported name and the submodule that defines it.
_HOMES = {
    "BoundExceededError": "errors",
    "ConsistencyError": "errors",
    "Series": "series",
    "m0_series": "qft",
    "m1_closed_form": "qft",
    "m_count": "qft",
    "m_series": "qft",
    "z_np_series": "qft",
    "z_recursion": "qft",
    "z_series": "qft",
    "VerificationReport": "relations",
    "b_table": "relations",
    "mn_in_m1": "relations",
    "r_series": "relations",
    "verify_ode_m0": "relations",
    "verify_ode_m1": "relations",
    "verify_ode_z0": "relations",
    "zj_over_z0_in_m1": "relations",
    "RootedMap": "ribbon",
    "canonical_form": "ribbon",
    "count_maps_by_division": "ribbon",
    "enumerate_maps": "ribbon",
    "genus_profile": "ribbon",
    "map_from_json": "ribbon",
    "map_to_json": "ribbon",
    "Contraction": "wick",
    "count_connected_classes": "wick",
    "enumerate_contractions": "wick",
    "from_map": "wick",
    "to_map": "wick",
    "total_weighted_classes": "wick",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
