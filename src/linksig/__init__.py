"""Exact link invariants of braid closures and deep-nest curve prohibitions.

Importing the package loads no submodule: each public name is imported from
its home module on first use (PEP 562), so a caller pays only for the layers
it touches.  ``from linksig import X`` and ``linksig.seifert`` work as usual.
"""

from importlib import import_module

#: each public name, by its home module
_EXPORTS = {
    "braid": ("BraidWord", "FamilyParams", "delta_small", "family_b", "family_c",
              "family_params", "half_twist", "pi_word", "tau_word"),
    "gaussian": ("GaussianInteger", "i_power"),
    "intmatrix": ("exact_determinant", "signature_nullity_of_symmetric",
                  "symmetric_invariants"),
    "laurent": ("ExactDivisionError", "LaurentPolynomial"),
    "seifert": ("SeifertData", "band_step", "conway_potential", "link_det",
                "seifert_matrix", "signature_nullity"),
    "splice": ("ENFormulaInapplicable", "FactorProduct", "SpliceDiagram",
               "b_family_diagram", "c_family_diagram", "ring_family_diagram",
               "torus_delta_diagram"),
    "skeinpoly": ("FormulaNotEstablished", "MultilinearCyclicPoly",
                  "SkeinSystemSpec", "a_pm", "family_det_closed_form",
                  "tilde_closed_form"),
    "closedforms": ("EpsilonPair", "SignNull", "epsilons", "mt_gap",
                    "sign_null_b", "sign_null_c", "sign_null_delta"),
    "prohibit": ("CurveParams", "Degree9Scheme", "deg9_enumerate",
                 "deg9_formulas", "fiedler_bound", "theorem11_check",
                 "verdict_curve", "verdict_degree9"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
#: submodules reachable as attributes, such as ``linksig.genskein``
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "genskein"}

__all__ = sorted([*_HOME, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
