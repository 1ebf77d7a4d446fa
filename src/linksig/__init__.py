"""Exact link invariants of braid closures and deep-nest curve prohibitions."""

from .braid import (BraidWord, FamilyParams, compose, delta_small, family_b,
                    family_c, half_twist, pi_word, tau_word)
from .gaussian import GaussianInteger, i_power
from .intmatrix import (SymmetricIntMatrix, exact_determinant,
                        signature_nullity_of_symmetric, symmetric_invariants)
from .laurent import ExactDivisionError, LaurentPolynomial
from .seifert import (SeifertData, band_step, conway_potential, link_det,
                      seifert_matrix, signature_nullity)
from .splice import (ENFormulaInapplicable, FactorProduct, SpliceDiagram,
                     b_family_diagram, c_family_diagram, ring_family_diagram,
                     torus_delta_diagram)
from .skeinpoly import (FormulaNotEstablished, MultilinearCyclicPoly,
                        SkeinSystemSpec, a_pm, family_det_closed_form,
                        tilde_closed_form)
from .closedforms import (EpsilonPair, SignNull, epsilons, mt_gap,
                          sign_null_b, sign_null_c, sign_null_delta)
from .prohibit import (CurveParams, Degree9Scheme, deg9_enumerate,
                       deg9_formulas, fiedler_bound, theorem11_check,
                       verdict_curve, verdict_degree9)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
