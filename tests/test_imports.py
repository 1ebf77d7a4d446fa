"""Lean start: the package loads a submodule only when one of its names is used."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import linksig

#: `linksig.__all__` from when `__init__` imported every layer: 50 names and
#: the 9 modules they come from
PUBLIC = (
    "BraidWord", "CurveParams", "Degree9Scheme", "ENFormulaInapplicable",
    "EpsilonPair", "ExactDivisionError", "FactorProduct", "FamilyParams",
    "FormulaNotEstablished", "GaussianInteger", "LaurentPolynomial",
    "MultilinearCyclicPoly", "SeifertData", "SignNull", "SkeinSystemSpec",
    "SpliceDiagram", "a_pm", "b_family_diagram", "band_step", "braid",
    "c_family_diagram", "closedforms", "conway_potential", "deg9_enumerate",
    "deg9_formulas", "delta_small", "epsilons", "exact_determinant",
    "family_b", "family_c", "family_det_closed_form", "family_params",
    "fiedler_bound", "gaussian", "half_twist", "i_power", "intmatrix",
    "laurent", "link_det", "mt_gap", "pi_word", "prohibit",
    "ring_family_diagram", "seifert", "seifert_matrix", "sign_null_b",
    "sign_null_c", "sign_null_delta", "signature_nullity",
    "signature_nullity_of_symmetric", "skeinpoly", "splice",
    "symmetric_invariants", "tau_word", "theorem11_check",
    "tilde_closed_form", "torus_delta_diagram", "verdict_curve",
    "verdict_degree9",
)


def loaded_after(code: str) -> list[str]:
    """The linksig modules that a fresh interpreter holds after running code."""
    env = dict(os.environ, PYTHONPATH=str(Path(linksig.__file__).parents[1]))
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if 'linksig' in m)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert loaded_after("import linksig") == ["linksig"]


def test_public_names_resolve():
    assert linksig.__all__ == list(PUBLIC)
    for name in PUBLIC:
        value = getattr(linksig, name)
        home = value.__name__ if isinstance(value, ModuleType) else value.__module__
        assert home.startswith("linksig.")
    namespace = {}
    exec("from linksig import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert namespace["conway_potential"] is linksig.seifert.conway_potential


def test_submodules_are_attributes():
    # the benchmark reaches modules such as genskein as package attributes
    assert loaded_after("import linksig\nlinksig.genskein") == [
        "linksig", "linksig.braid", "linksig.gaussian", "linksig.genskein",
        "linksig.intmatrix", "linksig.laurent", "linksig.seifert"]
    from linksig import cli, genskein
    assert linksig.cli is cli and linksig.genskein is genskein


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        linksig.nonsense
    with pytest.raises(ImportError):
        exec("from linksig import nonsense", {})


@pytest.mark.parametrize("argv, layers", [
    (["invariants", "--strands", "3", "--word", "1,2,1"],
     ["braid", "cli", "gaussian", "intmatrix", "laurent", "seifert"]),
    (["family", "b", "--n", "1", "--k", "1", "--J", "1", "--alpha", "0"],
     ["braid", "cli"]),
    (["skeinpoly", "a", "--J", "3", "--sign", "+", "--x", "1,2,1"],
     ["braid", "cli", "gaussian", "skeinpoly"]),
], ids=["invariants", "family", "skeinpoly"])
def test_command_loads_only_its_layers(argv, layers):
    code = f"from linksig.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code) == ["linksig"] + [f"linksig.{m}" for m in layers]
