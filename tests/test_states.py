"""Directions as coset states: the state maps against their element-form oracles.

`sils` and `qls` hold every direction as its integer state (w lambda, xi off J,
<xi, lambda>); Weyl elements enter only through `ParabolicQuotient.coset_state`
and leave through `state_rep`.  Each state map here is checked against the
same computation on Peterson representatives, read back as states.
"""

import ast
from pathlib import Path

import pytest
from conftest import (
    GRCH1_CASES,
    NESTING_WEIGHTS,
    ORDER_CASES,
    coset_state,
    root_op_by_elements,
    si_ball_by_lift,
)

from silspath.cartan import build
from silspath.peterson import ParabolicQuotient
from silspath.sils import SiLSCrystal, SiLSPath
from silspath.weyl import affine_simple

SRC = Path(__file__).resolve().parent.parent / "src" / "silspath"
ELEMENT_NAMES = {"AffineWeylElt", "affine_identity", "translation", "from_finite"}
# the finite crystal holds orbit points w lambda, so it needs no finite element either
FINITE_NAMES = {"FiniteWeylElt", "finite_reflection", "simple_reflection", "min_rep", "act_fw"}
FORBIDDEN = {"sils.py": ELEMENT_NAMES, "qls.py": ELEMENT_NAMES | FINITE_NAMES}


@pytest.mark.parametrize("module", ["sils.py", "qls.py"])
def test_path_modules_never_name_the_element_form(module):
    # the element form cannot creep back: no import of an affine element or of
    # the constructors that build one, and no use of those names at all; in qls.py
    # the same for finite elements, their reflections, min_rep and act_fw
    forbidden = FORBIDDEN[module]
    tree = ast.parse((SRC / module).read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not imported & forbidden, imported & forbidden
    assert not used & forbidden, used & forbidden


def test_validate_rejects_malformed_states(a2):
    # a state names a representative only if its p is <xi, lambda>, its xi vanishes
    # on J (here {2}) and its point lies in the orbit W lambda
    c = SiLSCrystal(a2, (1, 0))
    nu, xi, p = c.unit
    assert c.validate(c.unit_path())
    for bad in [(nu, xi, p + 1), (nu, (0, 1), 0), ((1, 1), xi, p), ((-1, 1), (1, 0), 0)]:
        reason = c.invalid_reason(SiLSPath.from_ticks((bad,), (0, 1), 1))
        assert reason is not None and "not a coset state" in reason, bad


@pytest.mark.parametrize("fam,lam", NESTING_WEIGHTS)
def test_reflect_is_the_state_of_the_projected_reflection(fam, lam):
    # r_j on states, j in I_af (r_0 included), is the state of Pi^J(r_j x) at every x of
    # the ball, also where r_j x leaves the representatives (a zero pairing, J not empty)
    datum = build(*fam)
    quotient = ParabolicQuotient.for_weight(datum, lam)
    left = 0
    for x in quotient.si_ball(3):
        z = quotient.coset_state(x)
        for j in range(datum.rank + 1):
            rjx = affine_simple(datum, j).mul(x)
            left += not quotient.is_rep(rjx)
            assert quotient.reflect(j, z) == coset_state(quotient, quotient.project(rjx)), (x, j)
    assert bool(left) == bool(quotient.j_nodes)


@pytest.mark.parametrize("fam,lam,_depth", GRCH1_CASES)
def test_root_operators_match_the_element_kernel(fam, lam, _depth):
    # root_e and root_f on states give the paths that `root_splice` gives on the
    # representatives with x -> r_j x, read back as states, on every path of the
    # enumeration at depth 2 and every node of I_af
    c = SiLSCrystal(build(*fam), lam)
    paths = c.enumerate_demazure(c.unit, 2)
    moved = 0
    for eta in paths:
        for j in range(c.datum.rank + 1):
            for tag, op in (("e", c.root_e), ("f", c.root_f)):
                image = op(eta, j)
                assert image == root_op_by_elements(c, eta, j, tag), (eta, j, tag)
                moved += image is not None
    assert moved


@pytest.mark.parametrize(
    "fam,lam", ORDER_CASES + [(("A", 3), (1, 0, 1)), (("B", 3), (0, 1, 0)), (("G", 2), (1, 1))]
)
def test_si_ball_matches_the_element_ball(fam, lam):
    # the ball walked on states and rebuilt at the end is the ball walked on
    # representatives along the lifted QB(W^J) edges, in the same order
    quotient = ParabolicQuotient.for_weight(build(*fam), lam)
    assert quotient.si_ball(3) == si_ball_by_lift(ParabolicQuotient.for_weight(build(*fam), lam), 3)
