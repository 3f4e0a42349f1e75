"""Acceptance suite: every criterion is exact equality at desk scale.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

import functools
import itertools
from fractions import Fraction

import pytest
from conftest import dual_quotient, lam_weight, longest_parabolic, replay_words, si_path, sigma_nodes

from silspath import characters as ch
from silspath.cartan import build
from silspath.characters import GradedCharacter
from silspath.peterson import ParabolicQuotient
from silspath.qls import QLSCrystal
from silspath.sils import SiLSCrystal
from silspath.weyl import (
    AffineWeylElt,
    affine_identity,
    affine_simple,
    bruhat_leq,
    finite_from_word,
    longest_element,
    simple_reflection,
    translation,
    weyl_group,
)

GRCH1_CASES = [
    (("A", 1), (1,), 3),
    (("A", 1), (2,), 3),
    (("A", 1), (3,), 3),
    (("A", 2), (1, 0), 2),
    (("A", 2), (1, 1), 2),
    (("C", 2), (1, 0), 2),
]

# criterion 1 also runs on every other family; its lists do not depend on |W|
GRCH1_FAMILY_CASES = GRCH1_CASES + [
    (("B", 3), (1, 0, 0), 2),
    (("B", 2), (1, 1), 2),
    (("G", 2), (1, 0), 2),
    (("G", 2), (0, 1), 1),
    (("D", 4), (0, 0, 1, 0), 2),
    (("F", 4), (0, 0, 0, 1), 1),
    (("E", 6), (1, 0, 0, 0, 0, 0), 2),
    (("C", 3), (0, 1, 0), 1),
    (("A", 3), (1, 0, 1), 1),
]

ORDER_CASES = [
    (("A", 1), (1,)),
    (("A", 1), (2,)),
    (("A", 2), (1, 1)),
    (("A", 2), (1, 0)),
    (("C", 2), (1, 0)),
]

ALL_TEST_WEIGHTS = [(fam, lam) for fam, lam, _ in GRCH1_CASES]

# the q=0 check reaches E6-E8, where W is never enumerated
E_TYPE_WEIGHTS = [
    (("E", 6), (0, 1, 0, 0, 0, 0)),
    (("E", 7), (0, 0, 0, 0, 0, 0, 1)),
    (("E", 8), (0, 0, 0, 0, 0, 0, 0, 1)),
]


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {label}")
                raise
            print(f"criterion {number}: PASS - {label}")

        return wrapper

    return deco


@criterion(1, "brute-force enumeration equals the closed graded character")
def test_criterion_1_gch_cross_check():
    for fam, lam, depth in GRCH1_FAMILY_CASES:
        datum = build(*fam)
        closed = ch.gch_demazure_minus_e(datum, lam, depth)
        brute = ch.brute_force_gch_minus_e(datum, lam, depth)
        assert closed == brute, (fam, lam, depth)


@criterion(2, "desk-verified Macdonald t=0 values")
def test_criterion_2_macdonald_values():
    a1 = build("A", 1)
    assert ch.macdonald_t0(a1, (2,)) == GradedCharacter(
        {((2,), 0): 1, ((-2,), 0): 1, ((0,), 0): 1, ((0,), 1): 1}
    )
    assert ch.macdonald_t0(a1, (1,)) == GradedCharacter(
        {((1,), 0): 1, ((-1,), 0): 1}
    )


@criterion(3, "q=0 specialization equals the Weyl character oracle, E6-E8 included")
def test_criterion_3_specialization():
    for fam, lam in ALL_TEST_WEIGHTS + E_TYPE_WEIGHTS:
        datum = build(*fam)
        mac = ch.macdonald_t0(datum, lam)
        zero = GradedCharacter({(fw, 0): c for fw, c in mac.q_slice(0).items()})
        assert zero == ch.weyl_character(datum, lam), (fam, lam)


@criterion(4, "every q-slice is Weyl-symmetric")
def test_criterion_4_symmetry():
    for fam, lam in ALL_TEST_WEIGHTS:
        datum = build(*fam)
        mac = ch.macdonald_t0(datum, lam)
        for q in {q for _, q in mac.terms}:
            coeffs = mac.q_slice(q)
            for i in range(1, datum.rank + 1):
                si = simple_reflection(datum, i)
                reflected = {si.act_fw(fw): c for fw, c in coeffs.items()}
                assert reflected == coeffs, (fam, lam, q, i)


@criterion(5, "plus-side character equals the inverted minus side")
def test_criterion_5_duality():
    for fam, lam, depth in GRCH1_CASES:
        datum = build(*fam)
        dual_lam = datum.sigma_dual(lam)
        plus = ch.gch_demazure_plus_w0(datum, lam, depth)
        minus = ch.gch_demazure_minus_e(datum, dual_lam, depth)
        assert plus == minus.invert_q().invert_x(), (fam, lam)


@criterion(6, "order-theory suites on the radius-4 ball")
def test_criterion_6_order_theory():
    for fam, lam in ORDER_CASES + [(("B", 3), (1, 0, 0)), (("C", 3), (0, 1, 0)), (("A", 3), (1, 0, 1))]:
        datum = build(*fam)
        quotient = ParabolicQuotient.for_weight(datum, lam)
        lamw, st = lam_weight(quotient), quotient.coset_state
        ball = quotient.si_ball(4)

        # fixed-translate slices carry the ordinary Bruhat order
        reps = [w for w in weyl_group(datum) if quotient.is_min_rep(w)]
        xis = list(dict.fromkeys([(0,) * datum.rank, (1,) + (0,) * (datum.rank - 1), (1,) * datum.rank]))
        for xi in xis:
            phi, _ = quotient.j_adjust(xi)
            adjusted = tuple(a + b for a, b in zip(xi, phi))
            _, z_adj = quotient.j_adjust(adjusted)
            for w1, w2 in itertools.product(reps, repeat=2):
                x1 = AffineWeylElt(w1.mul(z_adj), adjusted)
                x2 = AffineWeylElt(w2.mul(z_adj), adjusted)
                assert quotient.si_leq(st(x2), st(x1)) == bruhat_leq(w2, w1), (fam, lam, xi)

        # simple-reflection sign criteria
        for x in ball:
            for j in range(datum.rank + 1):
                pairing = datum.acoroot_pairing(j, x.act_weight(lamw).fw)
                rjx = affine_simple(datum, j).mul(x)
                assert quotient.is_rep(rjx) == (pairing != 0)
                if pairing > 0:
                    assert quotient.si_leq(st(x), st(rjx)) and not quotient.si_leq(st(rjx), st(x))
                if pairing < 0:
                    assert quotient.si_leq(st(rjx), st(x)) and not quotient.si_leq(st(x), st(rjx))

        # one-step implications on comparable pairs
        pairs = [
            (x, y)
            for x in ball
            for y in ball
            if x != y and quotient.si_leq(st(x), st(y))
        ]
        for x, y in pairs:
            for j in range(datum.rank + 1):
                px = datum.acoroot_pairing(j, x.act_weight(lamw).fw)
                py = datum.acoroot_pairing(j, y.act_weight(lamw).fw)
                rjx = affine_simple(datum, j).mul(x)
                rjy = affine_simple(datum, j).mul(y)
                if px > 0 and py <= 0:
                    assert quotient.si_leq(st(rjx), st(y))
                if px >= 0 and py < 0:
                    assert quotient.si_leq(st(x), st(rjy))
                if (px > 0 and py > 0) or (px < 0 and py < 0):
                    assert quotient.si_leq(st(rjx), st(rjy))

        # edge duality and the dual length identity
        dual = dual_quotient(quotient)
        const = longest_element(datum).length - longest_parabolic(
            datum, sigma_nodes(quotient)
        ).length
        for x in ball:
            xv = quotient.vee(st(x))
            assert dual.state_rep(xv).si_length == const - x.si_length
            for a in (None, Fraction(1, 2)):
                for beta, y in quotient.si_covers(st(x), a):
                    assert (beta, xv) in dual.si_covers(quotient.vee(y), a)


@criterion(7, "crystal property suite on all enumerated paths")
def test_criterion_7_crystal_properties():
    for fam, lam, depth in GRCH1_CASES:
        datum = build(*fam)
        crystal = SiLSCrystal(datum, lam)
        qcrystal = QLSCrystal(datum, lam)
        e = crystal.quotient.coset_state(affine_identity(datum))
        sample = crystal.enumerate_demazure(e, depth)
        for eta in sample:
            wt = crystal.weight(eta)
            for j in range(datum.rank + 1):
                aj = datum.affine_simple_root(j)
                alpha_fw = datum.root_to_fw(aj.finite)
                f = crystal.root_f(eta, j)
                if f is not None:
                    assert crystal.validate(f)  # closure of the path set
                    assert crystal.root_e(f, j) == eta
                    wtf = crystal.weight(f)
                    assert wtf.fw == tuple(a - b for a, b in zip(wt.fw, alpha_fw))
                    assert wtf.delta == wt.delta - aj.n
                    # stability of the Demazure subset under lowering
                    assert crystal.in_demazure_final(f, e)
                ee = crystal.root_e(eta, j)
                if ee is not None:
                    assert crystal.validate(ee)
                    assert crystal.root_f(ee, j) == eta
                _, eps_n = crystal.e_max(eta, j)
                _, phi_n = crystal.f_max(eta, j)
                assert eps_n == crystal.string_eps(eta, j)
                assert phi_n == crystal.string_phi(eta, j)
                assert phi_n - eps_n == datum.acoroot_pairing(j, wt.fw)
                # projection commutes with the intrinsic operators
                psi = qcrystal.cl(eta)
                for tag, op in (("f", crystal.root_f), ("e", crystal.root_e)):
                    img = op(eta, j)
                    intrinsic = qcrystal.qls_op(psi, tag, j)
                    if img is None:
                        assert intrinsic is None
                    else:
                        assert intrinsic == qcrystal.cl(img)

        # string generation between nested Demazure sets
        lamw, st = lam_weight(crystal.quotient), crystal.quotient.coset_state
        for x_el in crystal.quotient.si_ball(1):
            for j in range(datum.rank + 1):
                if datum.acoroot_pairing(j, x_el.act_weight(lamw).fw) <= 0:
                    continue
                x, rjx = st(x_el), st(affine_simple(datum, j).mul(x_el))
                for eta in sample:
                    if crystal.in_demazure_final(eta, x):
                        fmax, _ = crystal.f_max(eta, j)
                        assert crystal.in_demazure_final(fmax, rjx)
                        cur, hit = fmax, fmax == eta
                        while (cur := crystal.root_e(cur, j)) is not None:
                            hit = hit or cur == eta
                        assert hit
                    if crystal.in_demazure_final(eta, rjx):
                        cur = eta
                        while cur is not None:
                            assert crystal.in_demazure_final(cur, x)
                            cur = crystal.root_e(cur, j)


@criterion(8, "quotient characters: values, nesting, degeneration at e")
def test_criterion_8_quotient_characters():
    a1 = build("A", 1)
    s1 = simple_reflection(a1, 1)
    assert ch.gch_quotient_minus(a1, (2,), s1) == GradedCharacter(
        {((-2,), 0): 1, ((0,), -1): 1}
    )
    for fam, lam in ALL_TEST_WEIGHTS:
        datum = build(*fam)
        e = finite_from_word(datum, [])
        assert ch.gch_quotient_minus(datum, lam, e) == ch.qls_degree_sum(datum, lam)
        reps = ch.minus_quotient_reps(datum, lam)
        chars = {w: ch.gch_quotient_minus(datum, lam, w) for w in reps}
        for w1, w2 in itertools.product(reps, repeat=2):
            if bruhat_leq(w1, w2):
                for key, c in chars[w2].terms.items():
                    assert chars[w1].terms.get(key, 0) >= c


@criterion(9, "unique distinguished lifts per fiber; nonpositive tail degrees")
def test_criterion_9_lift_uniqueness():
    for fam, lam in ALL_TEST_WEIGHTS:
        datum = build(*fam)
        q = QLSCrystal(datum, lam)
        quotient = q.sils.quotient
        jset = set(quotient.j_nodes)
        free = [i for i in range(1, datum.rank + 1) if i not in jset]
        boxes = list(itertools.product(range(-2, 3), repeat=len(free)))
        words = replay_words(q)
        for psi in q.paths():
            assert q.deg_tail(psi) <= 0
            kappa_hits = []
            iota_hits = []
            for box in boxes:
                xi = [0] * datum.rank
                for i, c in zip(free, box):
                    xi[i - 1] = c
                start = si_path(
                    q.sils,
                    (quotient.project(translation(datum, tuple(xi))),),
                    (Fraction(0), Fraction(1)),
                )
                lift = q.sils.apply(start, words[psi])
                kappa, iota = quotient.state_rep(lift.kappa), quotient.state_rep(lift.iota)
                if not any(kappa.xi) and quotient.is_min_rep(kappa.w):
                    kappa_hits.append(lift)
                if not any(iota.xi) and quotient.is_min_rep(iota.w):
                    iota_hits.append(lift)
            assert kappa_hits == [q.eta_kappa(psi)], (fam, lam, psi)
            assert iota_hits == [q.eta_iota(psi)], (fam, lam, psi)
