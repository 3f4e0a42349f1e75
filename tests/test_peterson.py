from collections import Counter
from fractions import Fraction

import pytest

from silspath.cartan import AffineRealRoot, build, vec_add, vec_neg, vec_sub
from silspath.peterson import ParabolicQuotient
from silspath.sils import SiLSCrystal
from silspath.weyl import (
    AffineWeylElt,
    affine_identity,
    affine_reflection,
    affine_simple,
    bruhat_leq,
    from_finite,
    longest_element,
    simple_reflection,
    translation,
    weyl_group,
)

from conftest import (
    GRCH1_CASES,
    ORDER_CASES,
    coset_state,
    component_tops,
    cover_candidates,
    covers_by_scan,
    dual_quotient,
    edge_pairing,
    for_subset,
    is_adjusted,
    is_rep_critical,
    lam_weight,
    longest_parabolic,
    order_quotients,
    si_leq_by_covers,
    sigma_nodes,
    vee_by_element,
    walk_pool,
)


def test_is_rep_examples(a2):
    quotient = for_subset(a2, (2,))
    e = affine_identity(a2)
    assert quotient.is_rep(e)
    assert quotient.is_rep(AffineWeylElt(simple_reflection(a2, 2), (1, 0)))
    assert not quotient.is_rep(translation(a2, (1, 0)))
    empty = for_subset(a2, ())
    for xi in [(0, 0), (1, -2), (-1, 1)]:
        assert empty.is_rep(AffineWeylElt(simple_reflection(a2, 1), xi))


def test_is_rep_against_bruteforce(a2, c2):
    # the finite two-root criterion agrees with checking x(alpha + n delta) > 0
    # over the window n <= 3
    for datum, nodes in [(a2, (2,)), (c2, (1,)), (c2, (2,))]:
        quotient = for_subset(datum, nodes)
        sample = [
            affine_identity(datum),
            translation(datum, (1, 0)),
            translation(datum, (-1, 2)),
            AffineWeylElt(simple_reflection(datum, 1), (0, 1)),
            AffineWeylElt(simple_reflection(datum, 2), (1, -1)),
            AffineWeylElt(longest_element(datum), (2, 0)),
        ]
        jset = set(nodes)
        dj_all = [
            u
            for u in datum.root_table.roots
            if all(u[i - 1] == 0 for i in range(1, datum.rank + 1) if i not in jset)
        ]
        for x in sample:
            brute = True
            for u in dj_all:
                start = 0 if datum.is_positive_root(u) else 1
                for n in range(start, 4):
                    if not datum.is_positive_affine(x.act_root(AffineRealRoot(u, n))):
                        brute = False
            assert quotient.is_rep(x) == brute


@pytest.mark.parametrize("fam", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6)])
def test_reduction_gens_match_component_tops(fam):
    # every J: alpha_j for j in J, then -theta_c + delta once per Dynkin component c of J
    # (on E6 every nonempty J has one to three components; on D4, J = {1, 3, 4} has three)
    datum = build(*fam)
    n = datum.rank
    for mask in range(1 << n):
        nodes = tuple(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
        gens = [beta for beta, _refl in for_subset(datum, nodes).reduction_gens]
        assert [beta.finite for beta in gens if not beta.n] == [datum.simple_root(i) for i in nodes]
        tops = [vec_neg(beta.finite) for beta in gens if beta.n]
        assert all(beta.n == 1 for beta in gens if beta.n)
        assert len(tops) == len(set(tops)) and set(tops) == component_tops(datum, nodes), nodes
    if fam == ("D", 4):
        assert len(component_tops(datum, (1, 3, 4))) == 3


@pytest.mark.parametrize(
    "fam, lam",
    [
        (("A", 2), (1, 1)),  # J empty
        (("A", 3), (1, 0, 1)),  # J = {2}, one component
        (("B", 3), (0, 1, 0)),  # J = {1, 3}, two components
        (("C", 3), (0, 1, 0)),
    ],
)
def test_is_rep_by_simple_roots_matches_critical_roots(fam, lam):
    # is_rep tests only the simple roots of (W_J)_af; the oracle tests every
    # critical root, on the ball and on all cover candidates r_beta x from it
    datum = build(*fam)
    quotient = ParabolicQuotient.for_weight(datum, lam)
    ball = quotient.si_ball(3)
    candidates = [
        affine_reflection(datum, beta).mul(x)
        for x in ball
        for beta in cover_candidates(quotient, quotient.decompose(x).w)
    ]
    sample = ball + tuple(candidates)
    verdicts = [quotient.is_rep(y) for y in sample]
    assert verdicts == [is_rep_critical(quotient, y) for y in sample]
    assert all(verdicts[: len(ball)])
    # some candidates are not representatives unless J is empty
    assert all(verdicts[len(ball):]) == (not quotient.j_nodes)


def test_project_examples(a2):
    quotient = for_subset(a2, (2,))
    s2 = simple_reflection(a2, 2)
    assert quotient.project(translation(a2, (1, 0))) == AffineWeylElt(s2, (1, 0))
    assert quotient.project(translation(a2, (0, 1))) == affine_identity(a2)
    x = AffineWeylElt(s2, (1, 0))
    assert quotient.project(x) == x


def test_project_lands_in_same_coset(a2, c2):
    for datum, nodes in [(a2, (2,)), (a2, (1,)), (c2, (1,)), (c2, (2,))]:
        quotient = for_subset(datum, nodes)
        jset = set(nodes)
        sample = [
            translation(datum, (2, -1)),
            AffineWeylElt(longest_element(datum), (0, 1)),
            AffineWeylElt(simple_reflection(datum, 1), (-1, -1)),
        ]
        for x in sample:
            p = quotient.project(x)
            assert quotient.is_rep(p)
            rest = p.inverse().mul(x)
            # x = p * rest with rest in (W_J)_af: finite part in W_J and
            # translation in Q_J^vee
            assert all(
                rest.xi[i - 1] == 0
                for i in range(1, datum.rank + 1)
                if i not in jset
            )
            # rest.w lies in W_J: every inversion is supported on J
            for u in datum.pos_roots:
                if not datum.is_positive_root(rest.w.act_root(u)):
                    assert all(
                        u[i - 1] == 0
                        for i in range(1, datum.rank + 1)
                        if i not in jset
                    )
            # uniqueness: projecting twice is stable
            assert quotient.project(p) == p


def test_j_adjust_examples(a2):
    quotient = for_subset(a2, (2,))
    phi, z = quotient.j_adjust((0, 1))
    assert phi == (0, -1) and z.is_identity
    phi, z = quotient.j_adjust((1, 0))
    assert phi == (0, 0) and z == simple_reflection(a2, 2)
    empty = for_subset(a2, ())
    phi, z = empty.j_adjust((3, -2))
    assert phi == (0, 0) and z.is_identity


def test_j_adjust_produces_adjusted(a2, c2):
    for datum, nodes in [(a2, (1,)), (a2, (2,)), (c2, (1,)), (c2, (2,))]:
        quotient = for_subset(datum, nodes)
        for xi in [(0, 0), (1, 0), (0, -2), (2, 1), (-1, 3)]:
            phi, z = quotient.j_adjust(xi)
            adjusted = tuple(a + b for a, b in zip(xi, phi))
            assert is_adjusted(quotient, adjusted)
            assert all(phi[i - 1] == 0 for i in range(1, datum.rank + 1) if i not in set(nodes))


def test_project_closed_form(a2, c2):
    # Pi^J(w t_xi) factors as (minimal rep of w) z_xi t_{xi + phi}
    for datum, nodes in [(a2, (2,)), (c2, (1,))]:
        quotient = for_subset(datum, nodes)
        for w in weyl_group(datum):
            for xi in [(0, 0), (1, 0), (0, 1), (-1, 1), (2, -1)]:
                phi, z = quotient.j_adjust(xi)
                adjusted = tuple(a + b for a, b in zip(xi, phi))
                expected = AffineWeylElt(quotient.min_rep(w).mul(z), adjusted)
                assert quotient.project(AffineWeylElt(w, xi)) == expected


def test_decompose_roundtrip():
    for quotient, lam in order_quotients():
        datum = quotient.datum
        for x in quotient.si_ball(3):
            w, z, xi = quotient.decompose(x)
            assert quotient.is_min_rep(w)
            assert is_adjusted(quotient, xi)
            assert AffineWeylElt(w.mul(z), xi) == x


def test_rep_reuses_w_where_z_is_the_identity(a2):
    # with J empty every z_xi is e, and rep keeps w itself for the representative's
    # finite part; with J = {2} a z_xi != e still multiplies in
    quotient = ParabolicQuotient.for_weight(a2, (1, 1))
    w = simple_reflection(a2, 1).mul(simple_reflection(a2, 2))
    for xi in [(0, 0), (1, 0), (-1, 2)]:
        x = quotient.rep(w, xi)
        assert x.w is w and x.xi == xi
    subset = ParabolicQuotient.for_weight(a2, (1, 0))
    phi, z = subset.j_adjust((1, 0))
    assert not z.is_identity
    assert subset.rep(simple_reflection(a2, 1), (1, 0)) == AffineWeylElt(
        simple_reflection(a2, 1).mul(z), vec_add((1, 0), phi)
    )


def test_simple_lift_criterion():
    # r_j x is a representative iff x^{-1} alpha_j avoids the parabolic roots
    for quotient, lam in order_quotients():
        datum = quotient.datum
        jset = set(quotient.j_nodes)
        for x in quotient.si_ball(3):
            for j in range(datum.rank + 1):
                beta = x.inverse().act_root(datum.affine_simple_root(j))
                in_dj = all(
                    beta.finite[i - 1] == 0
                    for i in range(1, datum.rank + 1)
                    if i not in jset
                )
                lifted = quotient.is_rep(affine_simple(datum, j).mul(x))
                assert lifted == (not in_dj)


def test_dual_examples(a1):
    quotient = ParabolicQuotient.for_weight(a1, (1,))
    e, s1 = affine_identity(a1), from_finite(simple_reflection(a1, 1))
    st = quotient.coset_state  # A1 (1) is its own sigma-dual
    assert quotient.vee(st(e)) == st(s1)
    assert quotient.vee(st(s1)) == st(e)
    assert vee_by_element(quotient, e) == s1


def test_dual_involution_and_length():
    for quotient, lam in order_quotients():
        datum = quotient.datum
        dual = dual_quotient(quotient)
        w0 = longest_element(datum)
        wsj0 = longest_parabolic(datum, sigma_nodes(quotient))
        const = w0.length - wsj0.length
        for x in quotient.si_ball(3):
            xv = dual.state_rep(quotient.vee(quotient.coset_state(x)))
            assert xv == vee_by_element(quotient, x)
            assert dual.is_rep(xv)
            assert quotient.state_rep(dual.vee(dual.coset_state(xv))) == x
            assert xv.si_length == const - x.si_length


def test_si_covers_examples(a1):
    quotient = ParabolicQuotient.for_weight(a1, (1,))
    e, s1 = affine_identity(a1), from_finite(simple_reflection(a1, 1))
    st = quotient.coset_state
    assert quotient.si_covers(st(e)) == ((AffineRealRoot((1,), 0), st(s1)),)
    assert quotient.si_covers(st(s1)) == (
        (AffineRealRoot((-1,), 1), st(translation(a1, (1,)))),
    )
    two = ParabolicQuotient.for_weight(a1, (2,))
    assert two.si_covers(two.coset_state(e), Fraction(1, 2)) == ((AffineRealRoot((1,), 0), two.coset_state(s1)),)
    one_half = quotient.si_covers(st(e), Fraction(1, 2))
    assert one_half == ()  # (1/2) * 1 is not an integer


SCAN_CASES = ORDER_CASES + [
    (("A", 3), (1, 0, 1)),
    (("B", 3), (0, 1, 0)),
    (("C", 3), (0, 1, 0)),
    (("G", 2), (1, 1)),
    (("G", 2), (0, 1)),
    (("C", 2), (2, 1)),
    (("B", 2), (1, 1)),
]


def assert_covers_match_scan(quotient, x, a):
    # up covers tuple for tuple (si-graph prints them in this order); down
    # covers as multisets, since the scan lists them in another order; the
    # scan's elements are read as states
    st = quotient.coset_state
    assert quotient.si_covers(st(x), a) == tuple((b, st(y)) for b, y in covers_by_scan(quotient, x, a, 1)), (x, a)
    lower = [(b, st(z)) for b, z in covers_by_scan(quotient, x, a, -1)]
    assert Counter(quotient.si_lower_covers(st(x), a)) == Counter(lower), (x, a)


@pytest.mark.parametrize("fam,lam", SCAN_CASES)
def test_covers_match_candidate_scan(fam, lam):
    # the per-direction labels, lifted, give exactly the edges the full
    # candidate scan finds at each x, at every level of the cut grid
    quotient = ParabolicQuotient.for_weight(build(*fam), lam)
    for x in quotient.si_ball(3):
        for a in (None,) + quotient.cut_grid():
            assert_covers_match_scan(quotient, x, a)


@pytest.mark.parametrize("fam,lam", SCAN_CASES)
def test_scanned_labels_depend_only_on_the_finite_direction(fam, lam):
    # the lifting theorem the labels rest on, checked on the scan itself:
    # x and the lift cl(x) t_0 find the same labels up and down
    quotient = ParabolicQuotient.for_weight(build(*fam), lam)
    for x in quotient.si_ball(3):
        lift = from_finite(quotient.cl_direction(x))
        for step in (1, -1):
            labels = [beta for beta, _ in covers_by_scan(quotient, x, None, step)]
            assert labels == [beta for beta, _ in covers_by_scan(quotient, lift, None, step)]


def assert_row_covers_match_scan(quotient, fresh, x, state, a):
    # the cosets that the row of x's point moves x's state to, each rebuilt by rep over
    # the w named at its point, are the covers of x that a fresh quotient's candidate
    # scan finds, in order, with their states and orbit points
    nu, xi, p = state
    scan = [y for _beta, y in covers_by_scan(fresh, x, a, 1)]
    row = quotient.qb_row(nu, 1 if a is None else a.denominator, 1)
    states = [(nu2, vec_add(xi, c), p + dp) for nu2, c, dp, _u in row]
    assert [quotient.rep(quotient.named(z[0]), z[1]) for z in states] == scan, (x, a)
    assert [quotient.state_rep(z) for z in states] == scan, (x, a)
    assert states == [coset_state(fresh, y) for y in scan], (x, a)
    assert [quotient.named(nu2).act_fw(quotient.lam) for nu2, *_ in row] == [nu2 for nu2, *_ in row], (x, a)


@pytest.mark.parametrize("fam,lam,depth", GRCH1_CASES)
def test_enumeration_pool_covers_match_candidate_scan(fam, lam, depth):
    # every state the enumeration walk visited, at level 1 and at every level
    # denominator of the grid (the walk reads covers at some of these): its
    # coset covers and si_covers both match the candidate scan
    datum = build(*fam)
    crystal = SiLSCrystal(datum, lam)
    pool = walk_pool(crystal, crystal.unit, depth)
    assert pool
    fresh = ParabolicQuotient.for_weight(datum, lam)
    for x, state in pool.items():
        for d in {1} | {d for _a, d in crystal.levels}:
            a = None if d == 1 else Fraction(1, d)
            assert_row_covers_match_scan(crystal.quotient, fresh, x, state, a)
            assert_covers_match_scan(fresh, x, a)


COSET_CASES = [(fam, lam) for fam, lam, _depth in GRCH1_CASES] + [
    (("D", 4), (0, 1, 0, 0)),
    (("F", 4), (0, 0, 0, 1)),
]


@pytest.mark.parametrize("fam,lam", COSET_CASES)
def test_coset_covers_lift_to_si_covers(fam, lam):
    # the walk's covers on cosets: from x's state (cl x, xi off J, p), each edge
    # of the row qb_row gives the state of the matching entry of si_covers and of
    # the candidate scan, in order, and rep rebuilds that cover from it, at level
    # None and at every grid level; no orbit W lambda is built
    quotient = ParabolicQuotient.for_weight(build(*fam), lam)
    fresh = ParabolicQuotient.for_weight(quotient.datum, lam)
    for x in quotient.si_ball(3):
        state = quotient.coset_state(x)
        assert state == coset_state(fresh, x)
        w = quotient.decompose(x).w
        assert quotient.rep(w, state[1]) == x == quotient.rep(w, x.xi) == quotient.state_rep(state)
        for a in (None,) + quotient.cut_grid():
            assert_row_covers_match_scan(quotient, fresh, x, state, a)
            assert [y for _beta, y in quotient.si_covers(state, a)] == [
                quotient.coset_state(y) for _beta, y in covers_by_scan(quotient, x, a, 1)
            ], (x, a)
    assert "orbit" not in vars(quotient)


def test_subset_quotient_ball_matches_candidate_scan():
    # a quotient given by its subset J is bound to the weight sum of varpi_i
    # over i not in J, and answers covers, lower covers and si_ball at level None
    quotient = for_subset(build("A", 3), (2,))
    assert quotient.lam == (1, 0, 1)
    ball = quotient.si_ball(2)
    assert len(ball) == 17
    for x in ball:
        assert_covers_match_scan(quotient, x, None)


def test_si_covers_against_bruteforce():
    # candidate restriction to the two admissible label shapes loses nothing
    for quotient, lam in order_quotients():
        datum = quotient.datum
        for x in quotient.si_ball(3):
            brute = set()
            for u in datum.root_table.roots:
                start = 0 if datum.is_positive_root(u) else 1
                for n in range(start, 4):
                    beta = AffineRealRoot(u, n)
                    y = affine_reflection(datum, beta).mul(x)
                    if y.si_length == x.si_length + 1 and quotient.is_rep(y):
                        brute.add((beta, quotient.coset_state(y)))
            assert brute == set(quotient.si_covers(quotient.coset_state(x)))


def test_cover_translation_monotonicity():
    # along each cover the projected translation part grows
    for quotient, lam in order_quotients():
        jset = set(quotient.j_nodes)
        for x in quotient.si_ball(4):
            for _beta, y in quotient.si_covers(quotient.coset_state(x)):
                diff = vec_sub(quotient.state_rep(y).xi, x.xi)
                assert all(
                    diff[i - 1] >= 0
                    for i in range(1, quotient.datum.rank + 1)
                    if i not in jset
                )


def test_si_leq_examples(a1):
    quotient = ParabolicQuotient.for_weight(a1, (1,))
    e, s1 = affine_identity(a1), from_finite(simple_reflection(a1, 1))
    e, s1, t1 = map(quotient.coset_state, (e, s1, translation(a1, (1,))))
    assert quotient.si_leq(e, e)
    assert quotient.si_leq(e, t1)
    assert not quotient.si_leq(t1, e)
    assert quotient.si_leq(e, s1) and quotient.si_leq(s1, t1)


def test_fixed_translation_slice_is_bruhat():
    # within one adjusted translation slice the order is the finite Bruhat order
    for quotient, lam in order_quotients():
        datum = quotient.datum
        reps = [w for w in weyl_group(datum) if quotient.is_min_rep(w)]
        xis = [(0,) * datum.rank]
        if datum.rank == 2:
            xis += [(1, 0), (1, 1)]
        for xi in xis:
            phi, z = quotient.j_adjust(xi)
            adjusted = tuple(a + b for a, b in zip(xi, phi))
            _, z_adj = quotient.j_adjust(adjusted)
            for w1 in reps:
                for w2 in reps:
                    x1 = quotient.coset_state(AffineWeylElt(w1.mul(z_adj), adjusted))
                    x2 = quotient.coset_state(AffineWeylElt(w2.mul(z_adj), adjusted))
                    assert quotient.si_leq(x2, x1) == bruhat_leq(w2, w1)


def _ball_pairs(quotient, radius=4):
    ball, st = quotient.si_ball(radius), quotient.coset_state
    pairs = [
        (x, y)
        for x in ball
        for y in ball
        if x != y and quotient.si_leq(st(x), st(y))
    ]
    return ball, pairs


def test_simple_reflection_sign_criterion():
    # r_j x stays a representative iff the pairing with x lambda is nonzero,
    # and the sign decides which of x, r_j x is higher
    for quotient, lam in order_quotients():
        datum = quotient.datum
        lamw, st = lam_weight(quotient), quotient.coset_state
        for x in quotient.si_ball(4):
            for j in range(datum.rank + 1):
                pairing = datum.acoroot_pairing(j, x.act_weight(lamw).fw)
                rjx = affine_simple(datum, j).mul(x)
                assert quotient.is_rep(rjx) == (pairing != 0)
                if pairing > 0:
                    assert quotient.si_leq(st(x), st(rjx)) and not quotient.si_leq(st(rjx), st(x))
                elif pairing < 0:
                    assert quotient.si_leq(st(rjx), st(x)) and not quotient.si_leq(st(x), st(rjx))


def test_order_reflection_implications():
    # the three one-step implications for comparable pairs
    for quotient, lam in order_quotients():
        datum = quotient.datum
        lamw, st = lam_weight(quotient), quotient.coset_state
        ball, pairs = _ball_pairs(quotient)
        for x, y in pairs:
            px_all = [datum.acoroot_pairing(j, x.act_weight(lamw).fw) for j in range(datum.rank + 1)]
            py_all = [datum.acoroot_pairing(j, y.act_weight(lamw).fw) for j in range(datum.rank + 1)]
            for j in range(datum.rank + 1):
                px, py = px_all[j], py_all[j]
                rjx = affine_simple(datum, j).mul(x)
                rjy = affine_simple(datum, j).mul(y)
                if px > 0 and py <= 0:
                    assert quotient.si_leq(st(rjx), st(y))
                if px >= 0 and py < 0:
                    assert quotient.si_leq(st(x), st(rjy))
                if (px > 0 and py > 0) or (px < 0 and py < 0):
                    assert quotient.si_leq(st(rjx), st(rjy))


def test_edge_duality():
    # x -> y labelled beta at level a iff y^vee -> x^vee with the same label
    for quotient, lam in order_quotients():
        dual = dual_quotient(quotient)
        levels = [None, Fraction(1, 2)]
        for x in map(quotient.coset_state, quotient.si_ball(3)):
            for a in levels:
                for beta, y in quotient.si_covers(x, a):
                    dual_edges = dual.si_covers(quotient.vee(y), a)
                    assert (beta, quotient.vee(x)) in dual_edges
        # and back
        for x in map(dual.coset_state, dual.si_ball(3)):
            for a in levels:
                for beta, y in dual.si_covers(x, a):
                    assert (beta, dual.vee(x)) in quotient.si_covers(dual.vee(y), a)


def test_lower_covers_mirror_covers():
    for quotient, lam in order_quotients():
        ball = [quotient.coset_state(x) for x in quotient.si_ball(3)]
        in_ball = set(ball)
        for x in ball:
            for a in (None, Fraction(1, 2)):
                for beta, z in quotient.si_lower_covers(x, a):
                    assert (beta, x) in quotient.si_covers(z, a)
                for beta, y in quotient.si_covers(x, a):
                    if y in in_ball:
                        assert (beta, x) in quotient.si_lower_covers(y, a)


LEVEL_CASES = [(("G", 2), (1, 1)), (("C", 2), (2, 1)), (("A", 2), (2, 1))]


@pytest.mark.parametrize("fam,lam", LEVEL_CASES)
def test_level_covers_match_fraction_rule(fam, lam):
    # the integer test on the denominator keeps exactly the edges with
    # a <beta^vee, x lambda> integral, in the same order
    quotient = ParabolicQuotient.for_weight(build(*fam), lam)
    levels = quotient.cut_grid() + (Fraction(1),)
    assert len({a.denominator for a in levels}) > 2
    for x in quotient.si_ball(2):
        z = quotient.coset_state(x)
        full = quotient.si_covers(z)
        assert quotient.si_covers(z, Fraction(1)) == full
        for a in levels:
            kept = tuple(
                (beta, y) for beta, y in full
                if (a * edge_pairing(quotient, beta, x)).denominator == 1
            )
            assert quotient.si_covers(z, a) == kept, (x, a)


@pytest.mark.parametrize("fam,lam", LEVEL_CASES)
def test_si_leq_depends_on_level_denominator(fam, lam):
    # each level runs its own search on a fresh quotient, so equal answers
    # for one denominator are not read from a shared cache entry; one quotient
    # asked at every level in turn must agree with the fresh searches
    datum = build(*fam)
    shared = ParabolicQuotient.for_weight(datum, lam)
    ball = [shared.coset_state(x) for x in shared.si_ball(2)]
    by_den: dict[int, list] = {}
    for a in shared.cut_grid():
        fresh = ParabolicQuotient.for_weight(datum, lam)
        answers = [fresh.si_leq(x, y, a) for x in ball for y in ball]
        assert answers == [shared.si_leq(x, y, a) for x in ball for y in ball], a
        by_den.setdefault(a.denominator, []).append(answers)
    assert any(len(runs) > 1 for runs in by_den.values())
    for runs in by_den.values():
        assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("fam,lam", LEVEL_CASES + [(("B", 2), (1, 1)), (("A", 3), (1, 0, 1))])
def test_si_leq_matches_cover_search(fam, lam):
    # the step test (is y - x among the steps si_above finds from nu_x with
    # slack p(y) - p(x)?) agrees with a search over si_covers pruned by the xi
    # box, on every ordered pair of a ball and a walk pool, at level 1 and at
    # every grid level (the oracle runs once per denominator); each weight is
    # nonzero at two nodes, so the slack admits states that the box prunes
    datum = build(*fam)
    quotient, oracle = (ParabolicQuotient.for_weight(datum, lam) for _ in range(2))
    crystal = SiLSCrystal(datum, lam)
    points = set(quotient.si_ball(2)) | walk_pool(crystal, crystal.unit, 2).keys()
    pairs = [(x, y) for x in points for y in points]
    st = quotient.coset_state
    expected = {}
    for a in (None,) + quotient.cut_grid():
        d = 1 if a is None else a.denominator
        if d not in expected:
            expected[d] = [si_leq_by_covers(oracle, x, y, a) for x, y in pairs]
        answers = [quotient.si_leq(st(x), st(y), a) for x, y in pairs]
        bad = [pair for pair, got, want in zip(pairs, answers, expected[d]) if got != want]
        assert not bad, (a, bad[:3])
        assert len(points) < sum(answers) < len(pairs)


def test_cut_grid(a1):
    assert ParabolicQuotient.for_weight(a1, (1,)).cut_grid() == ()
    assert ParabolicQuotient.for_weight(a1, (2,)).cut_grid() == (Fraction(1, 2),)
    assert ParabolicQuotient.for_weight(a1, (3,)).cut_grid() == (
        Fraction(1, 3),
        Fraction(2, 3),
    )
