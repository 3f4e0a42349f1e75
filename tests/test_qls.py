import gc
import itertools
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest
from conftest import (
    NESTING_WEIGHTS,
    component_base_by_operators,
    covers_by_scan,
    dual_route_iota,
    edge_pairing,
    forward_reach,
    generate_by_operators,
    oracle_row,
    qls_op_by_elements,
    replay_words,
    si_path,
    table_degree_sum,
    translated_lift,
)

from silspath import characters as ch
from silspath.cartan import AffineRealRoot, build, vec_neg, vec_sub
from silspath.peterson import ParabolicQuotient
from silspath.qls import QLSCrystal, QLSPath
from silspath.weyl import (
    AffineWeylElt,
    affine_identity,
    finite_identity,
    finite_reflection,
    from_finite,
    simple_reflection,
    translation,
)

QLS_CASES = [(("A", 1), (1,)), (("A", 1), (2,)), (("A", 2), (1, 0)), (("A", 2), (1, 1)), (("C", 2), (1, 0))]


def qls(fam, lam):
    return QLSCrystal(build(*fam), lam)


def test_cl_examples(a1):
    q = QLSCrystal(a1, (2,))
    e = affine_identity(a1)
    s1 = from_finite(simple_reflection(a1, 1))
    t1 = translation(a1, (1,))
    pt = lambda w: w.act_fw(q.lam)  # a direction of a QLS path is the orbit point w lambda
    assert q.cl(q.sils.unit_path()) == QLSPath(
        (pt(finite_identity(a1)),), (F(0), F(1))
    )
    eta = si_path(q.sils, (t1, s1), (F(0), F(1, 2), F(1)))
    assert q.cl(eta) == QLSPath(
        (pt(finite_identity(a1)), pt(simple_reflection(a1, 1))), (F(0), F(1, 2), F(1))
    )
    # translates of the unit path all project to the straight line
    for xi in [(1,), (2,), (-1,)]:
        assert q.cl(q.sils.weyl_action(translation(a1, xi).reduced_word(), q.sils.unit_path())) == q.cl(
            q.sils.unit_path()
        )


def test_generate_counts(a1, a2):
    assert len(qls(("A", 1), (1,)).paths()) == 2
    q = qls(("A", 1), (2,))
    assert sorted(q.weight(p) for p in q.paths()) == [(-2,), (0,), (0,), (2,)]
    assert len(qls(("A", 2), (1, 0)).paths()) == 3


def test_lift_kappa_examples(a1):
    q = qls(("A", 1), (2,))
    e = affine_identity(a1)
    s1 = simple_reflection(a1, 1)
    pt = lambda w: w.act_fw(q.lam)
    unit = q.cl(q.sils.unit_path())
    assert q.eta_kappa(unit) == q.sils.unit_path()
    psi_mid = QLSPath((pt(s1), pt(finite_identity(a1))), (F(0), F(1, 2), F(1)))
    lift = q.eta_kappa(psi_mid)
    assert lift == si_path(
        q.sils, (from_finite(s1), e), (F(0), F(1, 2), F(1))
    )
    assert q.deg_tail(psi_mid) == 0
    psi_other = QLSPath((pt(finite_identity(a1)), pt(s1)), (F(0), F(1, 2), F(1)))
    lift2 = q.eta_kappa(psi_other)
    assert lift2 == si_path(
        q.sils, (translation(a1, (1,)), from_finite(s1)), (F(0), F(1, 2), F(1))
    )
    assert q.deg_tail(psi_other) == -1


@pytest.mark.parametrize("fam,lam", QLS_CASES)
def test_lift_kappa_properties(fam, lam):
    q = qls(fam, lam)
    for psi in q.paths():
        lift = q.eta_kappa(psi)
        assert q.sils.validate(lift)
        assert q.cl(lift) == psi
        kappa = q.sils.quotient.state_rep(lift.kappa)
        assert not any(kappa.xi)
        assert q.sils.quotient.is_min_rep(kappa.w)
        assert q.deg_tail(psi) <= 0


@pytest.mark.parametrize("fam,lam", QLS_CASES)
def test_lift_kappa_unique_in_window(fam, lam):
    # replaying the monomial over nearby translates of the unit path never
    # produces a second lift with final direction in the finite quotient
    q = qls(fam, lam)
    datum = q.datum
    jset = set(q.sils.quotient.j_nodes)
    free = [i for i in range(1, datum.rank + 1) if i not in jset]
    boxes = list(itertools.product(range(-2, 3), repeat=len(free)))
    words = replay_words(q)
    for psi in q.paths():
        hits = []
        for box in boxes:
            xi = [0] * datum.rank
            for i, c in zip(free, box):
                xi[i - 1] = c
            start = si_path(
                q.sils,
                (q.sils.quotient.project(translation(datum, tuple(xi))),),
                (F(0), F(1)),
            )
            lift = q.sils.apply(start, words[psi])
            kappa = q.sils.quotient.state_rep(lift.kappa)
            if not any(kappa.xi) and q.sils.quotient.is_min_rep(kappa.w):
                hits.append(lift)
        assert hits == [q.eta_kappa(psi)]


@pytest.mark.parametrize("fam,lam", QLS_CASES)
def test_lift_weight_is_maximal_in_fiber(fam, lam):
    # other lifts of psi sit at the same finite weight, strictly lower delta
    q = qls(fam, lam)
    depth = 2
    enum = q.sils.enumerate_demazure(q.sils.unit, depth)
    by_fiber = {}
    for eta in enum:
        by_fiber.setdefault(q.cl(eta), []).append(eta)
    unit = q.sils.unit_path()
    for psi, lifts in by_fiber.items():
        target = q.eta_kappa(psi)
        wt_psi = q.weight(psi)
        # uniqueness of the finite-final-direction lift inside the unit component
        rep = q.sils.quotient.state_rep
        finite_dirs = [
            eta
            for eta in lifts
            if not any(rep(eta.kappa).xi)
            and q.sils.quotient.is_min_rep(rep(eta.kappa).w)
            and q.component_base(eta) == unit
        ]
        for eta in lifts:
            wt = q.sils.weight(eta)
            assert wt.fw == wt_psi
            assert wt.delta <= q.deg_tail(psi)
            assert (wt.delta == q.deg_tail(psi)) == (eta == target)
        if q.deg_tail(psi) >= -depth:
            assert finite_dirs == [target]


ROW_CASES = QLS_CASES + [
    (("F", 4), (0, 1, 0, 0)),
    (("E", 6), (0, 1, 0, 0, 0, 0)),
    (("E", 7), (0, 0, 0, 0, 0, 0, 1)),
    (("E", 8), (0, 0, 0, 0, 0, 0, 0, 1)),
]


def deg_iota_by_chain(q, psi):
    """sum_u (1 - sigma_u) wt_lambda(w_{u+1} => w_u) over the cuts sigma_u of psi."""
    points, total = psi.directions, 0
    for u, cut in enumerate(psi.cuts[1:-1]):
        total += (1 - cut) * forward_reach(q.sils.quotient, points[u + 1], cut.denominator)[points[u]][0]
    assert total.denominator == 1
    return int(total)


@pytest.mark.parametrize("fam,lam", ROW_CASES)
def test_table_rows_match_distinguished_lifts(fam, lam):
    # each row's weight and degrees, read off the recorded lift, agree with
    # the lifts themselves, and psi's end directions are the lifts' ends
    q = qls(fam, lam)
    for psi, rec in q.table.items():
        kappa_lift, iota_lift = q.eta_kappa(psi), q.eta_iota(psi)
        wt_kappa, wt_iota = q.sils.weight(kappa_lift), q.sils.weight(iota_lift)
        assert rec.deg_kappa == wt_kappa.delta, psi
        assert wt_iota.delta == deg_iota_by_chain(q, psi), psi
        assert rec.weight == wt_kappa.fw == wt_iota.fw
        rep, named = q.sils.quotient.state_rep, q.sils.quotient.named
        assert named(psi.directions[-1]) == rep(kappa_lift.kappa).w
        assert named(psi.directions[0]) == rep(iota_lift.iota).w


ORACLE_CASES = QLS_CASES + [
    (("F", 4), (0, 1, 0, 0)),
    (("E", 6), (0, 1, 0, 0, 0, 0)),
    (("E", 7), (0, 0, 0, 0, 0, 0, 1)),
    (("E", 8), (0, 0, 0, 0, 0, 0, 0, 1)),
    (("G", 2), (2, 1)),
]


@pytest.mark.parametrize("fam,lam", ORACLE_CASES)
def test_table_matches_operator_oracle(fam, lam):
    # the chains on QB(W^J) are exactly the projections of the crystal the
    # root operators generate, with the weight and both degrees of its lifts
    q = qls(fam, lam)
    found = generate_by_operators(q)
    assert found.keys() == q.table.keys()
    for psi, (_word, lift) in found.items():
        weight, deg_kappa, deg_iota = oracle_row(q, lift)
        assert q.table[psi] == (weight, deg_kappa), psi
        assert q.sils.weight(q.eta_iota(psi)).delta == deg_iota, psi


@pytest.mark.parametrize("fam,lam", ORACLE_CASES)
def test_lifts_match_translated_oracle(fam, lam):
    # the lifts rebuilt from shortest-path coweights are the oracle's lifts
    # translated on the right at their final or initial direction
    q = qls(fam, lam)
    for psi, (_word, lift) in generate_by_operators(q).items():
        assert q.eta_kappa(psi) == translated_lift(q, lift, "kappa"), psi
        assert q.eta_iota(psi) == translated_lift(q, lift, "iota"), psi


@pytest.mark.parametrize("fam,lam", ORACLE_CASES + [(("B", 3), (1, 1, 0)), (("D", 4), (1, 0, 1, 0))])
def test_orbit_edges_match_edge_labels(fam, lam):
    # the QB(W^J) rows at the orbit points are the semi-infinite cover labels
    # at w t_0 (the lifting theorem of Ishii-Naito-Sagaki): beta = w(u) + delta
    # exactly for the quantum edges, p = <beta^vee, x lambda>, and each target
    # is floor(w r_u)
    datum = build(*fam)
    quotient = ParabolicQuotient.for_weight(datum, lam)
    orbit = quotient.orbit
    points, row = orbit.values(), lambda w, step: quotient.qb_row(w.act_fw(lam), 1, step)
    st, pairing = quotient.coset_state, dict(quotient._outside)  # u -> p = <u^vee, lambda>
    for w in points:
        x, edges = from_finite(w), row(w, 1)
        labels = [(AffineRealRoot(w.act_root(u), int(dp != 0)), pairing[u]) for _nu, _c, dp, u in edges]
        assert labels == [(beta, edge_pairing(quotient, beta, x)) for beta, _y in quotient.si_covers(st(x))], w
        for nu, _c, _dp, u in edges:
            assert orbit[nu] == quotient.min_rep(w.mul(finite_reflection(datum, u)))
        # quantum by the length test iff step w(u) < 0, in both directions
        for step in (1, -1):
            for _nu, _c, dp, u in row(w, step):
                assert (dp != 0) == (datum.is_positive_root(w.act_root(u)) == (step == -1)), (w, u)
    # every edge v -> w is found from both ends, up at v and down at w
    ups = Counter((w, orbit[nu], pairing[u], dp != 0) for w in points for nu, _c, dp, u in row(w, 1))
    assert ups == Counter((orbit[nu], w, pairing[u], dp != 0) for w in points for nu, _c, dp, u in row(w, -1))
    if fam == ("E", 8):
        return  # the candidate scan below takes seconds on E8
    # the covers, read off the same rows, against the independent candidate
    # scan at w t_0: up tuple for tuple, down as multisets
    for w in points:
        x = from_finite(w)
        assert quotient.si_covers(st(x)) == tuple((b, st(y)) for b, y in covers_by_scan(quotient, x, None, 1)), w
        down = quotient.si_lower_covers(st(x))
        assert Counter(down) == Counter((b, st(z)) for b, z in covers_by_scan(quotient, x, None, -1)), w


@pytest.mark.parametrize("fam,lam", ORACLE_CASES + [(("B", 3), (1, 1, 0)), (("D", 4), (1, 0, 1, 0))])
def test_rows_without_orbit_match_rows_after_it(fam, lam):
    # a row read before any orbit search, at a point that coset_state names,
    # counts the lengths of its ends; one read after it finds them recorded by
    # the search: the rows agree at every level, and the counted lengths are
    # those of the orbit's elements
    datum = build(*fam)
    searched = ParabolicQuotient.for_weight(datum, lam)
    orbit = searched.orbit
    counted = ParabolicQuotient.for_weight(datum, lam)
    levels = {1} | {a.denominator for a in searched.cut_grid()}
    for nu, w in orbit.items():
        assert counted.coset_state(from_finite(w))[0] == nu
        for step, d in itertools.product((1, -1), levels):
            assert counted.qb_row(nu, d, step) == searched.qb_row(nu, d, step), (w, step, d)
    assert "orbit" not in vars(counted)
    assert all(orbit[nu].length == n for nu, n in counted._lengths.items())


# (table rows, reach sets): the table keeps a reach only where a row of the level enters
# the point, exactly the sets `final_sums` builds; 72, 48, 48 and 48 at every point and level
TABLE_REACH_CASES = [
    (("B", 3), (1, 1, 0), 154, 28),
    (("G", 2), (1, 1), 105, 15),
    (("C", 3), (1, 0, 1), 84, 20),
    (("A", 3), (1, 1, 1), 96, 24),
]


@pytest.mark.parametrize("fam,lam,rows,reaches", TABLE_REACH_CASES)
def test_table_reads_only_nonempty_level_rows(fam, lam, rows, reaches):
    # a level with no QB(W^J) row into the final direction adds no segment, so the table
    # keeps no reach there, as the sweep does: the same rows, and the reach sets of the sweep
    table_first, sweep_first = qls(fam, lam), qls(fam, lam)
    assert len(table_first.table) == rows
    assert sweep_first.final_sums
    read = table_first.sils.quotient._reach_cache.keys()
    assert len(read) == reaches
    assert read == sweep_first.sils.quotient._reach_cache.keys()
    assert table_degree_sum(table_first) == ch.qls_degree_sum(build(*fam), lam)


@pytest.mark.parametrize("fam,lam", ROW_CASES + [(("B", 3), (1, 1, 0)), (("G", 2), (1, 1))])
def test_backward_reach_matches_the_forward_search(fam, lam):
    # the points that reach nu back along the rows into each point, with wt_lambda and the
    # coweight off J of a shortest path, are those whose forward search finds nu, with the
    # same offsets: all shortest paths carry one weight and one coweight mod Q_J^vee
    quotient = qls(fam, lam).sils.quotient
    for d in {1} | {a.denominator for a in quotient.cut_grid()}:
        forward = {v: forward_reach(quotient, v, d) for v in quotient.orbit}
        for nu in quotient.orbit:
            expected = {v: found[nu] for v, found in forward.items() if v != nu and nu in found}
            assert quotient.qb_reach(nu, d) == expected, (nu, d)


@pytest.mark.parametrize("fam,lam", [(("B", 3), (1, 1, 0)), (("G", 2), (1, 1))])
def test_qls_rows_are_read_one_way(fam, lam):
    # the table, both sweeps and both lifts of every row grow their rows by one backward
    # reach: no row out of a point is read, and no empty reach is kept
    q = qls(fam, lam)
    assert q.final_sums and q.highest_weight_sums
    for psi in q.table:
        assert q.eta_kappa(psi) and q.eta_iota(psi)
    quotient = q.sils.quotient
    assert quotient._row_cache and all(step == -1 for _nu, step, _d in quotient._row_cache)
    assert quotient._reach_cache and all(quotient._reach_cache.values())


def test_star_dual_examples(a1):
    q = qls(("A", 1), (1,))
    top = q.cl(q.sils.unit_path())
    image = q.star_dual(top)
    assert q.dual.weight(image) == (-1,)


@pytest.mark.parametrize("fam,lam", QLS_CASES)
def test_star_dual_properties(fam, lam):
    q = qls(fam, lam)
    dual = q.dual
    for psi in q.paths():
        image = q.star_dual(psi)
        assert dual.weight(image) == tuple(-c for c in q.weight(psi))
        assert dual.star_dual(image) == psi


def test_lift_iota_examples(a1):
    q = qls(("A", 1), (2,))
    s1 = simple_reflection(a1, 1)
    unit = q.cl(q.sils.unit_path())
    assert q.eta_iota(unit) == q.sils.unit_path()
    psi_other = QLSPath((finite_identity(a1).act_fw(q.lam), s1.act_fw(q.lam)), (F(0), F(1, 2), F(1)))
    lift = q.eta_iota(psi_other)
    assert lift == si_path(
        q.sils, (affine_identity(a1), AffineWeylElt(s1, (-1,))), (F(0), F(1, 2), F(1))
    )
    assert q.sils.quotient.state_rep(lift.iota) == affine_identity(a1)


@pytest.mark.parametrize("fam,lam", QLS_CASES)
def test_lift_iota_properties(fam, lam):
    q = qls(fam, lam)
    for psi in q.paths():
        lift = q.eta_iota(psi)
        assert q.sils.validate(lift)
        assert q.cl(lift) == psi
        iota = q.sils.quotient.state_rep(lift.iota)
        assert not any(iota.xi)
        assert q.sils.quotient.is_min_rep(iota.w)
        # the delta coefficient of the initial lift is nonnegative
        assert q.sils.weight(lift).delta >= 0


IOTA_CASES = QLS_CASES + [
    (("A", 2), (2, 1)),
    (("A", 3), (1, 1, 0)),
    (("D", 5), (0, 0, 0, 1, 0)),
    (("E", 6), (1, 0, 0, 0, 0, 0)),
    (("G", 2), (2, 0)),
]


@pytest.mark.parametrize("fam,lam", IOTA_CASES)
def test_iota_translation_matches_dual_route(fam, lam):
    # translating the recorded lift at its initial direction gives the same
    # lift as the star-dual route through the sigma-dual crystal
    q = qls(fam, lam)
    for psi in q.paths():
        assert q.eta_iota(psi) == dual_route_iota(q, psi), psi


@pytest.mark.parametrize("fam,lam", QLS_CASES)
def test_cl_commutes_with_operators(fam, lam):
    q = qls(fam, lam)
    datum = q.datum
    seen_lifts = [lift for _word, lift in generate_by_operators(q).values()]
    seen_lifts += [q.eta_kappa(psi) for psi in q.paths()]
    for lift in seen_lifts:
        psi = q.cl(lift)
        for j in range(datum.rank + 1):
            for sils_op, tag in ((q.sils.root_f, "f"), (q.sils.root_e, "e")):
                img = sils_op(lift, j)
                intrinsic = q.qls_op(psi, tag, j)
                if img is None:
                    assert intrinsic is None
                else:
                    assert intrinsic == q.cl(img)


@pytest.mark.parametrize("fam,lam", QLS_CASES + [case for case in NESTING_WEIGHTS if case not in QLS_CASES])
def test_qls_op_matches_the_element_map(fam, lam):
    # the operators on orbit points give the paths that `root_splice` gives on the w
    # they name with w -> min_rep(r_j w), read back as points, for every path, j and tag
    q = qls(fam, lam)
    for psi in q.table:
        for j in range(q.datum.rank + 1):
            for tag in ("e", "f"):
                assert q.qls_op(psi, tag, j) == qls_op_by_elements(q, psi, tag, j), (psi, tag, j)


def _string_length(q, psi, tag, j):
    count = 0
    while (psi := q.qls_op(psi, tag, j)) is not None:
        count += 1
    return count


AXIOM_CASES = QLS_CASES + [
    (("C", 2), (1, 1)),
    (("A", 3), (1, 0, 1)),
    (("D", 4), (0, 1, 0, 0)),
    (("G", 2), (1, 1)),
    (("B", 3), (1, 1, 0)),
]


@pytest.mark.parametrize("fam,lam", AXIOM_CASES)
def test_qls_operators_satisfy_crystal_axioms(fam, lam):
    # checked on projected paths alone, without the semi-infinite lifts
    q = qls(fam, lam)
    datum = q.datum
    for psi in q.table:
        wt = q.weight(psi)
        for j in range(datum.rank + 1):
            alpha_fw = datum.root_to_fw(datum.affine_simple_root(j).finite)
            f = q.qls_op(psi, "f", j)
            if f is not None:
                assert f in q.table
                assert q.qls_op(f, "e", j) == psi
                assert q.weight(f) == vec_sub(wt, alpha_fw)
            e = q.qls_op(psi, "e", j)
            if e is not None:
                assert e in q.table
                assert q.qls_op(e, "f", j) == psi
            phi = _string_length(q, psi, "f", j)
            eps = _string_length(q, psi, "e", j)
            assert phi - eps == datum.acoroot_pairing(j, wt)


@pytest.mark.parametrize("fam,lam", [(("A", 1), (2,)), (("A", 2), (1, 1)), (("C", 2), (1, 0))])
def test_fiber_structure(fam, lam):
    # each truncated Demazure fiber element reconstructs as the recorded
    # monomial applied to a positive translate of its component base
    q = qls(fam, lam)
    datum = q.datum
    depth = 2
    jset = set(q.sils.quotient.j_nodes)
    enum = q.sils.enumerate_demazure(q.sils.unit, depth)
    rep = q.sils.quotient.state_rep
    def proj(xi):
        return tuple(
            c if (i + 1) not in jset else 0 for i, c in enumerate(xi)
        )

    found = generate_by_operators(q)
    for eta in enum:
        psi = q.cl(eta)
        word, lift = found[psi]
        base = q.component_base(eta)
        # membership in the Demazure set forces a dominant final translate
        assert all(c >= 0 for c in proj(rep(eta.kappa).xi))
        # the fiber translate, relative to the oracle lift's final direction
        zeta = tuple(
            a - b for a, b in zip(proj(rep(eta.kappa).xi), proj(rep(lift.kappa).xi))
        )
        start = q.sils.weyl_action(translation(datum, zeta).reduced_word(), base)
        assert q.sils.apply(start, word) == eta


COMPONENT_CASES = [
    (("A", 1), (2,)),
    (("A", 2), (2, 1)),
    (("A", 2), (3, 2)),
    (("C", 2), (1, 1)),
    (("C", 2), (2, 2)),
    (("G", 2), (1, 1)),
    (("B", 3), (0, 1, 0)),
    (("D", 4), (0, 1, 0, 0)),
    (("F", 4), (0, 0, 0, 1)),
    (("E", 6), (1, 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("fam,lam", COMPONENT_CASES)
def test_component_base_matches_operator_walk(fam, lam):
    # the offsets from eta_kappa(cl eta) name the same component as the
    # root-operator walk, on the Demazure set at e and one operator beyond it
    q = qls(fam, lam)
    sils = q.sils
    sample = set(sils.enumerate_demazure(sils.unit, 1))
    for eta in tuple(sample):
        for j in range(q.datum.rank + 1):
            sample.update(p for p in (sils.root_e(eta, j), sils.root_f(eta, j)) if p is not None)
    for eta in sample:
        assert q.component_base(eta) == component_base_by_operators(sils, eta)


@pytest.mark.parametrize("fam,lam", QLS_CASES)
def test_distinguished_lift_families_closed_under_finite_ops(fam, lam):
    q = qls(fam, lam)
    datum = q.datum
    kappa_lifts = {q.eta_kappa(psi) for psi in q.paths()}
    iota_lifts = {q.eta_iota(psi) for psi in q.paths()}
    for family in (kappa_lifts, iota_lifts):
        for lift in family:
            for j in range(1, datum.rank + 1):
                for op in (q.sils.root_f, q.sils.root_e):
                    img = op(lift, j)
                    if img is not None:
                        assert img in family


TRANSLATION_CASES = QLS_CASES + [
    (("A", 3), (1, 0, 1)),
    (("B", 3), (1, 0, 1)),
    (("C", 2), (1, 1)),
    (("G", 2), (1, 1)),
    (("D", 4), (0, 1, 0, 0)),
]


@pytest.mark.parametrize("fam,lam", TRANSLATION_CASES)
def test_translation_lift_matches_replay(fam, lam):
    # replaying each element's operator word from Pi^J(t_{-xi}) gives the
    # same lift as translating the oracle lift on the right
    q = qls(fam, lam)
    quotient = q.sils.quotient
    unit = q.sils.unit_path()
    for psi, (word, lift) in generate_by_operators(q).items():
        assert q.sils.apply(unit, word) == lift
        xi = quotient.decompose(quotient.state_rep(lift.kappa)).xi
        start = si_path(
            q.sils, (quotient.project(translation(q.datum, vec_neg(xi))),), (F(0), F(1))
        )
        assert q.sils.apply(start, word) == q.eta_kappa(psi), psi


@pytest.mark.parametrize("fam,lam", QLS_CASES + [(("G", 2), (1, 1)), (("C", 2), (2, 1))])
def test_lift_cuts_lie_on_grid(fam, lam):
    # the integer cut form rests on this: N times any cut is an integer
    q = qls(fam, lam)
    allowed = {F(0), F(1)} | set(q.sils.quotient.cut_grid())
    for psi, (_word, oracle_lift) in generate_by_operators(q).items():
        for lift in (oracle_lift, q.eta_kappa(psi), q.eta_iota(psi)):
            assert set(lift.cuts) <= allowed, (psi, lift)


@pytest.mark.parametrize("fam,lam", QLS_CASES + [(("F", 4), (0, 1, 0, 0))])
def test_decompose_memo_matches_fresh_quotient(fam, lam):
    # the map named per orbit point gives every direction's w = cl(x), as a fresh
    # quotient's decompositions and orbit search do; cl keeps the points and names
    # none, so the directions' points are named here
    q = qls(fam, lam)
    memo = q.sils.quotient._named
    found = generate_by_operators(q)
    directions = {z for _word, lift in found.values() for z in lift.directions}
    for z in directions:
        q.sils.quotient.named(z[0])
    assert {z[0] for z in directions} <= memo.keys()
    fresh = ParabolicQuotient.for_weight(q.datum, q.lam)
    for z in directions:
        assert memo[z[0]] == fresh.decompose(q.sils.quotient.state_rep(z)).w, z
    for nu, w in memo.items():
        assert w == fresh.orbit[nu], nu


def test_j_adjust_memo_matches_fresh_projection():
    q = qls(("A", 3), (1, 0, 1))
    quotient = q.sils.quotient
    assert quotient.j_nodes
    directions = {z for _word, lift in generate_by_operators(q).values() for z in lift.directions}
    for psi in q.paths():
        directions.update(q.eta_kappa(psi).directions)
    for z in directions:
        quotient.state_rep(z)  # rep reads j_adjust at the state's xi
    cache = quotient._adjust_cache
    assert {z[1] for z in directions} <= cache.keys()
    for xi, memo in cache.items():
        p = quotient.project(translation(q.datum, xi))
        assert memo == (vec_sub(p.xi, xi), p.w)


def test_quotient_memos_are_freed_with_crystal():
    # the quotient and its memos belong to the crystal: nothing else keeps
    # them, and no reference cycle needs the cyclic collector; the sweep and a
    # quotient character fill the per-level rows, which a method cache would pin
    enabled = gc.isenabled()
    gc.disable()
    try:
        q = qls(("G", 2), (0, 1))
        assert q.table
        paths = q.sils.enumerate_demazure(q.sils.unit, 2)
        assert all(q.sils.validate(eta) for eta in paths)
        total = Counter()
        for part in q.final_sums.values():
            total.update(part)
        assert q.interval_sum(q.lam) == total
        quotient = q.sils.quotient
        assert quotient._named and quotient._si_leq_cache
        assert quotient._row_cache and quotient._qb_levels and quotient._reach_cache
        ref = weakref.ref(quotient)
        del q, quotient
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
