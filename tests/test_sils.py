import gc
import inspect
import itertools
import operator
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest
from conftest import (
    GRCH1_CASES,
    brute_force_by_paths,
    canonicalize,
    chain_states,
    component_base_by_operators,
    coset_state,
    enumerate_demazure_by_pool,
    is_translation_type,
    lam_weight,
    multipartitions,
    si_above_by_states,
    si_path,
    walk_pool,
)

from silspath import characters as ch
from silspath.cartan import LevelZeroWeight, build
from silspath.peterson import ParabolicQuotient
from silspath.qls import QLSCrystal
from silspath.sils import SiLSCrystal, SiLSPath
from silspath.weyl import (
    AffineWeylElt,
    BudgetExceeded,
    FiniteWeylElt,
    affine_identity,
    affine_simple,
    bruhat_leq,
    from_finite,
    longest_element,
    simple_reflection,
    translation,
    weyl_group,
)

ENUM_CASES = [
    (("A", 1), (1,), 3),
    (("A", 1), (2,), 2),
    (("A", 1), (3,), 2),
    (("A", 2), (1, 0), 2),
    (("A", 2), (1, 1), 1),
    (("C", 2), (1, 0), 2),
]


def crystal(fam, lam):
    return SiLSCrystal(build(*fam), lam)


def a1_paths(datum):
    e = affine_identity(datum)
    s1 = from_finite(simple_reflection(datum, 1))
    t1 = translation(datum, (1,))
    return e, s1, t1


# -- validation and weights -------------------------------------------------


def test_validate_examples(a1):
    two = SiLSCrystal(a1, (2,))
    one = SiLSCrystal(a1, (1,))
    e, s1, t1 = a1_paths(a1)
    assert two.validate(two.unit_path())
    cuts = (F(0), F(1, 2), F(1))
    assert two.validate(si_path(two, (s1, e), cuts))
    good = si_path(one, (s1, e), cuts)
    assert not one.validate(good)
    assert "level" in one.invalid_reason(good)


def test_weight_examples(a1):
    two = SiLSCrystal(a1, (2,))
    e, s1, t1 = a1_paths(a1)
    assert two.weight(two.unit_path()) == LevelZeroWeight((2,), 0)
    assert two.weight(si_path(two, (s1, e), (F(0), F(1, 2), F(1)))) == LevelZeroWeight((0,), 0)
    assert two.weight(si_path(two, (t1, s1), (F(0), F(1, 2), F(1)))) == LevelZeroWeight((0,), -1)


# -- root operators -----------------------------------------------------------


def test_root_operator_examples(a1):
    two = SiLSCrystal(a1, (2,))
    e, s1, t1 = a1_paths(a1)
    eta = two.unit_path()
    f1 = two.root_f(eta, 1)
    assert f1 == si_path(two, (s1, e), (F(0), F(1, 2), F(1)))
    f11 = two.root_f(f1, 1)
    assert f11 == si_path(two, (s1,), (F(0), F(1)))
    assert two.root_f(f11, 1) is None
    e0 = two.root_e(eta, 0)
    assert e0 == si_path(two, (e, AffineWeylElt(s1.w, (-1,))), (F(0), F(1, 2), F(1)))
    for j in (1,):
        assert two.root_e(eta, j) is None


def test_string_examples(a1):
    two = SiLSCrystal(a1, (2,))
    eta = two.unit_path()
    assert two.string_phi(eta, 1) == 2
    assert two.string_eps(eta, 0) == 2
    assert two.string_eps(eta, 1) == 0


def test_iota_kappa(a1):
    two = SiLSCrystal(a1, (2,))
    e, s1, t1 = a1_paths(a1)
    eta, rep = two.unit_path(), two.quotient.state_rep
    assert rep(eta.iota) == rep(eta.kappa) == e
    assert rep(si_path(two, (t1, s1), (F(0), F(1, 2), F(1))).kappa) == s1


def _component_sample(crystal, depth):
    """Enumerated truncated Demazure set at the identity, a reusable sample."""
    return crystal.enumerate_demazure(crystal.unit, depth)


@pytest.mark.parametrize("fam,lam,depth", ENUM_CASES)
def test_crystal_axioms_on_enumerated_sets(fam, lam, depth):
    c = crystal(fam, lam)
    datum = c.datum
    for eta in _component_sample(c, depth):
        wt = c.weight(eta)
        for j in range(datum.rank + 1):
            aj = datum.affine_simple_root(j)
            alpha_fw = datum.root_to_fw(aj.finite)
            f = c.root_f(eta, j)
            if f is not None:
                assert c.validate(f)
                back = c.root_e(f, j)
                assert back == eta
                wtf = c.weight(f)
                assert wtf.fw == tuple(a - b for a, b in zip(wt.fw, alpha_fw))
                assert wtf.delta == wt.delta - aj.n
            ee = c.root_e(eta, j)
            if ee is not None:
                assert c.validate(ee)
                assert c.root_f(ee, j) == eta
            # string lengths match iterated operator counts
            _, eps_count = c.e_max(eta, j)
            _, phi_count = c.f_max(eta, j)
            assert eps_count == c.string_eps(eta, j)
            assert phi_count == c.string_phi(eta, j)
            # regularity of the j-string
            pairing = datum.acoroot_pairing(j, wt.fw)
            assert c.string_phi(eta, j) - c.string_eps(eta, j) == pairing


def test_kappa_flip_criterion(a1):
    # the final direction flips under f^max exactly when its pairing is positive
    two = SiLSCrystal(a1, (2,))
    sample = _component_sample(two, 2)
    for eta in sample:
        kappa = two.quotient.state_rep(eta.kappa)
        for j in range(2):
            pairing = two.datum.acoroot_pairing(
                j, kappa.act_weight(lam_weight(two.quotient)).fw
            )
            fmax, count = two.f_max(eta, j)
            if pairing > 0:
                assert count >= 1
                assert fmax.kappa == two.quotient.coset_state(affine_simple(a1, j).mul(kappa))
            else:
                assert fmax.kappa == eta.kappa


# -- Weyl action ---------------------------------------------------------------


def test_weyl_action_examples(a1):
    two = SiLSCrystal(a1, (2,))
    e, s1, t1 = a1_paths(a1)
    eta = two.unit_path()
    assert two.weyl_action(affine_identity(a1).reduced_word(), eta) == eta
    assert two.weyl_action(t1.reduced_word(), eta) == si_path(two, (t1,), (F(0), F(1)))
    f1 = two.root_f(eta, 1)
    for j in range(2):
        rj = affine_simple(a1, j).reduced_word()
        assert two.weyl_action(rj, two.weyl_action(rj, f1)) == f1


def test_weyl_action_translation_form_consistent(a2):
    # on translation-type paths the reduced-word action is the projection form,
    # each direction y going to Pi^J(x y): at simple reflections, r_0 and
    # translations, on one- and two-direction paths
    xs = [affine_simple(a2, j) for j in range(3)]
    xs += [translation(a2, xi) for xi in [(1, 0), (0, 1), (1, 1), (-1, 1)]]
    for lam, shapes in [((1, 1), {1}), ((2, 0), {1, 2})]:
        c = SiLSCrystal(a2, lam)
        base = c.quotient.project(translation(a2, (-1, -1)))
        paths = [eta for eta in c.enumerate_demazure(c.quotient.coset_state(base), 3) if is_translation_type(c, eta)]
        assert {len(eta.directions) for eta in paths} == shapes
        for eta, x in itertools.product(paths, xs):
            dirs = tuple(c.quotient.project(x.mul(c.quotient.state_rep(y))) for y in eta.directions)
            closed = c.weyl_action(x.reduced_word(), eta)
            assert closed == si_path(c, dirs, eta.cuts), (eta, x)
            assert c.validate(closed)


# -- duality --------------------------------------------------------------------


def test_dual_examples(a1):
    one = SiLSCrystal(a1, (1,))
    e, s1, t1 = a1_paths(a1)
    dual = SiLSCrystal(a1, a1.sigma_dual(one.lam))
    assert one.dual_path(one.unit_path()) == si_path(dual, (s1,), (F(0), F(1)))
    assert dual.lam == (1,) and dual.validate(one.dual_path(one.unit_path()))


@pytest.mark.parametrize("fam,lam,depth", [(("A", 1), (2,), 2), (("A", 2), (1, 0), 1), (("C", 2), (1, 0), 1)])
def test_dual_properties(fam, lam, depth):
    c = crystal(fam, lam)
    dual = SiLSCrystal(c.datum, c.datum.sigma_dual(c.lam))
    for eta in _component_sample(c, depth):
        im = c.dual_path(eta)
        assert dual.validate(im)
        assert dual.dual_path(im) == eta
        assert dual.weight(im) == -c.weight(eta)
        for j in range(c.datum.rank + 1):
            f = c.root_f(eta, j)
            fim = dual.root_e(im, j)
            assert (f is None) == (fim is None)
            if f is not None:
                assert c.dual_path(f) == fim
            e_ = c.root_e(eta, j)
            eim = dual.root_f(im, j)
            assert (e_ is None) == (eim is None)
            if e_ is not None:
                assert c.dual_path(e_) == eim


# -- Demazure membership -----------------------------------------------------------


def test_demazure_membership_examples(a1):
    one = SiLSCrystal(a1, (1,))
    e, s1, t1 = a1_paths(a1)
    eta, e = one.unit_path(), one.quotient.coset_state(e)
    assert one.in_demazure_final(eta, e)
    low = si_path(one, (AffineWeylElt(s1.w, (-1,)),), (F(0), F(1)))
    assert not one.in_demazure_final(low, e)
    assert one.in_demazure_initial(eta, e)


def test_demazure_nesting(a1):
    one = SiLSCrystal(a1, (1,))
    quotient = one.quotient
    ball = [quotient.coset_state(x) for x in quotient.si_ball(3)]
    sample = _component_sample(one, 3)
    for x in ball:
        for y in ball:
            sub = all(
                one.in_demazure_final(eta, x)
                for eta in sample
                if one.in_demazure_final(eta, y)
            )
            if quotient.si_leq(x, y):
                assert sub
    # and the converse on the witnessing single-direction paths
    for x in ball:
        for y in ball:
            if not quotient.si_leq(x, y):
                wit = si_path(one, (quotient.state_rep(y),), (F(0), F(1)))
                assert not one.in_demazure_final(wit, x)


# -- stability of the Demazure subsets under operators ------------------------------


@pytest.mark.parametrize("fam,lam,depth", [(("A", 1), (2,), 2), (("A", 2), (1, 1), 1), (("C", 2), (1, 0), 1)])
def test_demazure_stability(fam, lam, depth):
    c = crystal(fam, lam)
    datum = c.datum
    quotient = c.quotient
    lamw = lam_weight(c.quotient)
    xs = [x for x in quotient.si_ball(2)]
    sample, st = _component_sample(c, depth), quotient.coset_state
    for x in xs:
        members = [eta for eta in sample if c.in_demazure_final(eta, st(x))]
        for eta in members:
            for j in range(datum.rank + 1):
                f = c.root_f(eta, j)
                if f is not None:
                    assert c.in_demazure_final(f, st(x))
                pairing = datum.acoroot_pairing(j, x.act_weight(lamw).fw)
                if pairing >= 0:
                    e_ = c.root_e(eta, j)
                    if e_ is not None:
                        assert c.in_demazure_final(e_, st(x))
                if pairing != 0:
                    rjx = affine_simple(datum, j).mul(x)
                    fmax, _ = c.f_max(eta, j)
                    assert c.in_demazure_final(fmax, st(rjx))


@pytest.mark.parametrize("fam,lam,depth", [(("A", 1), (2,), 2), (("A", 2), (1, 1), 1)])
def test_demazure_string_generation(fam, lam, depth):
    # for positive pairing, the set at x is swept out from the set at r_j x
    # by raising operators
    c = crystal(fam, lam)
    datum = c.datum
    quotient = c.quotient
    lamw = lam_weight(c.quotient)
    sample, st = _component_sample(c, depth), quotient.coset_state
    for x in quotient.si_ball(2):
        for j in range(datum.rank + 1):
            if datum.acoroot_pairing(j, x.act_weight(lamw).fw) <= 0:
                continue
            z, rjx = st(x), st(affine_simple(datum, j).mul(x))
            for eta in sample:
                if c.in_demazure_final(eta, z):
                    fmax, _ = c.f_max(eta, j)
                    assert c.in_demazure_final(fmax, rjx)
                    back, count = c.e_max(fmax, j)
                    # eta appears along the raising string from fmax
                    cur, found = fmax, fmax == eta
                    for _ in range(count):
                        cur = c.root_e(cur, j)
                        if cur == eta:
                            found = True
                    assert found
                if c.in_demazure_final(eta, rjx):
                    cur = eta
                    while cur is not None:
                        assert c.in_demazure_final(cur, z)
                        cur = c.root_e(cur, j)


# -- canonicalization ------------------------------------------------------------


def test_canonicalize_trivial(a1):
    one = SiLSCrystal(a1, (1,))
    ops, term = canonicalize(one, one.unit_path())
    assert ops == () and term == one.unit_path()


def test_canonicalize_s1(a1):
    one = SiLSCrystal(a1, (1,))
    s1 = from_finite(simple_reflection(a1, 1))
    ops, term = canonicalize(one, si_path(one, (s1,), (F(0), F(1))))
    assert term == si_path(one, (translation(a1, (1,)),), (F(0), F(1)))
    assert is_translation_type(one, term)


@pytest.mark.parametrize("fam,lam,depth", [(("A", 1), (2,), 2), (("A", 2), (1, 1), 1), (("C", 2), (1, 0), 1)])
def test_canonicalize_properties(fam, lam, depth):
    c = crystal(fam, lam)
    for eta in _component_sample(c, depth):
        ops, term = canonicalize(c, eta)
        assert is_translation_type(c, term)
        assert c.validate(term)
        # replaying the monomial reaches the terminal
        cur = eta
        for j, count in ops:
            for _ in range(count):
                cur = c.root_f(cur, j)
                assert cur is not None
        assert cur == term
        # idempotent on its own output
        ops2, term2 = canonicalize(c, term)
        assert ops2 == () and term2 == term


@pytest.mark.parametrize("fam,lam,depth", [(("A", 1), (2,), 2), (("A", 2), (1, 1), 1)])
def test_component_base_unique_per_component(fam, lam, depth):
    # grouping the truncated set by its component base, each group holds at
    # most one element of the distinguished translation form ending at e
    c = crystal(fam, lam)
    e = c.quotient.coset_state(affine_identity(c.datum))
    groups: dict[SiLSPath, list[SiLSPath]] = {}
    for eta in _component_sample(c, depth):
        groups.setdefault(component_base_by_operators(c, eta), []).append(eta)
    for base, members in groups.items():
        assert base.kappa == e
        distinguished = [
            eta
            for eta in members
            if is_translation_type(c, eta) and eta.kappa == e
        ]
        assert len(distinguished) <= 1
        if base in members:
            assert distinguished == [base]
        # weight relation: the base sits at lambda minus a nonnegative
        # multiple of delta
        wt = c.weight(base)
        assert wt.fw == c.lam and wt.delta <= 0


# -- truncated enumeration ----------------------------------------------------------


def test_enumerate_a1_fundamental(a1):
    one = SiLSCrystal(a1, (1,))
    e, s1, t1 = a1_paths(a1)
    paths = one.enumerate_demazure(one.quotient.coset_state(e), 3)
    expected = {
        si_path(one, (AffineWeylElt(w.w, (k,)),), (F(0), F(1)))
        for w in (e, s1)
        for k in range(4)
    }
    assert set(paths) == expected
    assert one.enumerate_demazure(one.quotient.coset_state(s1), 0) == (si_path(one, (s1,), (F(0), F(1))),)


@pytest.mark.parametrize("fam,lam,depth", ENUM_CASES)
def test_enumeration_is_demazure_and_bounded(fam, lam, depth):
    c = crystal(fam, lam)
    e = c.unit
    paths = c.enumerate_demazure(e, depth)
    assert len(set(paths)) == len(paths)
    for eta in paths:
        assert c.validate(eta)
        assert c.in_demazure_final(eta, e)
        assert -depth <= c.weight(eta).delta <= 0


@pytest.mark.parametrize("fam,lam,depth", ENUM_CASES)
def test_enumeration_closed_under_operators_within_window(fam, lam, depth):
    # completeness: applying any operator to a member stays in the set
    # whenever the result still satisfies the defining conditions
    c = crystal(fam, lam)
    e = c.unit
    paths = set(c.enumerate_demazure(e, depth))
    for eta in paths:
        for j in range(c.datum.rank + 1):
            for img in (c.root_f(eta, j), c.root_e(eta, j)):
                if img is None:
                    continue
                if c.in_demazure_final(img, e) and c.weight(img).delta >= -depth:
                    assert img in paths


def test_enumerated_cuts_lie_on_grid():
    datum = build("G", 2)
    c = SiLSCrystal(datum, (0, 1))
    allowed = {F(0), F(1)} | set(c.quotient.cut_grid())
    paths = c.enumerate_demazure(c.unit, 2)
    assert any(len(eta.directions) > 1 for eta in paths)
    for eta in paths:
        assert set(eta.cuts) <= allowed, eta


def test_budget_exhaustion_names_its_stage(a1):
    # the pool is every direction whose covers were computed; A1 lambda=2 at
    # depth 2 pools fewer directions than it emits paths.  The brute force
    # counts the same walk's paths without holding them, at the same bounds.
    c = SiLSCrystal(a1, (2,))
    e = c.unit
    paths = c.enumerate_demazure(e, 2)
    pool = walk_pool(c, e, 2)
    assert len(pool) < len(paths)
    for budget, stage in [
        (len(pool) - 1, "direction pool"),
        (len(pool), "path enumeration"),
        (len(paths) - 1, "path enumeration"),
    ]:
        with pytest.raises(BudgetExceeded, match=stage):
            SiLSCrystal(a1, (2,)).enumerate_demazure(e, 2, budget)
        with pytest.raises(BudgetExceeded, match=stage):
            ch.brute_force_gch_minus_e(a1, (2,), 2, budget)
    assert SiLSCrystal(a1, (2,)).enumerate_demazure(e, 2, len(paths)) == paths
    assert ch.brute_force_gch_minus_e(a1, (2,), 2, len(paths)) == brute_force_by_paths(a1, (2,), 2)


# the stage each budget 1..paths+2 stops at, recorded while the walk still sorted
# its kappas by (si_length, xi, w.sort_key): "direction pool" for budgets up to
# `pool`, "path enumeration" below `paths`, and none from `paths` on
BUDGET_STAGES = [
    (("A", 1), (2,), 2, 5, 14),
    (("A", 2), (1, 1), 3, 59, 86),
    (("B", 2), (1, 1), 4, 119, 280),
]


@pytest.mark.parametrize("fam,lam,depth,pool,paths", BUDGET_STAGES)
def test_budget_stages_are_pinned(fam, lam, depth, pool, paths):
    # the order the walk takes its kappas in decides which budget runs out first
    # when both do; it moves no stage of the enumeration or of the brute force
    datum = build(*fam)
    c = SiLSCrystal(datum, lam)
    e = c.unit
    assert len(c.enumerate_demazure(e, depth)) == paths
    runs = (
        lambda budget: c.enumerate_demazure(e, depth, budget),
        lambda budget: ch.brute_force_gch_minus_e(datum, lam, depth, budget),
    )
    for budget in range(1, paths + 3):
        stage = "direction pool" if budget <= pool else "path enumeration" if budget < paths else None
        for run in runs:
            if stage is None:
                run(budget)
                continue
            with pytest.raises(BudgetExceeded, match=stage):
                run(budget)


def test_brute_force_walk_hashes_no_weyl_element_per_state(monkeypatch):
    # after the closed form has read its rows of QB(W^J), the brute force walks
    # integer states: it rebuilds no representative, and it hashes no Weyl element,
    # as the rows its covers read are kept per orbit point; the closed form reads
    # only 5 rows into points (step -1), so the walk builds its own 24 rows up from
    # the 8 points of W^J at d = 1, 2 and 3
    datum, lam = build("B", 2), (1, 1)
    ch._qls.cache_clear()
    closed = ch.gch_demazure_minus_e(datum, lam, 4)
    quotient = ch._qls(datum, lam).sils.quotient
    before = set(quotient._row_cache)
    calls = {"rep": 0, "hash": 0}
    rep, finite_hash = ParabolicQuotient.rep, FiniteWeylElt.__hash__

    def counting_rep(self, *args):
        calls["rep"] += 1
        return rep(self, *args)

    def counting_hash(self):
        calls["hash"] += 1
        return finite_hash(self)

    monkeypatch.setattr(ParabolicQuotient, "rep", counting_rep)
    monkeypatch.setattr(FiniteWeylElt, "__hash__", counting_hash)
    brute = ch.brute_force_gch_minus_e(datum, lam, 4)
    monkeypatch.undo()
    added = quotient._row_cache.keys() - before
    assert len(before) == 5 and {step for _nu, step, _d in before} == {-1}
    assert len(added) == 24 and Counter((step, d) for _nu, step, d in added) == {(1, 1): 8, (1, 2): 8, (1, 3): 8}
    assert len(quotient._row_cache) == 29
    assert calls == {"rep": 0, "hash": 0}, calls
    assert brute == closed == brute_force_by_paths(datum, lam, 4)


def test_brute_force_decodes_each_key_once(monkeypatch):
    # the brute force counts the walk's (key, delta) pairs and decodes each distinct
    # key once: at most one `unpack` per term of its result, not one per path
    datum, lam = build("B", 2), (1, 1)
    calls, unpack = [], SiLSCrystal.unpack

    def counting(self, key):
        calls.append(key)
        return unpack(self, key)

    monkeypatch.setattr(SiLSCrystal, "unpack", counting)
    brute = ch.brute_force_gch_minus_e(datum, lam, 4)
    monkeypatch.undo()
    c = SiLSCrystal(datum, lam)
    assert sum(1 for _ in c._demazure_walk(c.unit, 4, 500_000)) == 280
    assert len(calls) == len(set(calls)) <= len(brute.terms) < 280
    assert brute == ch.gch_demazure_minus_e(datum, lam, 4) == brute_force_by_paths(datum, lam, 4)


WALK_WEIGHT_CASES = [
    # (family, lambda, translated base or None for e, depth, paths with delta > 0)
    (("A", 2), (1, 1), (-1, 0), 2, 8),
    (("G", 2), (4, 3), None, 0, 0),  # 7,293 paths from e (N = 92,820, P = 17)
    (("G", 2), (1, 1), (-1, 0), 1, 64),  # of 493 paths
]


def test_walk_carries_each_path_weight():
    # from e or a translated x, the weight carried to each closing path, its key
    # decoded by `unpack`, is its weight; some weight has a coordinate +-P, so fields
    # at the width bound decode, and some have delta > 0, so positive degrees do
    for fam, lam, base, depth, raised in WALK_WEIGHT_CASES:
        c = crystal(fam, lam)
        q = c.quotient
        x = c.unit if base is None else q.coset_state(q.project(translation(c.datum, base)))
        n, cut, widest, positive = c.n, 0, 0, 0
        for steps, cuts_desc, key, delta in c._demazure_walk(x, depth, 500_000):
            chain = chain_states(steps)
            ticks = (0,) + tuple(reversed(cuts_desc)) + (n,)
            eta = SiLSPath.from_ticks(tuple(reversed(chain)), ticks, n)
            assert c.validate(eta), eta
            fw = c.unpack(key)
            assert c.weight(eta) == LevelZeroWeight(fw, delta), eta
            cut += len(chain) > 1
            widest = max(widest, *map(abs, fw))
            positive += delta > 0
        assert cut  # some path settles a segment before it closes
        assert widest == max(q.pairing_values()) and positive == raised, fam


def test_dropped_crystal_is_collected(a2):
    # the per-point data lives on the crystal's quotient and goes with it
    c = SiLSCrystal(a2, (1, 1))
    unit = c.unit_path()
    assert c.root_e(c.root_f(unit, 1), 1) == unit
    assert c.enumerate_demazure(c.unit, 1)
    assert c.quotient._named and c.quotient._row_cache
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def test_dropped_qls_crystal_is_collected(a2):
    # no method cache outlives the crystal: its rows, lifts and dual images
    # are freed with it
    q = QLSCrystal(a2, (1, 1))
    for psi in q.table:
        assert q.deg_tail(psi) <= 0
        assert q.eta_kappa(psi) and q.eta_iota(psi) and q.star_dual(psi)
    ref = weakref.ref(q)
    del q, psi
    gc.collect()
    assert ref() is None


def test_enumerating_crystal_is_freed_without_cyclic_gc(a2):
    # the enumeration leaves no reference cycle through the crystal, so
    # dropping the last reference frees it with the cyclic collector off
    enabled = gc.isenabled()
    gc.disable()
    try:
        c = SiLSCrystal(a2, (1, 1))
        assert c.enumerate_demazure(c.unit, 2)
        ref = weakref.ref(c)
        del c
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("fam,lam", [(("C", 2), (1, 1)), (("G", 2), (0, 1))])
def test_decompose_memo_matches_fresh_on_enumeration_pool(fam, lam):
    # the walk's states, rebuilt by rep, are exactly the paths' directions, and
    # decomposing each one gives back its state (cl x, xi off J, <xi, lambda>),
    # from e and from a base whose xi is nonzero on all of J (G2: J = {1}); the
    # decompositions' w are kept per orbit point (`named`), each the w that a
    # fresh quotient's orbit search finds there
    c = crystal(fam, lam)
    q, bases, pools = c.quotient, [affine_identity(c.datum)], []
    bases.append(q.project(translation(c.datum, (-1,) * c.datum.rank)))
    assert all(v for v, m in zip(bases[1].xi, lam) if not m)
    for x in bases:
        paths = c.enumerate_demazure(q.coset_state(x), 2)
        pools.append(walk_pool(c, q.coset_state(x), 2))
        assert {q.state_rep(y) for eta in paths for y in eta.directions} == pools[-1].keys()
    memo = q._named
    assert {state[0] for pool in pools for state in pool.values()} <= memo.keys()
    for pool in pools:
        for y, state in pool.items():
            assert coset_state(q, y) == state, y
    fresh = ParabolicQuotient.for_weight(c.datum, lam)
    for nu, w in memo.items():
        assert w == fresh.orbit[nu], nu


def p_of(c, z):
    """p(z) = <xi, lambda> = -delta(z lambda), the degree a direction costs."""
    return -z.act_weight(lam_weight(c.quotient)).delta


@pytest.mark.parametrize(
    "fam,lam,depth",
    [
        (("A", 1), (2,), 4),
        (("A", 2), (1, 1), 2),
        (("C", 2), (1, 0), 3),
        (("G", 2), (0, 1), 2),
        (("B", 2), (1, 1), 2),
        (("A", 3), (1, 0, 1), 1),
    ],
)
def test_capped_search_matches_pool_oracle(fam, lam, depth):
    # capping each search by the remaining degree drops no path and keeps
    # the order, at bases with p_x = 0, p_x < 0 and p_x > depth
    datum = build(*fam)
    c = SiLSCrystal(datum, lam)
    q = c.quotient
    low = q.project(translation(datum, (-1,) * datum.rank))
    high = q.project(translation(datum, (depth + 1,) * datum.rank))
    assert p_of(c, low) < 0 < depth < p_of(c, high)
    for x in (affine_identity(datum), q.project(from_finite(longest_element(datum))), low, high):
        x = q.coset_state(x)
        for d in range(1, depth + 1):
            assert c.enumerate_demazure(x, d) == enumerate_demazure_by_pool(c, x, d), (x, d)


@pytest.mark.parametrize("fam,lam", [(("A", 2), (1, 1)), (("B", 3), (0, 1, 0))])
def test_pairing_never_falls_along_a_cover(fam, lam):
    # the cap is exact only because p_of is monotone along every cover, at
    # level 1 and at each grid level
    c = crystal(fam, lam)
    assert c.enumerate_demazure(c.unit, 2)
    q = c.quotient
    pool = walk_pool(c, c.unit, 2)
    assert pool
    for x, z in pool.items():
        for a in (None,) + q.cut_grid():
            for _beta, y in q.si_covers(z, a):
                assert p_of(c, q.state_rep(y)) >= p_of(c, x), (x, y, a)


def test_capped_search_reach_is_pinned(monkeypatch):
    # the (step, level denominator) pairs whose QB(W^J) rows the walk's searches
    # read, each search running from its top's point with the top's slack: exactly
    # 132 here, 298 when each search ran from the top's state (one search per
    # translate), 380 (as many as the (x, d) pairs of the walk on directions) when
    # the walk also searched at levels where the top's row is empty; the pool bound
    # max_den * depth read covers at 998 directions, and a search capped at
    # depth * N instead of the remaining degree reads 405 pairs.
    # Only the reads of `si_above` count: the walk's level lists read rows too
    read, qb_row = set(), ParabolicQuotient.qb_row

    def reading(self, nu, d, step):
        caller = inspect.currentframe().f_back
        if caller.f_code.co_name == "si_above":
            search = caller.f_locals  # the step it expands
            read.add((nu, search["xi"], search["p0"], d))
        return qb_row(self, nu, d, step)

    monkeypatch.setattr(ParabolicQuotient, "qb_row", reading)
    c = SiLSCrystal(build("B", 2), (1, 1))
    assert len(c.enumerate_demazure(c.unit, 4)) == 280
    assert len(read) == 132


def test_walk_searches_are_pinned(monkeypatch):
    # the walk runs each capped search once per (orbit point, level denominator,
    # slack), shared by every translate of a state (121 searches when each ran from
    # a state), only for a node that closes within the depth, and only at a level
    # where the top's QB(W^J) row is not empty (341 searches on states without that
    # skip, 220 of them on an empty row): a rewrite that adds searches moves the count
    calls, si_above = [], ParabolicQuotient.si_above

    def counting(self, *args, **kwargs):
        calls.append(args)
        return si_above(self, *args, **kwargs)

    monkeypatch.setattr(ParabolicQuotient, "si_above", counting)
    c = SiLSCrystal(build("B", 2), (1, 1))
    assert sum(1 for _ in c._demazure_walk(c.unit, 4, 500_000)) == 280
    assert len(calls) == len(set(calls)) == 35


@pytest.mark.parametrize("fam,lam,depth", GRCH1_CASES)
def test_step_search_matches_the_search_on_states(fam, lam, depth):
    # an edge adds the same offset to every state over its point, so the steps found
    # from (nu, 0, 0) with slack cap - p, added to a state (nu, xi, p), are the states a
    # search from that state finds capped at cap, in the same order: at every state
    # the walk reaches at depth 2, at level 1 and every grid level, caps 0..depth
    c = crystal(fam, lam)
    q, quantum = c.quotient, 0
    dens = sorted({1} | {d for _a, d in c.levels})
    for nu, xi, p in walk_pool(c, c.unit, 2).values():
        for d in dens:
            for cap in range(depth + 1):
                steps = q.si_above(nu, d, cap - p)
                shifted = tuple((nu2, tuple(map(operator.add, xi, dxi)), p + dp) for nu2, dxi, dp in steps)
                assert shifted == si_above_by_states(q, (nu, xi, p), d, cap), (nu, xi, p, d, cap)
                quantum += any(dp for _nu, _dxi, dp in steps)
    assert quantum  # some search takes a quantum step, whose dxi is not zero


@pytest.mark.parametrize("fam,lam,depth", GRCH1_CASES)
def test_walk_stays_in_depth_and_cuts_below_the_parent(fam, lam, depth):
    # every yielded path costs at most the depth, from e and from a base that costs
    # more than the depth by itself, and each child cuts strictly below the right
    # cut of its parent, the path one direction shorter
    c = crystal(fam, lam)
    high = c.quotient.coset_state(translation(c.datum, (depth + 1,) * c.datum.rank))
    walk = [
        (chain_states(steps), *rest) for x in (c.unit, high) for steps, *rest in c._demazure_walk(x, depth, 500_000)
    ]
    assert any(cuts_desc for _chain, cuts_desc, _key, _delta in walk)
    for chain, cuts_desc, _key, delta in walk:
        assert -delta <= depth
        assert len(cuts_desc) == len(chain) - 1
        assert all(0 < a < right for a, right in zip(cuts_desc, (c.n,) + cuts_desc)), cuts_desc


@pytest.mark.parametrize("fam,lam,depth", GRCH1_CASES)
def test_walk_yields_each_chain_after_its_parent(fam, lam, depth):
    # `enumerate_demazure` keeps the states of the last chain and adds one per path:
    # a chain less its top step is a prefix of the chain yielded just before it
    c = crystal(fam, lam)
    high = c.quotient.coset_state(translation(c.datum, (depth + 1,) * c.datum.rank))
    for x in (c.unit, high):
        last = ()
        for chain, _cuts_desc, _key, _delta in c._demazure_walk(x, depth, 500_000):
            assert last[: len(chain) - 1] == chain[:-1], (last, chain)
            last = chain


@pytest.mark.parametrize("fam,lam,depth", GRCH1_CASES)
def test_walk_skips_only_levels_with_no_search_result(fam, lam, depth):
    # at every node, from e and from a base that costs more than the depth, each level
    # below the node's cut where the top's row is empty is one whose capped search
    # finds nothing, and the enumeration still matches the pool oracle
    c = crystal(fam, lam)
    q, n, limit = c.quotient, c.n, depth * c.n
    high = q.coset_state(translation(c.datum, (depth + 1,) * c.datum.rank))
    skipped = 0
    for x in (c.unit, high):
        for steps, cuts_desc, _key, _delta in c._demazure_walk(x, depth, 500_000):
            chain = chain_states(steps)
            rights = (n,) + cuts_desc
            settled = sum((rights[j] - cuts_desc[j]) * chain[j][2] for j in range(len(cuts_desc)))
            top, right = chain[-1], rights[-1]
            for a, d in c.levels:
                if a < right and not q.qb_row(top[0], d, 1):
                    cap = (limit - settled - (right - a) * top[2]) // a
                    assert q.si_above(top[0], d, cap - top[2]) == (), (chain, cuts_desc, a)
                    skipped += 1
        assert c.enumerate_demazure(x, depth) == enumerate_demazure_by_pool(c, x, depth), x
    # with one pairing value every level reads the full rows, and QB(W^J) is strongly connected
    assert skipped or len(q.pairing_values()) == 1


def test_enumeration_at_translated_base(a2):
    # bounding below by an element with a nontrivial translation part
    c = SiLSCrystal(a2, (1, 1))
    x = c.quotient.project(
        translation(a2, (1, 0)).mul(from_finite(simple_reflection(a2, 1)))
    )
    assert any(x.xi)
    p_x = c.datum.pair_coweight_weight(x.xi, lam_weight(c.quotient))
    assert p_x < 0  # weights above the base can carry positive delta
    x = c.quotient.coset_state(x)
    paths = c.enumerate_demazure(x, 1)
    assert paths
    for eta in paths:
        assert c.validate(eta)
        assert c.quotient.si_leq(x, eta.kappa)
        assert -1 <= c.weight(eta).delta <= -p_x
    # window closure under the operators
    pset = set(paths)
    for eta in paths:
        for j in range(3):
            for img in (c.root_f(eta, j), c.root_e(eta, j)):
                if img is None:
                    continue
                if c.quotient.si_leq(x, img.kappa) and c.weight(img).delta >= -1:
                    assert img in pset


def test_enumeration_depth_zero_is_classical(a2):
    # the delta-degree-0 slice is the classical LS crystal: all translation
    # parts vanish and the weights sum to the Weyl character
    c = SiLSCrystal(a2, (1, 1))
    paths = c.enumerate_demazure(c.unit, 0)
    for eta in paths:
        assert all(not any(x.xi) for x in map(c.quotient.state_rep, eta.directions))
    from silspath.characters import GradedCharacter, weyl_character

    total = {}
    for eta in paths:
        wt = c.weight(eta)
        key = (wt.fw, 0)
        total[key] = total.get(key, 0) + 1
    assert GradedCharacter(total) == weyl_character(a2, (1, 1))


def classical_ls_paths(datum, lam):
    """Independent enumeration of classical LS paths over W^J chains."""
    quotient = ParabolicQuotient.for_weight(datum, lam)
    reps = [w for w in weyl_group(datum) if quotient.is_min_rep(w)]
    lamw = LevelZeroWeight(tuple(lam), 0)

    def covers(w, a):
        out = []
        for u in datum.pos_roots:
            from silspath.weyl import finite_reflection

            v = finite_reflection(datum, u).mul(w)
            if (
                quotient.is_min_rep(v)
                and v.length == w.length + 1
                and (a * datum.pair_coweight_weight(datum.coroot(u), LevelZeroWeight(w.act_fw(lam), 0))).denominator == 1
            ):
                out.append(v)
        return out

    def chain_exists(lower, upper, a):
        frontier = {lower}
        while frontier:
            if upper in frontier:
                return True
            frontier = {
                v for w in frontier for v in covers(w, a) if v.length <= upper.length
            }
        return False

    grid = quotient.cut_grid()
    results = []
    for size in range(1, len(reps) + 1):
        for dirs in itertools.permutations(reps, size):
            if any(not bruhat_leq(b, a) or a == b for a, b in zip(dirs, dirs[1:])):
                continue
            for cuts in itertools.combinations(grid, size - 1):
                if all(
                    chain_exists(dirs[u + 1], dirs[u], cuts[u])
                    for u in range(size - 1)
                ):
                    results.append((dirs, cuts))
    return results


@pytest.mark.parametrize("fam,lam", [(("A", 1), (2,)), (("A", 2), (1, 1)), (("C", 2), (1, 0))])
def test_depth_zero_matches_classical_enumerator(fam, lam):
    datum = build(*fam)
    c = SiLSCrystal(datum, lam)
    paths = c.enumerate_demazure(c.unit, 0)
    got = {
        (tuple(c.quotient.state_rep(z).w for z in eta.directions), eta.cuts[1:-1]) for eta in paths
    }
    expected = {
        (dirs, cuts) for dirs, cuts in classical_ls_paths(datum, lam)
    }
    assert got == expected


# -- deep random walks ---------------------------------------------------------


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=50, deadline=None)
@given(
    case=st.sampled_from([(("A", 2), (1, 1)), (("C", 2), (1, 0)), (("A", 2), (2, 1))]),
    word=st.lists(
        st.tuples(st.sampled_from("ef"), st.integers(0, 2)), max_size=12
    ),
)
def test_random_operator_walks(case, word):
    # walks wander far outside the truncation windows used elsewhere;
    # every intermediate path must validate with exact weight bookkeeping
    fam, lam = case
    q = QLSCrystal(build(*fam), lam)
    c, datum = q.sils, q.datum
    eta = c.unit_path()
    wt = c.weight(eta)
    for tag, j in word:
        if j > datum.rank:
            continue
        op = c.root_e if tag == "e" else c.root_f
        nxt = op(eta, j)
        if nxt is None:
            continue
        aj = datum.affine_simple_root(j)
        fw_shift = datum.root_to_fw(aj.finite)
        sign = 1 if tag == "e" else -1
        eta, prev = nxt, wt
        wt = c.weight(eta)
        assert wt.fw == tuple(
            a + sign * b for a, b in zip(prev.fw, fw_shift)
        )
        assert wt.delta == prev.delta + sign * aj.n
        assert c.validate(eta)
    # the walk stays inside the unit path's component (every component's
    # base has weight lambda minus a multiple of delta, so compare the bases)
    assert q.component_base(eta) == c.unit_path()


# -- multipartitions ------------------------------------------------------------------


def test_multipartitions_counts():
    # node with m=1 allows columns of height one only in the relaxed variant
    assert multipartitions((1,), 3, strict=True) == (((),),)
    relaxed = multipartitions((1,), 3, strict=False)
    assert sorted(p[0] for p in relaxed) == [(), (1,), (2,), (3,)]
    strict2 = multipartitions((2,), 2, strict=True)
    assert sorted(p[0] for p in strict2) == [(), (1,), (2,)]
    relaxed2 = multipartitions((2,), 2, strict=False)
    assert sorted(p[0] for p in relaxed2) == [(), (1,), (1, 1), (2,)]
