import gc as gc_module
import itertools
import math
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import conftest
from conftest import (
    NESTING_WEIGHTS,
    TEST_WEIGHTS,
    bruhat_above_by_rows,
    brute_force_by_paths,
    deg_iota,
    final_sums_degree_sum,
    final_sums_dense,
    initial_sums_by_sweep,
    kostka_foulkes,
    multipartitions,
    outside_by_delta_j,
    qb_roots_by_pairing,
    quotient_characters_by_rows,
    quotient_reps_by_filter,
    table_degree_sum,
    type_a_macdonald_t0,
    value_at_ones,
    weyl_dimension,
    weyl_identity_holds,
)

from silspath import characters as ch
from silspath.cartan import build
from silspath.characters import GradedCharacter
from silspath.peterson import TABLE_BUDGET, ParabolicQuotient
from silspath.qls import QLSCrystal
from silspath.weyl import affine_identity, bruhat_leq, finite_from_word, simple_reflection

def gc(pairs):
    return GradedCharacter({(tuple(fw), q): c for fw, q, c in pairs})


def test_qls_degree_sum_examples(a1):
    assert ch.qls_degree_sum(a1, (1,)) == gc([((1,), 0, 1), ((-1,), 0, 1)])
    assert ch.qls_degree_sum(a1, (2,)) == gc(
        [((2,), 0, 1), ((-2,), 0, 1), ((0,), 0, 1), ((0,), -1, 1)]
    )


def test_degree_sum_of_zero_weight(a1, a2):
    assert ch.qls_degree_sum(a1, (0,)) == GradedCharacter.unit(1)
    assert ch.macdonald_t0(a2, (0, 0)) == GradedCharacter.unit(2)


def test_macdonald_examples(a1):
    assert ch.macdonald_t0(a1, (2,)) == gc(
        [((2,), 0, 1), ((-2,), 0, 1), ((0,), 0, 1), ((0,), 1, 1)]
    )
    assert ch.macdonald_t0(a1, (1,)) == gc([((1,), 0, 1), ((-1,), 0, 1)])


@pytest.mark.parametrize("fam,lam", TEST_WEIGHTS)
def test_macdonald_specializes_to_weyl_character(fam, lam):
    datum = build(*fam)
    mac = ch.macdonald_t0(datum, lam)
    zero_slice = GradedCharacter(
        {(fw, 0): c for fw, c in mac.q_slice(0).items()}
    )
    assert zero_slice == ch.weyl_character(datum, lam)


@pytest.mark.parametrize("fam,lam", TEST_WEIGHTS)
def test_macdonald_is_weyl_symmetric(fam, lam):
    datum = build(*fam)
    mac = ch.macdonald_t0(datum, lam)
    qs = {q for _, q in mac.terms}
    for q in qs:
        coeffs = mac.q_slice(q)
        for i in range(1, datum.rank + 1):
            si = simple_reflection(datum, i)
            assert {si.act_fw(fw): c for fw, c in coeffs.items()} == coeffs


def test_weyl_character_examples(a1, a2):
    assert ch.weyl_character(a1, (1,)) == gc([((1,), 0, 1), ((-1,), 0, 1)])
    assert ch.weyl_character(a1, (2,)) == gc(
        [((2,), 0, 1), ((0,), 0, 1), ((-2,), 0, 1)]
    )
    assert ch.weyl_character(a2, (1, 0)) == gc(
        [((1, 0), 0, 1), ((-1, 1), 0, 1), ((0, -1), 0, 1)]
    )


@pytest.mark.parametrize("fam,lam", TEST_WEIGHTS)
def test_weyl_character_dimension_and_top_weight(fam, lam):
    datum = build(*fam)
    chi = ch.weyl_character(datum, lam)
    assert chi.terms.get((tuple(lam), 0)) == 1
    # dimension by the Weyl dimension formula, as an independent count
    from fractions import Fraction

    rho = datum.rho
    numer = Fraction(1)
    for u in datum.pos_roots:
        c = datum.coroot(u)
        lam_pair = sum(a * b for a, b in zip(c, lam))
        rho_pair = sum(a * b for a, b in zip(c, rho))
        numer *= Fraction(lam_pair + rho_pair, rho_pair)
    assert value_at_ones(chi) == numer


def test_gch_minus_examples(a1):
    got = ch.gch_demazure_minus_e(a1, (1,), 3)
    expected = gc(
        [((1,), -k, 1) for k in range(4)] + [((-1,), -k, 1) for k in range(4)]
    )
    assert got == expected
    d1 = ch.gch_demazure_minus_e(a1, (2,), 1)
    assert d1.q_slice(0) == {(2,): 1, (0,): 1, (-2,): 1}
    assert d1.q_slice(-1) == {(2,): 1, (0,): 2, (-2,): 1}
    assert ch.gch_demazure_minus_e(a1, (0,), 4) == GradedCharacter.unit(1)


def test_column_series_counts_multipartitions():
    # the expanded inverse product counts bounded-length column multisets
    for lam, depth in [((2,), 4), ((1, 1), 4), ((3, 0), 5), ((2, 1), 3)]:
        rank = len(lam)
        series = ch._column_series(rank, lam, depth, -1)
        relaxed = multipartitions(lam, depth, strict=False)
        for k in range(depth + 1):
            count = sum(
                1 for combo in relaxed if sum(sum(p) for p in combo) == k
            )
            assert series.terms.get(((0,) * rank, -k), 0) == count


def test_strict_multipartitions_index_components(a1):
    # the component count at each delta degree matches the strict variant
    from silspath.qls import QLSCrystal

    q = QLSCrystal(a1, (2,))
    c = q.sils
    depth = 3
    bases = {}
    for eta in c.enumerate_demazure(c.unit, depth):
        base = q.component_base(eta)
        bases[base] = -c.weight(base).delta
    strict = multipartitions((2,), depth, strict=True)
    for k in range(depth + 1):
        expected = sum(1 for combo in strict if sum(sum(p) for p in combo) == k)
        assert sum(1 for v in bases.values() if v == k) == expected


@pytest.mark.parametrize("fam,lam,depth", [
    (("A", 1), (1,), 2),
    (("A", 1), (2,), 2),
    (("A", 2), (1, 0), 1),
])
def test_brute_force_matches_closed_form_small(fam, lam, depth):
    datum = build(*fam)
    assert ch.brute_force_gch_minus_e(datum, lam, depth) == ch.gch_demazure_minus_e(
        datum, lam, depth
    )


def test_gch_plus_examples(a1):
    got = ch.gch_demazure_plus_w0(a1, (1,), 2)
    expected = gc(
        [((1,), k, 1) for k in range(3)] + [((-1,), k, 1) for k in range(3)]
    )
    assert got == expected
    assert ch.gch_demazure_plus_w0(a1, (0,), 3) == GradedCharacter.unit(1)


@pytest.mark.parametrize("fam,lam", TEST_WEIGHTS)
def test_plus_minus_duality(fam, lam):
    datum = build(*fam)
    depth = 2
    dual_lam = datum.sigma_dual(lam)
    plus = ch.gch_demazure_plus_w0(datum, lam, depth)
    minus = ch.gch_demazure_minus_e(datum, dual_lam, depth)
    assert plus == minus.invert_q().invert_x()


def test_quotient_minus_examples(a1):
    s1 = simple_reflection(a1, 1)
    assert ch.gch_quotient_minus(a1, (2,), s1) == gc([((-2,), 0, 1), ((0,), -1, 1)])
    e = finite_from_word(a1, [])
    assert ch.gch_quotient_minus(a1, (2,), e) == ch.qls_degree_sum(a1, (2,))
    assert ch.gch_quotient_minus(a1, (2,), ch.floor_w0(a1, (2,))) == gc(
        [((-2,), 0, 1), ((0,), -1, 1)]
    )


def test_quotient_minus_bottom_is_extremal(a2, c2):
    # the degree-zero slice at the bottom representative is the single
    # extremal weight (deeper q-terms can survive for non-minuscule shapes)
    for datum, lam in [(a2, (1, 0)), (a2, (1, 1)), (c2, (1, 0))]:
        bottom = ch.floor_w0(datum, lam)
        char = ch.gch_quotient_minus(datum, lam, bottom)
        w0lam = bottom.act_fw(lam)
        assert char.q_slice(0) == {w0lam: 1}
    for datum, lam in [(a2, (1, 0)), (c2, (1, 0))]:
        bottom = ch.floor_w0(datum, lam)
        char = ch.gch_quotient_minus(datum, lam, bottom)
        assert set(char.terms) == {(bottom.act_fw(lam), 0)}


def test_quotient_minus_rejects_non_reps(a2):
    with pytest.raises(ValueError):
        ch.gch_quotient_minus(a2, (1, 0), simple_reflection(a2, 2))


def test_quotient_plus_rejects_non_reps(a2):
    with pytest.raises(ValueError, match="not a minimal coset representative for J"):
        ch.gch_quotient_plus(a2, (1, 0), simple_reflection(a2, 2))


@pytest.mark.parametrize("fam,lam", NESTING_WEIGHTS)
def test_quotient_minus_nesting(fam, lam):
    datum = build(*fam)
    reps = ch.minus_quotient_reps(datum, lam)
    chars = {w: ch.gch_quotient_minus(datum, lam, w) for w in reps}
    for w1 in reps:
        for w2 in reps:
            if bruhat_leq(w1, w2):
                assert set(chars[w2].terms) <= set(chars[w1].terms)
                for key, c in chars[w2].terms.items():
                    assert chars[w1].terms[key] >= c


def test_quotient_plus_examples(a1):
    e = finite_from_word(a1, [])
    full = ch.gch_quotient_plus(a1, (2,), ch.floor_w0(a1, (2,)))
    assert full == ch.macdonald_t0(a1, (2,))
    at_e = ch.gch_quotient_plus(a1, (2,), e)
    assert ((0,), 1) in at_e.terms  # the lifted (e, s1) path contributes q^1
    assert at_e.terms[((2,), 0)] == 1
    assert ch.gch_quotient_plus(a1, (0,), e) == GradedCharacter.unit(1)


@pytest.mark.parametrize("fam,lam", NESTING_WEIGHTS)
def test_quotient_plus_nesting_and_extremes(fam, lam):
    datum = build(*fam)
    reps = ch.minus_quotient_reps(datum, lam)
    chars = {w: ch.gch_quotient_plus(datum, lam, w) for w in reps}
    top = ch.floor_w0(datum, lam)
    assert chars[top] == ch.macdonald_t0(datum, lam)
    for w1 in reps:
        for w2 in reps:
            if bruhat_leq(w1, w2):
                for key, c in chars[w1].terms.items():
                    assert chars[w2].terms.get(key, 0) >= c


@pytest.mark.parametrize("fam,lam", NESTING_WEIGHTS)
def test_quotient_characters_match_row_filter(fam, lam):
    # the characters filter W^J once per call; the oracle tests every table row
    datum = build(*fam)
    q = QLSCrystal(datum, lam)
    for w in ch.minus_quotient_reps(datum, lam):
        pair = (ch.gch_quotient_minus(datum, lam, w), ch.gch_quotient_plus(datum, lam, w))
        assert pair == quotient_characters_by_rows(q, w), w


# weights whose sigma-dual -w0 lambda is another weight: -w0 flips the diagram of
# A_n, D5 and E6, and NESTING_WEIGHTS adds A2 (1,0) and E6 (1,0,0,0,0,0)
NOT_SELF_DUAL = [
    (("A", 2), (1, 0)),
    (("A", 3), (2, 1, 0)),
    (("A", 4), (1, 1, 0, 0)),
    (("D", 5), (1, 0, 0, 1, 0)),
    (("E", 6), (1, 1, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("fam,lam", sorted(set(NESTING_WEIGHTS + NOT_SELF_DUAL)))
def test_quotient_plus_matches_the_initial_sweep(fam, lam):
    # read off the sigma-dual shape's final sums, the plus character at w is the
    # sum of lambda's own initial-direction sums over v <= w in W^J
    datum = build(*fam)
    by_initial = initial_sums_by_sweep(QLSCrystal(datum, lam))
    for w in ch.minus_quotient_reps(datum, lam):
        below = Counter()
        for v, part in by_initial.items():
            if bruhat_leq(v, w):
                below.update(part)
        assert ch.gch_quotient_plus(datum, lam, w) == GradedCharacter(below), w


def test_every_route_reads_one_quotient_per_shape(a2, monkeypatch):
    # closed form, brute force, representatives, floor(w0) and both quotient
    # characters of one lambda share one crystal, and so one quotient; the plus
    # characters add the quotient of the sigma-dual shape when that is another
    calls = []
    for_weight = ParabolicQuotient.for_weight.__func__

    def counted(cls, datum, lam):
        calls.append(lam)
        return for_weight(cls, datum, lam)

    monkeypatch.setattr(ParabolicQuotient, "for_weight", classmethod(counted))
    for lam, shapes in [((1, 1), [(1, 1)]), ((1, 0), [(1, 0), (0, 1)])]:
        calls.clear()
        ch._qls.cache_clear()
        assert ch.gch_demazure_minus_e(a2, lam, 2) == ch.brute_force_gch_minus_e(a2, lam, 2)
        reps = ch.minus_quotient_reps(a2, lam)
        assert ch.floor_w0(a2, lam) in reps
        for w in reps:
            assert ch.gch_quotient_minus(a2, lam, w) and ch.gch_quotient_plus(a2, lam, w)
        assert calls == shapes, lam


def test_character_memo_keeps_only_the_current_shape(a2):
    # asking for another lambda frees the previous crystal with its quotient and the
    # dual that the plus characters read, by reference counts alone: no cycle holds
    # them, for a self-dual lambda (1,1) as for (1,0), whose dual is (0,1); the
    # quotient characters fill both shapes' interval sums and up-sets, freed with them
    enabled = gc_module.isenabled()
    gc_module.disable()
    try:
        for lam in [(1, 1), (1, 0)]:
            for w in ch.minus_quotient_reps(a2, lam):
                ch.gch_quotient_minus(a2, lam, w)
                ch.gch_quotient_plus(a2, lam, w)
            ch.macdonald_t0(a2, lam)
            crystal = ch._qls(a2, lam)
            shapes = (crystal, crystal.dual)
            assert all(c.interval_sums and c.sils.quotient._up_cache for c in shapes), lam
            refs = [weakref.ref(crystal), weakref.ref(crystal.dual), weakref.ref(crystal.sils.quotient)]
            refs += [weakref.ref(crystal.dual.sils.quotient), weakref.ref(next(iter(crystal.interval_sums.values())))]
            del crystal, shapes
            ch.macdonald_t0(a2, (2, 2))
            assert [ref() for ref in refs] == [None] * 5, lam
    finally:
        if enabled:
            gc_module.enable()


@pytest.mark.parametrize("fam,lam", TEST_WEIGHTS)
def test_counting_specialization(fam, lam):
    datum = build(*fam)
    q = QLSCrystal(datum, lam)
    assert value_at_ones(ch.qls_degree_sum(datum, lam)) == len(q.paths())


OTHER_FAMILIES = [
    (("B", 2), (1, 0), 1),
    (("B", 2), (0, 1), 2),
    (("G", 2), (1, 0), 1),
    (("D", 4), (1, 0, 0, 0), 1),
    (("A", 3), (0, 1, 0), 1),
    (("A", 2), (2, 1), 1),
    (("A", 2), (2, 0), 2),
    (("C", 2), (0, 1), 2),
]


@pytest.mark.parametrize("fam,lam,depth", OTHER_FAMILIES)
def test_identity_beyond_rank_two(fam, lam, depth):
    # the cross-check exercises long/short subtleties and larger quotients
    datum = build(*fam)
    assert ch.gch_demazure_minus_e(datum, lam, depth) == ch.brute_force_gch_minus_e(
        datum, lam, depth
    )
    mac = ch.macdonald_t0(datum, lam)
    zero = GradedCharacter({(fw, 0): c for fw, c in mac.q_slice(0).items()})
    assert zero == ch.weyl_character(datum, lam)


def test_character_ring_ops(a1):
    x = GradedCharacter.monomial((1,), 0)
    y = GradedCharacter.monomial((-1,), -2, 3)
    assert (x + y) - y == x
    assert (x * y).terms == {((0,), -2): 3}
    assert x.invert_x().terms == {((-1,), 0): 1}
    assert y.invert_q().terms == {((-1,), 2): 3}
    assert (x + y).truncate(q_min=-1) == x


random_characters = st.dictionaries(
    st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-2, 2)),
    st.integers(-3, 3).filter(bool),
    max_size=12,
).map(GradedCharacter)


@settings(max_examples=80, deadline=None)
@given(chi=random_characters)
def test_sorted_terms_match_the_q_then_weight_key(chi):
    # the two stable sorts order the terms as one sort by (-q, fw); few q-degrees, so ties
    old = tuple((fw, q, chi.terms[fw, q]) for fw, q in sorted(chi.terms, key=lambda t: (-t[1], t[0])))
    assert chi.sorted_terms() == old


@settings(max_examples=80, deadline=None)
@given(left=random_characters, right=random_characters)
def test_product_matches_the_termwise_product(left, right):
    # grouping the right factor's terms by weight changes no coefficient
    out = Counter()
    for (fw1, q1), c1 in left.terms.items():
        for (fw2, q2), c2 in right.terms.items():
            out[tuple(a + b for a, b in zip(fw1, fw2)), q1 + q2] += c1 * c2
    assert left * right == GradedCharacter(out)


# -- exact sweep: closed form vs brute force, q = 0 slice vs Weyl character ----------

CLOSED_FORM_SWEEP = [
    (("G", 2), (1, 1), 1),
    (("G", 2), (0, 1), 2),
    (("B", 2), (1, 1), 2),
    (("B", 3), (1, 0, 0), 2),
    (("B", 3), (0, 1, 0), 1),
    (("C", 3), (0, 1, 0), 1),
    (("C", 3), (0, 0, 1), 1),
    (("D", 4), (0, 1, 0, 0), 1),
    (("A", 3), (1, 0, 1), 2),
    (("A", 3), (1, 1, 0), 2),
    (("E", 7), (0, 0, 0, 0, 0, 0, 1), 1),
    (("E", 8), (0, 0, 0, 0, 0, 0, 0, 1), 1),
    (("F", 4), (1, 0, 0, 0), 2),
    (("F", 4), (0, 0, 1, 0), 1),
]


@pytest.mark.parametrize("fam,lam,depth", CLOSED_FORM_SWEEP)
def test_closed_form_matches_brute_force_sweep(fam, lam, depth):
    datum = build(*fam)
    assert ch.gch_demazure_minus_e(datum, lam, depth) == ch.brute_force_gch_minus_e(
        datum, lam, depth
    )


# the seven grch1 cases of the verify benchmark, three more families,
# lambda = 0, where N = 1 and the cut grid is empty, E7, E8, and F4, whose
# varpi_3 has three cut levels
BRUTE_FORCE_ORACLE_CASES = [
    (("A", 1), (4,), 8),
    (("C", 2), (1, 1), 3),
    (("A", 3), (1, 0, 1), 3),
    (("G", 2), (0, 1), 5),
    (("A", 2), (2, 1), 5),
    (("B", 2), (1, 1), 4),
    (("B", 3), (0, 1, 0), 3),
    (("G", 2), (1, 0), 3),
    (("C", 3), (0, 1, 0), 2),
    (("E", 6), (1, 0, 0, 0, 0, 0), 1),
    (("A", 2), (0, 0), 3),
    (("E", 7), (0, 0, 0, 0, 0, 0, 1), 1),
    (("E", 8), (0, 0, 0, 0, 0, 0, 0, 1), 1),
    (("F", 4), (1, 0, 0, 0), 2),
    (("F", 4), (0, 0, 1, 0), 1),
]


@pytest.mark.parametrize("fam,lam,depth", BRUTE_FORCE_ORACLE_CASES)
def test_brute_force_matches_path_listing(fam, lam, depth):
    datum = build(*fam)
    brute = ch.brute_force_gch_minus_e(datum, lam, depth)
    assert brute == brute_force_by_paths(datum, lam, depth)
    if not any(lam):
        assert brute == GradedCharacter.unit(datum.rank)


def _fundamental_weights(families):
    out = []
    for fam in families:
        rank = fam[1]
        out += [(fam, tuple(int(k == i) for k in range(rank))) for i in range(rank)]
    return out


Q0_SWEEP = _fundamental_weights(
    [("A", 3), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("G", 2)]
) + [
    (("F", 4), (1, 0, 0, 0)),
    (("F", 4), (0, 0, 0, 1)),
    (("F", 4), (0, 1, 0, 0)),
    (("F", 4), (0, 0, 1, 0)),
    (("E", 6), (0, 1, 0, 0, 0, 0)),
    (("E", 7), (1, 0, 0, 0, 0, 0, 0)),
    (("E", 7), (0, 0, 0, 0, 0, 0, 1)),
    (("E", 8), (0, 0, 0, 0, 0, 0, 0, 1)),
]


@pytest.mark.parametrize("fam,lam", Q0_SWEEP)
def test_q0_slice_is_weyl_character_sweep(fam, lam):
    datum = build(*fam)
    mac = ch.macdonald_t0(datum, lam)
    zero = GradedCharacter({(fw, 0): c for fw, c in mac.q_slice(0).items()})
    assert zero == ch.weyl_character(datum, lam)


# -- the transfer matrix against the table rows -----------------------------------------

DEGREE_SUM_WEIGHTS = sorted(
    set(NESTING_WEIGHTS + Q0_SWEEP)
    | {(fam, lam) for fam, lam, _depth in OTHER_FAMILIES + CLOSED_FORM_SWEEP}
    | {
        (("G", 2), (3, 2)),
        (("D", 4), (1, 1, 1, 1)),
        (("A", 3), (3, 2, 1)),
        (("F", 4), (0, 1, 0, 0)),
        (("E", 7), (1, 0, 0, 0, 0, 0, 1)),
        (("E", 8), (1, 0, 0, 0, 0, 0, 0, 0)),
    }
)


def assert_degree_sums_match_rows(datum, lam):
    # the whole sum, each final direction's share of it, and each initial
    # direction's share of the sum by the degree of eta_iota
    q = QLSCrystal(datum, lam)
    assert ch.qls_degree_sum(datum, lam) == table_degree_sum(q)
    by_final, by_initial, named = {}, {}, q.sils.quotient.named
    for psi, row in q.table.items():
        by_final.setdefault(psi.directions[-1], Counter())[row.weight, row.deg_kappa] += 1
        by_initial.setdefault(named(psi.directions[0]), Counter())[row.weight, deg_iota(q, psi)] += 1
    assert q.final_sums == by_final
    assert initial_sums_by_sweep(q) == by_initial


@pytest.mark.parametrize("fam,lam", DEGREE_SUM_WEIGHTS)
def test_degree_sum_matches_table_rows(fam, lam):
    assert_degree_sums_match_rows(build(*fam), lam)


# the weights of the benchmark's macdonald workload
MACDONALD_BENCH_WEIGHTS = [
    (("B", 3), (1, 1, 0)),
    (("A", 3), (1, 1, 1)),
    (("C", 3), (1, 0, 1)),
    (("G", 2), (1, 1)),
    (("D", 4), (1, 0, 1, 0)),
    (("F", 4), (1, 0, 0, 0)),
    (("E", 6), (1, 0, 0, 0, 0, 0)),
    (("C", 2), (2, 1)),
]


@pytest.mark.parametrize("fam,lam", sorted(set(DEGREE_SUM_WEIGHTS + MACDONALD_BENCH_WEIGHTS)))
def test_final_sums_match_the_dense_sweep(fam, lam):
    # growing each row by a last segment along the backward reach, searched only at the
    # points a row of the level enters, gives the sums of the dense forward sweep as dicts
    datum = build(*fam)
    assert QLSCrystal(datum, lam).final_sums == final_sums_dense(QLSCrystal(datum, lam))


def test_final_sums_reach_searches_are_pinned(monkeypatch):
    # one reach search per (point, level denominator) that a row enters: 28 on
    # B3 (1,1,0), against 72 when the dense sweep searches from every point at every denominator
    q = QLSCrystal(build("B", 3), (1, 1, 0))
    q.final_sums
    assert len(q.sils.quotient._reach_cache) == 28
    calls, search = [], conftest.forward_reach
    monkeypatch.setattr(conftest, "forward_reach", lambda *args: calls.append(args) or search(*args))
    final_sums_dense(q)
    assert len(calls) == 72


@pytest.mark.parametrize("fam,lam", DEGREE_SUM_WEIGHTS)
def test_qb_roots_match_pairing_oracles(fam, lam):
    # the roots off Delta_J^+ by p > 0, and each c_u by one dot product with
    # fw(2 rho_J), are the ones filtered by delta_j_plus and paired in root
    # coordinates; the p = 1 shift list is the table's own column
    quotient = ParabolicQuotient.for_weight(build(*fam), lam)
    assert quotient._outside == outside_by_delta_j(quotient)
    assert quotient._qb_roots == qb_roots_by_pairing(quotient)
    fws = quotient.datum.root_table.fws
    assert all(shift is fws for _k, _u, p, _c, shift, _v in quotient._qb_roots if p == 1)


@pytest.mark.parametrize("fam,lam", DEGREE_SUM_WEIGHTS)
def test_level_rows_are_full_rows_filtered(fam, lam):
    # the row at a level's denominator d, built from the roots whose p it divides,
    # is the full row of another quotient with its edges of d not dividing p dropped,
    # in the same order, out of and into every orbit point
    datum = build(*fam)
    quotient, full = (ParabolicQuotient.for_weight(datum, lam) for _ in range(2))
    dens, pairing = {a.denominator for a in quotient.cut_grid()}, dict(full._outside)
    assert full.orbit.keys() == quotient.orbit.keys()
    for nu, step, d in itertools.product(quotient.orbit, (1, -1), dens):
        assert quotient.qb_row(nu, d, step) == tuple(e for e in full.qb_row(nu, 1, step) if pairing[e[3]] % d == 0)
    assert all(d in dens for _nu, _step, d in quotient._row_cache)


@pytest.mark.parametrize("fam,lam", DEGREE_SUM_WEIGHTS)
def test_row_lengths_are_element_lengths(fam, lam):
    # the lengths qb_row reads off its map: lambda's, counted before any orbit search,
    # and every point's that the coset rows reach before the orbit search
    # runs (QB(W^J) is strongly connected), each the length of its w in W^J
    datum = build(*fam)
    quotient = ParabolicQuotient.for_weight(datum, lam)
    start = quotient.coset_state(affine_identity(datum))[0]
    quotient.qb_row(start, 1, 1)
    assert quotient._lengths[start] == 0
    seen, frontier = {start}, [start]
    while frontier:
        for nu, _c, _dp, _u in quotient.qb_row(frontier.pop(), 1, 1):
            if nu not in seen:
                seen.add(nu)
                frontier.append(nu)
    lengths = dict(quotient._lengths)
    assert seen == quotient.orbit.keys()
    assert all(lengths[nu] == w.length for nu, w in quotient.orbit.items())


@pytest.mark.parametrize(
    "fam,lam",
    sorted(
        set(DEGREE_SUM_WEIGHTS)
        | {
            (("E", 6), (1, 0, 0, 0, 0, 1)),
            (("E", 7), (1, 0, 0, 0, 0, 0, 0)),
            (("E", 8), (0, 0, 0, 0, 0, 0, 0, 1)),
        }
    ),
)
def test_bruhat_above_matches_the_row_search(fam, lam):
    # the up-set that the lifting property builds from simple reflections is the
    # one that a search along the Bruhat edges of the full QB(W^J) rows finds, at
    # every orbit point; the search runs on a quotient of its own
    datum = build(*fam)
    lifted, searched = (ParabolicQuotient.for_weight(datum, lam) for _ in range(2))
    for nu in searched.orbit:
        assert lifted.bruhat_above(nu) == bruhat_above_by_rows(searched, nu), nu
    assert lifted._up_cache.keys() == searched.orbit.keys() and not lifted._row_cache


@pytest.mark.parametrize("fam,lam", DEGREE_SUM_WEIGHTS)
def test_minus_quotient_reps_sort_by_element_length(fam, lam):
    # sorted by the lengths that the orbit search recorded, the representatives
    # come in the order of FiniteWeylElt.length, ties broken by sort_key
    datum = build(*fam)
    reps = ch.minus_quotient_reps(datum, lam)
    assert reps == tuple(sorted(reps, key=lambda w: (w.length, w.sort_key)))


def test_quotient_characters_build_only_the_rows_of_their_levels():
    # the up-sets read no QB(W^J) row, so after every quotient character the rows
    # are the sweep's, one set per level denominator d, and none at d = 1; on these
    # self-dual shapes the plus character at w reads the minus sum at -w lambda, so
    # the 2 |W^J| characters keep one interval sum per orbit point
    kept = {}
    for fam, lam in ((("B", 3), (0, 1, 0)), (("G", 2), (1, 1))):
        datum = build(*fam)
        ch._qls.cache_clear()
        reps = ch.minus_quotient_reps(datum, lam)
        for w in reps:
            assert ch.gch_quotient_minus(datum, lam, w) and ch.gch_quotient_plus(datum, lam, w)
        crystal = ch._qls(datum, lam)
        dens = {d for _a, d in crystal.sils.levels}
        assert 1 not in dens and {d for _nu, _step, d in crystal.sils.quotient._row_cache} == dens, fam
        assert crystal.dual is crystal
        kept[fam] = (len(reps), len(crystal.interval_sums))
    ch._qls.cache_clear()
    assert kept == {("B", 3): (12, 12), ("G", 2): (12, 12)}


def test_macdonald_builds_only_the_rows_of_its_levels():
    # macdonald_t0 reads rows only through the backward reach sets of its grid levels:
    # none on E6 varpi_1, whose pairings are all 1, and on B3 (1,1,0), whose cuts have
    # denominators 2, 3 and 4, only the rows into the points that a term dominant at
    # a cut reaches back from, not one row out of each of the 24 orbit points per level
    counts = {}
    for fam, lam in ((("E", 6), (1, 0, 0, 0, 0, 0)), (("B", 3), (1, 1, 0))):
        datum = build(*fam)
        ch._qls.cache_clear()
        ch.macdonald_t0(datum, lam)
        counts[fam] = Counter((d, step) for _nu, step, d in ch._qls(datum, lam).sils.quotient._row_cache)
    ch._qls.cache_clear()
    assert counts == {("E", 6): Counter(), ("B", 3): Counter({(2, -1): 7, (3, -1): 5, (4, -1): 4})}


def test_degree_sum_past_the_table_budget():
    # the table of G2 (4,3) would hold 7^4 * 15^3 rows, one per element of the
    # tensor product of the fundamental crystals; the transfer matrix never
    # lists them, but its coefficients still add up to that count
    datum = build("G", 2)
    rows = [len(QLSCrystal(datum, lam).table) for lam in ((1, 0), (0, 1))]
    assert rows[0] ** 4 * rows[1] ** 3 > TABLE_BUDGET
    mac = ch.macdonald_t0(datum, (4, 3))
    assert value_at_ones(mac) == rows[0] ** 4 * rows[1] ** 3
    zero = GradedCharacter({(fw, 0): c for fw, c in mac.q_slice(0).items()})
    assert zero == ch.weyl_character(datum, (4, 3))


def test_quotient_characters_past_the_table_budget():
    # the transfer matrix of G2 (4,3), its own sigma-dual, finishes though its
    # 7^4 * 15^3 paths would not fit the table, and the Bruhat intervals of W^J
    # split them up for both quotient characters
    datum, lam = build("G", 2), (4, 3)
    e, top = finite_from_word(datum, []), ch.floor_w0(datum, lam)
    assert ch.gch_quotient_minus(datum, lam, e) == ch.qls_degree_sum(datum, lam)
    # at floor(w0), the top of W^J, only the path with that single direction has
    # degree 0; the longer paths ending there reach it by quantum edges, in degree < 0
    assert ch.gch_quotient_minus(datum, lam, top).q_slice(0) == {top.act_fw(lam): 1}
    plus = ch.gch_quotient_plus(datum, lam, top)
    assert value_at_ones(plus) == 7**4 * 15**3
    assert plus == ch.macdonald_t0(datum, lam)


def test_quotient_characters_list_no_path(a2):
    # every quotient character reads the transfer matrices, never the table
    ch._qls.cache_clear()
    lam = (1, 1)
    for w in ch.minus_quotient_reps(a2, lam):
        assert ch.gch_quotient_minus(a2, lam, w) and ch.gch_quotient_plus(a2, lam, w)
    assert "table" not in ch._qls(a2, lam).__dict__


# -- the highest-weight route against the transfer matrix and the root operators -------

REGULAR = {rank: (1,) * rank for rank in range(2, 9)}


@pytest.mark.parametrize(
    "fam,lam",
    sorted(
        set(DEGREE_SUM_WEIGHTS + MACDONALD_BENCH_WEIGHTS)
        | {(("G", 2), (4, 3)), (("C", 4), REGULAR[4])}
        | {(("A", 1), (4,)), (("A", 2), (3, 0)), (("A", 2), (2, 2)), (("B", 2), (0, 3))}
    ),
)
def test_degree_sum_matches_the_final_sums(fam, lam):
    # the highest-weight terms, expanded by Freudenthal multiplicities and orbits,
    # equal the sum of the transfer matrix over every final direction; A1 (4), A2 (3,0),
    # A2 (2,2) and B2 (0,3) tell the dominance check at a cut from the same check one
    # tick earlier, floor (N - a + 1) nu
    datum = build(*fam)
    assert ch.qls_degree_sum(datum, lam) == final_sums_degree_sum(QLSCrystal(datum, lam))


HIGHEST_WEIGHT_CASES = [
    (("A", 2), (1, 1)), (("C", 3), (1, 0, 1)), (("G", 2), (2, 1)), (("D", 4), (1, 0, 1, 0)),
    (("B", 3), (1, 1, 0)), (("F", 4), (1, 0, 0, 1)), (("E", 6), (1, 0, 0, 0, 0, 1)), (("A", 3), (2, 1, 1)),
]


@pytest.mark.parametrize("fam,lam", HIGHEST_WEIGHT_CASES)
def test_highest_weight_terms_are_the_rows_killed_by_every_e(fam, lam):
    # the sweep's terms are the (weight, deg_kappa) of the table rows that every
    # raising operator e_i, i in I, kills, counted with multiplicity
    q = QLSCrystal(build(*fam), lam)
    rank = q.datum.rank
    killed = Counter(
        (row.weight, row.deg_kappa)
        for psi, row in q.table.items()
        if all(q.qls_op(psi, "e", i) is None for i in range(1, rank + 1))
    )
    assert q.highest_weight_sums == killed


EXPANSION_FAMILIES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
    ("C", 2), ("C", 3), ("C", 4), ("C", 5), ("C", 6), ("D", 4), ("D", 5), ("D", 6), ("E", 6), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize(
    "fam,lam",
    _fundamental_weights(EXPANSION_FAMILIES)
    + [(("E", 7), (1, 0, 0, 0, 0, 0, 0)), (("E", 8), (0, 0, 0, 0, 0, 0, 0, 1))],
)
def test_weyl_expansion_is_weyl_character(fam, lam):
    # Freudenthal's multiplicities spread over the orbits give Demazure's character formula
    datum = build(*fam)
    assert ch.weyl_expansion(datum, GradedCharacter.monomial(lam)) == ch.weyl_character(datum, lam)


@pytest.mark.parametrize(
    "fam,lam",
    [(("D", 5), REGULAR[5]), (("F", 4), REGULAR[4]), (("C", 5), REGULAR[5]), (("B", 5), REGULAR[5]),
     (("C", 4), REGULAR[4]), (("G", 2), (4, 3))],
)
def test_highest_weight_dimensions_count_the_paths(fam, lam):
    # QLS(lambda) is the tensor product of the column crystals QLS(varpi_i), m_i times
    # each (LNSSS), so sum c dim V(mu) over the highest-weight terms is the product of
    # their sizes; past TABLE_BUDGET except on C4 rho (8,809 x-basis terms)
    datum = build(*fam)
    columns = 1
    for i, m in enumerate(lam):
        columns *= len(QLSCrystal(datum, tuple(int(k == i) for k in range(datum.rank))).table) ** m
    hw = QLSCrystal(datum, lam).highest_weight_sums
    assert sum(c * weyl_dimension(datum, mu) for (mu, _q), c in hw.items()) == columns


# -- Demazure's formula and the orbit search against oracles over all of W ------------

SMALL_FAMILIES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G", 2),
]

WEYL_IDENTITY_CASES = (
    _fundamental_weights(SMALL_FAMILIES)
    + [(fam, build(*fam).rho) for fam in SMALL_FAMILIES]
    + [(("F", 4), (1, 0, 0, 0)), (("F", 4), (0, 0, 0, 1))]
)


@pytest.mark.parametrize("fam,lam", WEYL_IDENTITY_CASES)
def test_weyl_character_satisfies_weyl_identity(fam, lam):
    datum = build(*fam)
    assert weyl_identity_holds(datum, lam, ch.weyl_character(datum, lam))


@pytest.mark.parametrize("fam", SMALL_FAMILIES + [("F", 4)])
def test_minus_quotient_reps_match_filter_oracle(fam):
    # every subset J occurs as the zero set of a 0/1 weight; the order counts
    datum = build(*fam)
    for lam in itertools.product((0, 1), repeat=datum.rank):
        assert ch.minus_quotient_reps(datum, lam) == quotient_reps_by_filter(datum, lam)


def test_kostka_foulkes_examples():
    assert kostka_foulkes((2, 1), (1, 1, 1)) == {1: 1, 2: 1}
    assert kostka_foulkes((2,), (1, 1)) == {1: 1}
    assert kostka_foulkes((3,), (1, 1, 1)) == {3: 1}
    assert kostka_foulkes((1, 1, 1), (1, 1, 1)) == {0: 1}
    assert kostka_foulkes((2, 2), (2, 1, 1)) == {1: 1}
    assert kostka_foulkes((1, 1), (2,)) == {}


def _type_a_sweep(n, keep):
    """Every lambda of A_n with |lambda| = sum_i i m_i <= 8 whose QLS crystal, of
    prod_i C(n+1, i)^(m_i) elements, has a size that `keep` accepts."""
    out = []
    for m in itertools.product(range(9), repeat=n):
        size = sum(i * c for i, c in enumerate(m, 1))
        elements = math.prod(math.comb(n + 1, i) ** c for i, c in enumerate(m, 1))
        if 0 < size <= 8 and keep(elements):
            out.append(m)
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_degree_sum_matches_table_rows_type_a(n):
    datum = build("A", n)
    for lam in _type_a_sweep(n, lambda elements: elements <= 2500):
        assert_degree_sums_match_rows(datum, lam)


@pytest.mark.parametrize("n", range(1, 6))
def test_macdonald_matches_kostka_foulkes_sweep(n):
    # every q-degree against P_lambda(x; q, 0) = sum_mu K_{mu' lambda'}(q) s_mu
    # crystals past TABLE_BUDGET are in, as only the transfer matrix reaches
    # them; the band from 20,000 elements up to it is left out for time
    datum = build("A", n)
    for lam in _type_a_sweep(n, lambda elements: not 20_000 < elements <= TABLE_BUDGET):
        assert ch.macdonald_t0(datum, lam) == type_a_macdonald_t0(datum, lam), lam
