import pytest
from conftest import positive_roots_by_closure, root_norm_half, root_table_by_pairing

from silspath.cartan import (
    _RANK_RANGE,
    AffineRealRoot,
    LevelZeroWeight,
    _cartan_matrix,
    _positive_roots,
    build,
    vec_add,
    vec_neg,
    vec_sub,
)
from silspath.peterson import ParabolicQuotient
from silspath.weyl import finite_reflection, longest_element, simple_reflection

# closed-form positive root counts, used as an oracle for the closure
EXPECTED_POS_COUNTS = {
    ("A", 1): 1,
    ("A", 2): 3,
    ("A", 3): 6,
    ("B", 2): 4,
    ("B", 3): 9,
    ("C", 2): 4,
    ("C", 3): 9,
    ("D", 4): 12,
    ("E", 6): 36,
    ("E", 7): 63,
    ("E", 8): 120,
    ("F", 4): 24,
    ("G", 2): 6,
}


def test_build_returns_one_datum_per_type_and_rank():
    # data compare by identity, so build must never make a second datum
    supported = [(t, r) for t, ranks in _RANK_RANGE.items() for r in ranks]
    data = [build(t, r) for t, r in supported]
    assert all(build(t, r) is datum for (t, r), datum in zip(supported, data))
    assert len({id(datum) for datum in data}) == len(supported)
    assert all(datum != other for datum, other in zip(data, data[1:]))


def test_build_a1(a1):
    assert a1.pos_roots == ((1,),)
    assert a1.theta == (1,) and a1.theta_coroot == (1,)


def test_build_a2(a2):
    assert len(a2.pos_roots) == 3
    assert a2.theta == (1, 1)
    w1 = LevelZeroWeight((1, 0), 0)
    w2 = LevelZeroWeight((0, 1), 0)
    assert a2.pair_coweight_weight((1, 0), w1) == 1
    assert a2.pair_coweight_weight((1, 0), w2) == 0


def test_build_c2(c2):
    assert len(c2.pos_roots) == 4
    assert c2.theta == (2, 1)
    # theta is long: its norm is maximal
    assert root_norm_half(c2, c2.theta) == max(
        root_norm_half(c2, u) for u in c2.pos_roots
    )
    assert c2.pair_coweight_weight(c2.theta_coroot, LevelZeroWeight((1, 0), 0)) == 1


@pytest.mark.parametrize("fam,count", sorted(EXPECTED_POS_COUNTS.items()))
def test_positive_root_counts(fam, count):
    assert len(build(*fam).pos_roots) == count


@pytest.mark.parametrize("fam", sorted(EXPECTED_POS_COUNTS))
def test_rho_is_half_sum(fam):
    datum = build(*fam)
    total = [0] * datum.rank
    for u in datum.pos_roots:
        fw = datum.root_to_fw(u)
        total = [a + b for a, b in zip(total, fw)]
    assert tuple(t // 2 for t in total) == datum.rho
    assert all(t % 2 == 0 for t in total)


def test_pairing_examples(a1, a2):
    assert a1.pair_coweight_root((1,), (1,)) == 2
    rho = LevelZeroWeight(a2.rho, 0)
    assert a2.pair_coweight_weight((1, 1), rho) == 2
    lam = LevelZeroWeight((2,), 0)
    assert a1.pair_coweight_weight(a1.theta_coroot, lam) == 2


@pytest.mark.parametrize("fam", sorted(EXPECTED_POS_COUNTS))
def test_coroots_are_integral(fam):
    datum = build(*fam)
    for u in datum.pos_roots:
        c = datum.coroot(u)
        assert datum.pair_coweight_root(c, u) == 2


@pytest.mark.parametrize("fam", [("A", 2), ("C", 2), ("B", 3), ("G", 2)])
def test_affine_positivity_matches_enumeration(fam):
    datum = build(*fam)
    for u in datum.root_table.roots:
        for n in range(-5, 6):
            beta = AffineRealRoot(u, n)
            expected = n > 0 or (n == 0 and datum.is_positive_root(u))
            assert datum.is_positive_affine(beta) == expected
            assert datum.is_positive_affine(
                AffineRealRoot(vec_neg(u), -n)
            ) != expected


@pytest.mark.parametrize("fam", sorted(EXPECTED_POS_COUNTS))
def test_root_predicates_on_non_roots(fam):
    # the oracle is the list pos_roots; candidates are the roots, each root plus or minus a
    # simple root (roots and non-roots both), and 0, 2 theta and theta + alpha_1
    datum = build(*fam)
    pos = set(datum.pos_roots)
    roots = pos | {vec_neg(u) for u in pos}
    non_roots = [(0,) * datum.rank, tuple(2 * t for t in datum.theta), vec_add(datum.theta, datum.simple_root(1))]
    steps = [datum.simple_root(i) for i in range(1, datum.rank + 1)]
    candidates = roots | set(non_roots) | {f(u, a) for u in roots for a in steps for f in (vec_add, vec_sub)}
    for u in candidates:
        assert datum.is_root(u) == (u in roots), u
        assert datum.is_positive_root(u) == (u in pos), u
    for u in non_roots:
        assert not datum.is_root(u) and not datum.is_positive_root(u)


def test_sigma_examples(a1, a2, c2):
    assert a1.sigma == (1,)
    assert a2.sigma == (2, 1)
    assert c2.sigma == (1, 2)


@pytest.mark.parametrize("fam", sorted(EXPECTED_POS_COUNTS))
def test_sigma_is_involution(fam):
    sigma = build(*fam).sigma
    assert all(sigma[sigma[i] - 1] == i + 1 for i in range(len(sigma)))


@pytest.mark.parametrize("fam", [(t, r) for t, ranks in _RANK_RANGE.items() for r in ranks])
def test_sigma_dual_is_minus_w0(fam):
    datum = build(*fam)
    lam = tuple(range(1, datum.rank + 1))
    assert datum.sigma_dual(lam) == vec_neg(longest_element(datum).act_fw(lam))


@pytest.mark.parametrize("fam", [("A", 1), ("A", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_w0_maps_parabolic_roots(fam):
    datum = build(*fam)
    w0 = longest_element(datum)
    n = datum.rank
    for mask in range(1 << n):
        nodes = {i + 1 for i in range(n) if mask >> i & 1}
        k_pos = {
            u
            for u in datum.pos_roots
            if all(u[i - 1] == 0 for i in range(1, n + 1) if i not in nodes)
        }
        image = {vec_neg(w0.act_root(u)) for u in k_pos}
        sigma_nodes = {datum.sigma[i - 1] for i in nodes}
        expected = {
            u
            for u in datum.pos_roots
            if all(u[i - 1] == 0 for i in range(1, n + 1) if i not in sigma_nodes)
        }
        assert image == expected


def test_affine_matrix_annihilates_marks(a2, c2):
    # the affinization is built from alpha_0 = delta - theta and
    # alpha_0^vee = c - theta^vee; its mark vector must be a null vector
    for datum in (a2, c2):
        n = datum.rank
        marks_aff = (1,) + datum.theta
        row0 = [2] + [
            -datum.pair_coweight_root(datum.theta_coroot, datum.simple_root(j))
            for j in range(1, n + 1)
        ]
        rows = [row0]
        for i in range(1, n + 1):
            ci = tuple(1 if k == i - 1 else 0 for k in range(n))
            rows.append(
                [-datum.pair_coweight_root(ci, datum.theta)]
                + [datum.cartan[i - 1][j - 1] for j in range(1, n + 1)]
            )
        for row in rows:
            assert sum(a * m for a, m in zip(row, marks_aff)) == 0
        assert row0[0] == 2 and all(x <= 0 for x in row0[1:])


@pytest.mark.parametrize("fam", [("Q", 9), ("A", 0), ("C", 1), ("E", 5), ("G", 3)])
def test_unsupported_types_raise(fam):
    with pytest.raises(ValueError):
        build(*fam)


SUPPORTED = [(t, r) for t, ranks in _RANK_RANGE.items() for r in ranks]


@pytest.mark.parametrize("fam", SUPPORTED)
def test_positive_roots_match_closure_oracle(fam):
    # the closure that carries each root's fundamental-weight column finds the
    # same positive roots, in the same order, as the one that sums every pairing
    cartan = _cartan_matrix(*fam)
    assert _positive_roots(cartan) == positive_roots_by_closure(cartan) == build(*fam).pos_roots


@pytest.mark.parametrize("fam", SUPPORTED)
def test_root_table_matches_pairing_oracle(fam):
    # every field of the table read off the fundamental-weight column, on the
    # positive roots and negated, equals the one summed in full on all 2N roots
    datum = build.__wrapped__(*fam)  # a fresh datum, outside build's cache
    oracle = root_table_by_pairing(datum)
    assert datum.root_table == oracle
    assert datum.theta_coroot == oracle.coroots[oracle.index[datum.theta]]


def test_root_table_is_built_on_first_use():
    datum = build.__wrapped__("E", 6)  # a fresh datum, outside build's cache
    assert "root_table" not in vars(datum)
    table = datum.root_table
    n_pos = len(datum.pos_roots)
    assert table.roots[:n_pos] == datum.pos_roots
    assert table.roots[n_pos:] == tuple(vec_neg(u) for u in datum.pos_roots)
    assert all(table.index[u] == k for k, u in enumerate(table.roots))
    assert table.simple == tuple(
        table.index[datum.simple_root(i)] for i in range(1, datum.rank + 1)
    )
    for u, c in zip(table.roots, table.coroots):
        assert datum.pair_coweight_root(c, u) == 2


# one weight per family, E6-E8 included: varpi_1, varpi_7 and varpi_8 have small orbits there
ORBIT_WEIGHTS = [
    (("A", 3), (1, 0, 1)),
    (("B", 3), (0, 1, 0)),
    (("C", 3), (1, 0, 1)),
    (("D", 4), (0, 1, 0, 0)),
    (("E", 6), (1, 0, 0, 0, 0, 0)),
    (("E", 7), (0, 0, 0, 0, 0, 0, 1)),
    (("E", 8), (0, 0, 0, 0, 0, 0, 0, 1)),
    (("F", 4), (1, 0, 0, 0)),
    (("G", 2), (1, 1)),
]


@pytest.mark.parametrize("fam, lam", ORBIT_WEIGHTS)
def test_point_rules_match_the_element_layer(fam, lam):
    """`reflect`, `acoroot_pairing` and `orbit_steps` against the Weyl elements: at every point nu
    of W lambda and every j in I_af, r_j nu is the simple reflection's action (r_theta at j = 0),
    and nu - r_j nu is <alpha_j^vee, nu> fw(alpha_j); the walk yields each point once, one longer
    than the point it steps from, in the order of the quotient's orbit."""
    datum = build(*fam)
    quotient = ParabolicQuotient.for_weight(datum, lam)
    length = quotient._count_length
    points = [lam]
    for mu, i, nu in datum.orbit_steps(lam):
        assert nu == simple_reflection(datum, i).act_fw(mu)
        assert length(nu) == length(mu) + 1
        points.append(nu)
    assert len(set(points)) == len(points) == len(quotient.orbit)
    assert points == list(quotient.orbit)
    reflections = [finite_reflection(datum, datum.theta)] + [
        simple_reflection(datum, j) for j in range(1, datum.rank + 1)
    ]
    fw_alphas = [datum.root_to_fw(datum.affine_simple_root(j).finite) for j in range(datum.rank + 1)]
    for nu in points:
        for j, (r_j, fw_alpha) in enumerate(zip(reflections, fw_alphas)):
            image = datum.reflect(j, nu)
            assert image == r_j.act_fw(nu), (j, nu)
            pairing = datum.acoroot_pairing(j, nu)
            assert vec_sub(nu, image) == tuple(pairing * a for a in fw_alpha), (j, nu)
