import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import affine_length, bruhat_leq_bfs, inv_act_fw, inv_act_root, reflection_perm_by_pairing
from hypothesis import given, settings
from hypothesis import strategies as st

from silspath.cartan import _RANK_RANGE, AffineRealRoot, LevelZeroWeight, build
from silspath.cli import main
from silspath.peterson import ParabolicQuotient
from silspath.weyl import (
    AffineWeylElt,
    affine_identity,
    affine_reflection,
    affine_simple,
    bruhat_leq,
    finite_from_word,
    finite_identity,
    finite_reflection,
    from_finite,
    longest_element,
    simple_reflection,
    translation,
    weyl_group,
)


def s(datum, i):
    return from_finite(simple_reflection(datum, i))


def test_mul_identity(a2):
    x = AffineWeylElt(simple_reflection(a2, 1), (2, -1))
    assert x.mul(affine_identity(a2)) == x
    assert affine_identity(a2).mul(x) == x
    assert x.mul(x.inverse()).is_identity


def test_mul_reflection_example(a1):
    r = affine_reflection(a1, AffineRealRoot((-1,), 1))
    assert r == AffineWeylElt(simple_reflection(a1, 1), (-1,))
    assert r.mul(s(a1, 1)) == translation(a1, (1,))


def test_translations_commute(a2):
    t1, t2 = translation(a2, (1, 0)), translation(a2, (0, 1))
    assert t1.mul(t2) == translation(a2, (1, 1)) == t2.mul(t1)


def test_act_on_weight_examples(a1, a2):
    lam = LevelZeroWeight((2,), 0)
    assert affine_identity(a1).act_weight(lam) == lam
    assert translation(a1, (1,)).act_weight(lam) == LevelZeroWeight((2,), -2)
    x = AffineWeylElt(simple_reflection(a2, 1), (1, 0))
    assert x.act_weight(LevelZeroWeight((1, 0), 0)) == LevelZeroWeight((-1, 1), -1)


def test_reflection_examples(a1):
    assert affine_reflection(a1, AffineRealRoot((1,), 0)) == s(a1, 1)
    r = affine_reflection(a1, AffineRealRoot((-1,), 1))
    assert r.w == simple_reflection(a1, 1) and r.xi == (-1,)
    assert r.mul(r).is_identity


def test_act_on_root_examples(a1):
    beta = AffineRealRoot((1,), 0)
    assert affine_identity(a1).act_root(beta) == beta
    assert translation(a1, (1,)).act_root(beta) == AffineRealRoot((1,), -2)


def test_act_on_root_preserves_realness(a2):
    words = [(0,), (1,), (2,), (0, 1), (1, 2, 0), (0, 1, 2, 1)]
    for word in words:
        x = affine_identity(a2)
        for j in word:
            x = x.mul(affine_simple(a2, j))
        for u in a2.root_table.roots:
            for n in (-2, 0, 3):
                img = x.act_root(AffineRealRoot(u, n))
                assert a2.is_root(img.finite)


def test_simple_reflection_inverts_one_positive_root(a2, c2):
    # the unique positive real root sent negative by r_j is alpha_j itself,
    # matching the affine length 1; checked over the window |n| <= 3
    for datum in (a2, c2):
        for j in range(datum.rank + 1):
            rj = affine_simple(datum, j)
            assert affine_length(rj) == 1
            flipped = []
            for u in datum.root_table.roots:
                for n in range(-3, 4):
                    beta = AffineRealRoot(u, n)
                    if datum.is_positive_affine(beta) and not datum.is_positive_affine(
                        rj.act_root(beta)
                    ):
                        flipped.append(beta)
            assert flipped == [datum.affine_simple_root(j)]


def test_si_length_examples(a1, a2):
    assert affine_identity(a1).si_length == 0
    assert AffineWeylElt(simple_reflection(a2, 1), (1, 1)).si_length == 5
    assert AffineWeylElt(simple_reflection(a1, 1), (-1,)).si_length == -1


@pytest.mark.parametrize("case", [(("A", 1), (1,)), (("A", 2), (1, 1)), (("C", 2), (1, 0))])
def test_si_length_left_simple_step(case):
    # left multiplication by any affine simple reflection moves the
    # semi-infinite length by exactly one
    fam, lam = case
    datum = build(*fam)
    quotient = ParabolicQuotient.for_weight(datum, lam)
    for x in quotient.si_ball(4):
        for j in range(datum.rank + 1):
            y = affine_simple(datum, j).mul(x)
            assert abs(y.si_length - x.si_length) == 1


def test_finite_length_steps(a2, c2):
    for datum in (a2, c2):
        for w in weyl_group(datum):
            for i in range(1, datum.rank + 1):
                assert abs(w.mul(simple_reflection(datum, i)).length - w.length) == 1


def test_length_subadditive(a2):
    ws = weyl_group(a2)
    for u in ws:
        for v in ws:
            assert u.mul(v).length <= u.length + v.length


@settings(max_examples=60, deadline=None)
@given(
    word1=st.lists(st.integers(0, 2), max_size=5),
    word2=st.lists(st.integers(0, 2), max_size=5),
    fw=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    delta=st.integers(-2, 2),
)
def test_group_action_on_weights(word1, word2, fw, delta):
    datum = build("A", 2)
    x = affine_identity(datum)
    for j in word1:
        x = x.mul(affine_simple(datum, j))
    y = affine_identity(datum)
    for j in word2:
        y = y.mul(affine_simple(datum, j))
    mu = LevelZeroWeight(fw, delta)
    assert x.act_weight(y.act_weight(mu)) == x.mul(y).act_weight(mu)


@settings(max_examples=40, deadline=None)
@given(word=st.lists(st.integers(0, 2), max_size=6))
def test_affine_word_roundtrip(word):
    datum = build("A", 2)
    x = affine_identity(datum)
    for j in word:
        x = x.mul(affine_simple(datum, j))
    rebuilt = affine_identity(datum)
    for j in x.reduced_word():
        rebuilt = rebuilt.mul(affine_simple(datum, j))
    assert rebuilt == x
    assert len(x.reduced_word()) == affine_length(x)


def test_bruhat_examples(a2):
    e = finite_from_word(a2, [])
    s1, s2 = simple_reflection(a2, 1), simple_reflection(a2, 2)
    for w in weyl_group(a2):
        assert bruhat_leq(e, w)
    assert not bruhat_leq(s1, s2)
    assert bruhat_leq(s1, s2.mul(s1))
    assert not bruhat_leq(s2.mul(s1), s1)


def test_bruhat_against_subword_oracle(a2, c2):
    # u <= v iff some reduced word of v contains a reduced word of u as a
    # subword; checked against the lifting-property implementation
    import itertools

    for datum in (a2, c2):
        for v in weyl_group(datum):
            vword = v.reduced_word()
            subwords = set()
            for r in range(len(vword) + 1):
                for idx in itertools.combinations(range(len(vword)), r):
                    subwords.add(finite_from_word(datum, [vword[i] for i in idx]))
            for u in weyl_group(datum):
                assert bruhat_leq(u, v) == (u in subwords)


@pytest.mark.parametrize(
    "fam", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("G", 2)]
)
def test_bruhat_matches_bfs_oracle_on_all_pairs(fam):
    ws = weyl_group(build(*fam))
    for u, v in itertools.product(ws, repeat=2):
        assert bruhat_leq(u, v) == bruhat_leq_bfs(u, v), (u, v)


@pytest.mark.parametrize("fam,size", [(("D", 4), 400), (("F", 4), 200)])
def test_bruhat_matches_bfs_oracle_on_sampled_pairs(fam, size):
    ws = weyl_group(build(*fam))
    rng = random.Random(20140409)
    pairs = [(rng.choice(ws), rng.choice(ws)) for _ in range(size)]
    # pairs drawn uniformly are rarely comparable; add u below v by a prefix
    pairs += [(finite_from_word(v.datum, v.reduced_word()[: rng.randrange(v.length + 1)]), v)
              for _u, v in pairs[: size // 4]]
    results = [bruhat_leq(u, v) for u, v in pairs]
    assert results == [bruhat_leq_bfs(u, v) for u, v in pairs]
    assert any(results) and not all(results)


def test_longest_element(a2, c2):
    assert longest_element(a2).length == 3
    assert longest_element(c2).length == 4
    w0 = longest_element(a2)
    assert w0.mul(w0).is_identity


# -- permutation representation against matrix oracles ---------------------------


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _reflection_matrices(datum, i):
    """r_i on root, fundamental-weight and simple-coroot coordinates."""
    a, n, k = datum.cartan, datum.rank, i - 1

    def mat(entry):
        return tuple(tuple((r == c) - entry(r, c) for c in range(n)) for r in range(n))

    # r_k(alpha_c) = alpha_c - a_kc alpha_k; r_k(m) = m - m_k alpha_k with
    # (alpha_k)_r = a_rk; r_k(c) = c - <c, alpha_k> alpha_k^vee
    return (
        mat(lambda r, c: a[k][c] if r == k else 0),
        mat(lambda r, c: a[r][k] if c == k else 0),
        mat(lambda r, c: a[c][k] if r == k else 0),
    )


def _word_matrices(datum, word):
    """The three action matrices of r_{i_1} ... r_{i_k} for the given word."""
    n = datum.rank
    eye = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    mats = [eye, eye, eye]
    for i in word:
        mats = [_mat_mul(m, r) for m, r in zip(mats, _reflection_matrices(datum, i))]
    return mats


def _oracle_elements(fam):
    ws = weyl_group(build(*fam))
    return ws[::37] if fam == ("F", 4) else ws


ORACLE_FAMILIES = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_actions_match_matrix_oracle(fam):
    datum = build(*fam)
    n = datum.rank
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    ramp = tuple(range(-1, n - 1))
    # all roots, then lattice vectors that are not roots
    roots = sorted(datum.root_table.roots) + [tuple(2 * x for x in datum.theta), ramp]
    weights = units + [datum.rho, ramp]
    coweights = units + [datum.theta_coroot, ramp]
    for w in _oracle_elements(fam):
        word = w.reduced_word()
        root, fw, cow = _word_matrices(datum, word)
        root_inv, fw_inv, cow_inv = _word_matrices(datum, word[::-1])
        assert w.sort_key == root
        for u in roots:
            assert w.act_root(u) == _mat_vec(root, u)
            assert inv_act_root(w, u) == _mat_vec(root_inv, u)
        for m in weights:
            assert w.act_fw(m) == _mat_vec(fw, m)
            assert inv_act_fw(w, m) == _mat_vec(fw_inv, m)
        for c in coweights:
            assert w.act_coweight(c) == _mat_vec(cow, c)
            assert w.inv_act_coweight(c) == _mat_vec(cow_inv, c)


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_length_is_reduced_word_length(fam):
    for w in _oracle_elements(fam):
        assert w.length == len(w.reduced_word())
        assert w.inverse().length == w.length
        assert w.mul(w.inverse()).is_identity


def test_group_orders():
    assert len(weyl_group(build("F", 4))) == 1152
    assert longest_element(build("E", 6)).length == 36


def test_equal_permutations_in_different_types_differ():
    # B3 and C3 both have 18 roots, so their identities share one permutation
    e_b, e_c = finite_identity(build("B", 3)), finite_identity(build("C", 3))
    assert e_b.perm == e_c.perm and e_b != e_c


HASH_PROBE = """
from silspath.cartan import build
from silspath.weyl import AffineWeylElt, longest_element, weyl_group
e6 = build("E", 6)
print(hash(longest_element(e6)), hash(AffineWeylElt(longest_element(e6), (1, 0, -1, 2, 0, 1))))
print([w.reduced_word() for w in set(weyl_group(build("B", 3)))])
"""


def test_hashes_and_set_order_do_not_depend_on_the_process():
    # hashes read only the permutation and the translation, never an object
    # address or a seeded string hash, so every process agrees
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", HASH_PROBE], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# SHA-256 digests recorded with the earlier matrix representation, whose
# root-coordinate matrix `sort_key` reproduces; the orders must not move.
C3_WEYL_ORDER = "ba54265b0febac23cef39c87e72fd58507142e04198b6bba4d87a3b41e87d0fd"
C2_SILS_STDOUT = "db779db0d5aad8c4c59a3a273cee9dfb113035141a274c9ff6d9ab29c1d027d0"


def test_golden_orders(capsys):
    words = [w.reduced_word() for w in weyl_group(build("C", 3))]
    assert hashlib.sha256(repr(words).encode()).hexdigest() == C3_WEYL_ORDER
    argv = "sils enumerate --type C --rank 2 --lambda 1,1 --depth 2".split()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 108
    assert hashlib.sha256(out.encode()).hexdigest() == C2_SILS_STDOUT


@pytest.mark.parametrize(
    "fam", [(t, r) for t, ranks in _RANK_RANGE.items() for r in ranks if (t, r) != ("E", 8)]
)
def test_reflection_perms_match_pairing_oracle(fam):
    # read off the fundamental-weight column on the positive roots and negated
    # on the rest, every reflection permutes the roots as the coroot pairing says
    datum = build(*fam)
    for u in datum.root_table.roots:
        assert finite_reflection(datum, u).perm == reflection_perm_by_pairing(datum, u), u


@pytest.mark.parametrize("fam", [(t, r) for t, ranks in _RANK_RANGE.items() for r in ranks])
def test_simple_reflection_perms_match_pairing_oracle(fam):
    # r_i lowers coordinate i by the fundamental-weight column's entry i, as the
    # coroot pairing <alpha_i^vee, v> says, at every node, E8 included
    datum = build(*fam)
    for i in range(1, datum.rank + 1):
        oracle = reflection_perm_by_pairing(datum, datum.simple_root(i))
        assert simple_reflection(datum, i).perm == oracle, i


def test_e8_reflection_perms_match_pairing_oracle():
    datum = build("E", 8)
    for u in [datum.simple_root(i) for i in range(1, 9)] + [datum.theta]:
        assert finite_reflection(datum, u).perm == reflection_perm_by_pairing(datum, u), u
