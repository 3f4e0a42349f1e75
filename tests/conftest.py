import itertools

import pytest

from silspath.cartan import AffineRealRoot, build, vec_add, vec_neg
from silspath.characters import GradedCharacter
from silspath.peterson import ParabolicQuotient
from silspath.weyl import affine_reflection, finite_reflection, weyl_group


@pytest.fixture(scope="session")
def a1():
    return build("A", 1)


@pytest.fixture(scope="session")
def a2():
    return build("A", 2)


@pytest.fixture(scope="session")
def c2():
    return build("C", 2)


ORDER_CASES = [
    (("A", 1), (1,)),
    (("A", 1), (2,)),
    (("A", 2), (1, 1)),
    (("A", 2), (1, 0)),
    (("C", 2), (1, 0)),
]


def replay_words(q):
    """Root-operator words reaching each element of q.table from the unit path.

    The search visits nodes and operators in the order `QLSCrystal.table`
    does, so each word, applied to the unit path with `sils.apply`, rebuilds
    the recorded lift; the words serve as the operator-replay oracle.
    """
    sils = q.sils
    start = sils.unit_path()
    words = {q.cl(start): ()}
    queue = [(start, ())]
    while queue:
        lift, word = queue.pop()
        for j in range(q.datum.rank + 1):
            for tag, op in (("e", sils.root_e), ("f", sils.root_f)):
                lift2 = op(lift, j)
                if lift2 is None:
                    continue
                psi2 = q.cl(lift2)
                if psi2 not in words:
                    assert q.table[psi2].lift == lift2
                    words[psi2] = word + ((tag, j),)
                    queue.append((lift2, words[psi2]))
    assert words.keys() == q.table.keys()
    return words


def dual_route_iota(q, psi):
    """The lift of psi with initial direction in W^J, via the sigma-dual shape.

    `star_dual` sends psi to the dual crystal, the dual's `eta_kappa` lifts
    it there, and `dual_path` reverses that lift back to shape lambda; the
    route serves as the oracle for `QLSCrystal.eta_iota`.
    """
    dual = q.dual
    return dual.sils.dual_path(dual.eta_kappa(q.star_dual(psi)))


def order_quotients():
    return [
        (ParabolicQuotient.for_weight(build(*fam), lam), lam)
        for fam, lam in ORDER_CASES
    ]


def multipartitions(lam, max_total, strict):
    """Tuples of partitions, one per node, of total size <= max_total.

    With ``strict`` the partition at node i has length < lam[i], otherwise
    length <= lam[i].
    """

    def partitions_bounded(max_len: int, total: int):
        if max_len <= 0:
            yield ()
            return
        def gen(remaining, max_part, slots):
            yield ()
            if not slots or not remaining:
                return
            for first in range(min(remaining, max_part), 0, -1):
                for rest in gen(remaining - first, first, slots - 1):
                    yield (first,) + rest
        yield from gen(total, total, max_len)

    per_node = []
    for m in lam:
        bound = (m - 1) if strict else m
        per_node.append(list(partitions_bounded(bound, max_total)))
    out = []
    for combo in itertools.product(*per_node):
        if sum(sum(p) for p in combo) <= max_total:
            out.append(tuple(combo))
    return tuple(out)


# -- oracles over all of W, for the routines that never build it ---------------------


def _alternant(datum, mu):
    """sum_w sgn(w) e^(w mu) over all of W, at q = 0."""
    terms = {}
    for w in weyl_group(datum):
        key = (w.act_fw(mu), 0)
        terms[key] = terms.get(key, 0) + (-1) ** w.length
    return GradedCharacter(terms)


def weyl_identity_holds(datum, lam, chi):
    """Weyl's identity chi * A_rho == A_(lambda+rho), checked by multiplication.

    A_rho is a nonzero element of an integral domain, so the identity pins
    chi down without a Laurent division.
    """
    rho = datum.rho
    return chi * _alternant(datum, rho) == _alternant(datum, vec_add(tuple(lam), rho))


def bruhat_leq_bfs(u, v):
    """Bruhat order by upward BFS over reflection covers through all of W."""
    if u.length >= v.length:
        return u == v
    reflections = [finite_reflection(u.datum, r) for r in u.datum.pos_roots]
    frontier = {u}
    for level in range(u.length, v.length):
        frontier = {
            w2 for w in frontier for r in reflections if (w2 := w.mul(r)).length == level + 1
        }
    return v in frontier


def is_rep_critical(quotient, x):
    """Peterson membership by the critical roots: x(u) and x(-u + delta) positive
    for every u in Delta_J^+."""
    positive = quotient.datum.is_positive_affine
    return all(
        positive(x.act_root(AffineRealRoot(u, 0)))
        and positive(x.act_root(AffineRealRoot(vec_neg(u), 1)))
        for u in quotient.delta_j_plus
    )


def quotient_reps_by_filter(datum, lam):
    """The minimal coset representatives, filtered out of all of W."""
    quotient = ParabolicQuotient.for_weight(datum, tuple(lam))
    return tuple(w for w in weyl_group(datum) if quotient.is_min_rep(w))


def edge_pairing(quotient, beta, x):
    """<beta^vee, x lambda>, the pairing a level's subgraph condition reads."""
    datum = quotient.datum
    c = datum.coroot(beta.finite)
    return datum.pair_coweight_weight(c, x.act_weight(quotient.lam_weight))


def cover_candidates(quotient, w):
    """The up-cover candidates at every x over w: w(u) + chi delta for u in
    Delta^+ \\ Delta_J^+, with chi = 1 exactly when w(u) is negative."""
    datum = quotient.datum
    dj = set(quotient.delta_j_plus)
    out = []
    for u in datum.pos_roots:
        if u not in dj:
            wu = w.act_root(u)
            out.append(AffineRealRoot(wu, 0 if datum.is_positive_root(wu) else 1))
    return out


def covers_by_scan(quotient, x, a=None, step=1):
    """The edges out of x (step 1, as (beta, r_beta x)) or into x (step -1, as
    (beta, z)) at level a, by testing every candidate: si_length must change by
    step and r_beta x must be a representative.  Up, the candidates are
    `cover_candidates`; down, all 2|Delta^+| roots u and -u + delta."""
    datum = quotient.datum
    if step == 1:
        candidates = cover_candidates(quotient, quotient.decompose(x).w)
    else:
        candidates = [
            beta
            for u in datum.pos_roots
            for beta in (AffineRealRoot(u, 0), AffineRealRoot(vec_neg(u), 1))
        ]
    d = 1 if a is None else a.denominator
    out = []
    for beta in candidates:
        y = affine_reflection(datum, beta).mul(x)
        if y.si_length == x.si_length + step and quotient.is_rep(y):
            if d == 1 or edge_pairing(quotient, beta, x if step == 1 else y) % d == 0:
                out.append((beta, y))
    return tuple(out)
