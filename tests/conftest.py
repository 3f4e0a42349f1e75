import functools
import itertools
import operator
from collections import Counter
from fractions import Fraction

import pytest

from silspath.cartan import (
    AffineRealRoot,
    LevelZeroWeight,
    RootTable,
    build,
    vec_add,
    vec_neg,
)
from silspath.characters import GradedCharacter, weyl_character
from silspath.peterson import TABLE_BUDGET, ParabolicQuotient
from silspath.qls import QLSPath
from silspath.sils import SiLSCrystal, SiLSPath, root_splice
from silspath.weyl import (
    BudgetExceeded,
    _combine,
    affine_identity,
    affine_reflection,
    affine_simple,
    bruhat_leq,
    finite_reflection,
    from_finite,
    longest_element,
    simple_reflection,
    translation,
    weyl_group,
)


@pytest.fixture(scope="session")
def a1():
    return build("A", 1)


@pytest.fixture(scope="session")
def a2():
    return build("A", 2)


@pytest.fixture(scope="session")
def c2():
    return build("C", 2)


# the grch1 cases of the benchmark's verify workload, with their depths
GRCH1_CASES = [
    (("A", 1), (4,), 8),
    (("C", 2), (1, 1), 3),
    (("A", 3), (1, 0, 1), 3),
    (("G", 2), (0, 1), 5),
    (("A", 2), (2, 1), 5),
    (("B", 2), (1, 1), 4),
    (("B", 3), (0, 1, 0), 3),
]


TEST_WEIGHTS = [
    (("A", 1), (1,)),
    (("A", 1), (2,)),
    (("A", 1), (3,)),
    (("A", 2), (1, 0)),
    (("A", 2), (1, 1)),
    (("C", 2), (1, 0)),
]


# minuscule E-type weights: 27 and 56 representatives, all pairs compared
NESTING_WEIGHTS = TEST_WEIGHTS + [
    (("E", 6), (1, 0, 0, 0, 0, 0)),
    (("E", 7), (0, 0, 0, 0, 0, 0, 1)),
]


ORDER_CASES = [
    (("A", 1), (1,)),
    (("A", 1), (2,)),
    (("A", 2), (1, 1)),
    (("A", 2), (1, 0)),
    (("C", 2), (1, 0)),
]


def si_path(c, dirs, cuts):
    """The path of the crystal c whose directions are the elements dirs, each read as its
    coset state, at the Fraction cuts: the one conversion for tests that build paths from
    elements (their assertions read the states back through `state_rep`)."""
    return SiLSPath(tuple(map(c.quotient.coset_state, dirs)), tuple(cuts))


def generate_by_operators(q):
    """psi -> (word, lift) over the finite crystal of q, generated from the unit
    path by the root operators f_j, j in I_af: the oracle for `QLSCrystal.table`.

    Each lift is its word applied to the unit path, and psi is its projection
    cl.  Only f is applied: B(lambda)_cl is a regular crystal whose weights
    pair to 0 with c = sum_j a_j^vee h_j, so a set closed under every f_j holds
    whole j-strings and is therefore the whole connected crystal.
    """
    sils = q.sils
    start = sils.unit_path()
    found = {q.cl(start): ((), start)}
    queue = [((), start)]
    while queue:
        word, lift = queue.pop()
        for j in range(q.datum.rank + 1):
            lift2 = sils.root_f(lift, j)
            if lift2 is not None:
                psi2 = q.cl(lift2)
                if psi2 not in found:
                    found[psi2] = entry = (word + (("f", j),), lift2)
                    queue.append(entry)
    return found


def replay_words(q):
    """Root-operator words reaching each element of q.table from the unit path;
    `sils.apply` of a word rebuilds the oracle's lift, the operator-replay oracle."""
    found = generate_by_operators(q)
    assert found.keys() == q.table.keys()
    return {psi: word for psi, (word, _lift) in found.items()}


def oracle_row(q, lift):
    """(weight, deg_kappa, deg_iota) read off a lift in the unit component: the
    right translation by t_{-xi} adds <xi, lambda> to the weight's delta."""
    wt, rep = q.sils.weight(lift), q.sils.quotient.state_rep
    deg = lambda z: wt.delta + q.datum.pair_coweight_weight(rep(z).xi, q.sils.quotient.lam_weight)
    return wt.fw, deg(lift.kappa), deg(lift.iota)


def translated_lift(q, lift, end):
    """The lift translated on the right so that its `end` direction ("kappa" or
    "iota") lies in W^J: every direction x goes to Pi^J(x t_{-xi}), xi read off
    that end."""
    quotient = q.sils.quotient
    shift = translation(q.datum, vec_neg(quotient.state_rep(getattr(lift, end)).xi))
    dirs = (quotient.project(quotient.state_rep(z).mul(shift)) for z in lift.directions)
    return SiLSPath.from_ticks(tuple(map(quotient.coset_state, dirs)), lift.ticks, lift.den)


def dual_route_iota(q, psi):
    """The lift of psi with initial direction in W^J, via the sigma-dual shape.

    `star_dual` sends psi to the dual crystal, the dual's `eta_kappa` lifts
    it there, and `dual_path` reverses that lift back to shape lambda; the
    route serves as the oracle for `QLSCrystal.eta_iota`.
    """
    dual = q.dual
    return dual.sils.dual_path(dual.eta_kappa(q.star_dual(psi)))


@functools.lru_cache(maxsize=None)
def _orbit_raising_walk(datum, lam) -> tuple[int, ...]:
    """Node labels climbing the finite orbit from w_0(lambda) back to lambda."""
    start = longest_element(datum).act_fw(lam)
    if start == lam:
        return ()
    parent = {start: (start, -1)}
    frontier = [start]
    while frontier:
        nxt = []
        for nu in frontier:
            mu = LevelZeroWeight(nu, 0)
            for j in range(datum.rank + 1):
                if datum.acoroot_pairing(j, mu) <= 0:
                    continue
                if j == 0:
                    pair = -datum.acoroot_pairing(0, mu)
                    theta_fw = datum.root_to_fw(datum.theta)
                    nu2 = tuple(
                        c - pair * t for c, t in zip(nu, theta_fw)
                    )
                else:
                    nu2 = simple_reflection(datum, j).act_fw(nu)
                if nu2 not in parent:
                    parent[nu2] = (nu, j)
                    if nu2 == lam:
                        walk = []
                        cur = nu2
                        while parent[cur][1] != -1:
                            prev, jj = parent[cur]
                            walk.append(jj)
                            cur = prev
                        return tuple(reversed(walk))
                    nxt.append(nu2)
        frontier = nxt
    raise AssertionError("orbit walk did not reach the dominant weight")


def is_translation_type(c, eta):
    """Every direction of eta lies over the identity of W^J: x = z_xi t_xi."""
    return all(c.quotient.cl_direction(c.quotient.state_rep(z)).is_identity for z in eta.directions)


def canonicalize(c, eta):
    """Lower eta to a translation-type element of its component in the
    SiLS crystal c by the root operators.

    Returns the applied monomial as (node, power) pairs and the terminal
    path, whose directions are all of the form z_xi t_xi.  Each round
    lowers to an I-lowest element and then climbs the finite orbit of the
    final direction back to lambda; rounds repeat until every direction
    straightens (empirically at most two are needed, guarded here).
    """
    ops = []
    rounds = 0
    while not is_translation_type(c, eta):
        rounds += 1
        assert rounds <= 64, "canonicalization failed to converge"
        progress = True
        while progress:
            progress = False
            for j in range(1, c.datum.rank + 1):
                eta2, count = c.f_max(eta, j)
                if count:
                    ops.append((j, count))
                    eta = eta2
                    progress = True
        if is_translation_type(c, eta):
            break
        for j in _orbit_raising_walk(c.datum, c.lam):
            eta, count = c.f_max(eta, j)
            assert count >= 1
            ops.append((j, count))
    return tuple(ops), eta


def component_base_by_operators(c, eta):
    """The unique translation-type path with final direction e reachable
    from eta, by `canonicalize` and the Weyl group action: the oracle for
    `QLSCrystal.component_base`."""
    _, terminal = canonicalize(c, eta)
    base = c.weyl_action(c.quotient.state_rep(terminal.kappa).inverse().reduced_word(), terminal)
    assert c.quotient.state_rep(base.kappa) == affine_identity(c.datum)
    return base


def order_quotients():
    return [
        (ParabolicQuotient.for_weight(build(*fam), lam), lam)
        for fam, lam in ORDER_CASES
    ]


def partitions_bounded(max_len: int, total: int):
    """Partitions with at most max_len parts and size at most total, each once."""
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


def multipartitions(lam, max_total, strict):
    """Tuples of partitions, one per node, of total size <= max_total.

    With ``strict`` the partition at node i has length < lam[i], otherwise
    length <= lam[i].
    """
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


def table_degree_sum(q):
    """Sum of q^(tail degree) x^(weight) over the rows of `QLSCrystal.table`: the
    oracle for the highest-weight route behind `characters.qls_degree_sum`."""
    rows = q.table.values()
    return GradedCharacter(Counter((rec.weight, rec.deg_kappa) for rec in rows))


def final_sums_degree_sum(q):
    """The degree sum as the transfer matrix adds it over every final direction,
    `QLSCrystal.final_sums`: the oracle for the highest-weight route past the table."""
    total = Counter()
    for part in q.final_sums.values():
        total.update(part)
    return GradedCharacter(total)


def weyl_dimension(datum, mu):
    """dim V(mu) = prod over alpha > 0 of (mu + rho, alpha) / (rho, alpha) (Weyl), with
    (X, alpha) = sum_i u_i d_i X_i for alpha = sum_i u_i alpha_i."""
    num = den = 1
    for u in datum.pos_roots:
        ud = [a * d for a, d in zip(u, datum.sym)]
        num *= sum(c * (m + 1) for c, m in zip(ud, mu))
        den *= sum(ud)
    assert num % den == 0
    return num // den


def forward_reach(quotient, nu, d):
    """v lambda -> (wt_lambda(w => v), its coweight off J) for every v that w reaches at level d,
    nu = w lambda itself included, by a breadth-first search along the rows `qb_row(., d, 1)` out
    of each point: the forward oracle for `ParabolicQuotient.qb_reach`, which searches back."""
    quotient.orbit  # names every point that the rows reach
    reach, frontier = {nu: (0, (0,) * len(nu))}, [nu]
    while frontier:
        nxt = []
        for v in frontier:
            wt, xi = reach[v]
            for nu2, c, dp, _u in quotient.qb_row(v, d, 1):
                if nu2 not in reach:
                    reach[nu2] = (wt + dp, vec_add(xi, c))
                    nxt.append(nu2)
        frontier = nxt
    return reach


def final_sums_dense(q):
    """`QLSCrystal.final_sums` by the dense forward sweep: at each cut every orbit point snapshots
    its sum, and every point adds the snapshots of the points it reaches (`forward_reach`, one search
    per point and level denominator), whether or not its row at the cut's level is empty.  The oracle
    for `QLSCrystal._sweep`, which reads the backward reach only at the points a row of the level enters."""
    quotient, n, reach = q.sils.quotient, q.sils.n, {}
    sums = {mu: {(mu, 0): 1} for mu in quotient.orbit}
    for a, d in q.sils.levels:
        if d not in reach:
            reach[d] = {mu: forward_reach(quotient, mu, d) for mu in sums}
        before = {mu: tuple(s.items()) for mu, s in sums.items()}
        for mu, acc in sums.items():
            for nu, (wt, _xi) in reach[d][mu].items():
                if nu != mu:
                    step = tuple((n - a) * (m - v) // n for m, v in zip(mu, nu))
                    for (fw, deg), c in before[nu]:
                        key = (vec_add(fw, step), deg - a * wt // n)
                        acc[key] = acc.get(key, 0) + c
    return sums


def deg_iota(q, psi):
    """The delta coefficient of the weight of `eta_iota(psi)`, read off the lift."""
    return q.sils.weight(q.eta_iota(psi)).delta


def initial_sums_by_sweep(q):
    """w -> the sum of x^weight q^deg_iota over the rows whose initial direction is w,
    by the transfer matrix of `QLSCrystal.final_sums` swept down the cuts instead:
    sums[w] holds the rows with every cut above a, and at a it gains, with first cut
    a, the rows of each y != w that reaches w at a's level.  A segment of w added at
    a spans a and adds (1 - a) times its edge's wt_lambda to the degree.  The oracle
    for the plus quotient characters, which read the sigma-dual shape's `final_sums`.
    The sweep runs on orbit points w lambda, as `final_sums` does, and names each w at the end."""
    quotient, n = q.sils.quotient, q.sils.n
    sums = {mu: Counter({(mu, 0): 1}) for mu in quotient.orbit}
    for a, d in reversed(q.sils.levels):
        before = {mu: tuple(s.items()) for mu, s in sums.items()}
        for nu in sums:
            for mu, (wt, _xi) in forward_reach(quotient, nu, d).items():
                if mu != nu:
                    step = tuple(a * (m - v) // n for m, v in zip(mu, nu))
                    for (fw, deg), c in before[nu]:
                        sums[mu][vec_add(fw, step), deg + (n - a) * wt // n] += c
    return {quotient.orbit[mu]: s for mu, s in sums.items()}


def quotient_characters_by_rows(q, w):
    """(gch_quotient_minus, gch_quotient_plus) at w for the QLS crystal q, by the
    row filter: one bruhat_leq per table row, on the w its final and initial direction name."""
    minus, plus, named = Counter(), Counter(), q.sils.quotient.named
    for psi, row in q.table.items():
        if bruhat_leq(w, named(psi.directions[-1])):
            minus[row.weight, row.deg_kappa] += 1
        if bruhat_leq(named(psi.directions[0]), w):
            plus[row.weight, deg_iota(q, psi)] += 1
    return GradedCharacter(minus), GradedCharacter(plus)


def bruhat_above_by_rows(quotient, nu):
    """The points v lambda over v >= w in W^J, for w lambda = nu, by a search along the
    Bruhat (non-quantum) edges of the full QB(W^J) rows `qb_row(., 1, 1)`: the oracle
    for `ParabolicQuotient.bruhat_above`, which lifts by simple reflections instead."""
    quotient.orbit  # names every point that the rows reach
    seen, frontier = {nu}, [nu]
    while frontier:
        for nu2, _c, dp, _u in quotient.qb_row(frontier.pop(), 1, 1):
            if not dp and nu2 not in seen:
                seen.add(nu2)
                frontier.append(nu2)
    return seen


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


def affine_length(x):
    """The length of x = w t_xi in W_af: the positive real roots alpha + n delta that
    x sends negative, counted per finite positive root alpha from c = <xi, alpha>."""
    total, datum = 0, x.datum
    for u in datum.pos_roots:
        c = datum.pair_coweight_root(x.xi, u)
        w_pos = datum.is_positive_root(x.w.act_root(u))
        total += max(c, 0) + (1 if c >= 0 and not w_pos else 0)
        if c <= -1:
            total += (-c - 1) + (1 if w_pos else 0)
    return total


# -- root data by the O(rank^2) pairings, the oracles for the fundamental-weight column --


def root_norm(cartan, sym, u):
    """(alpha, alpha) = sum_ij u_i u_j d_i a_ij."""
    return sum(ui * uj * d * a for ui, d, row in zip(u, sym, cartan) for uj, a in zip(u, row))


def root_norm_half(datum, u):
    """(alpha, alpha)/2 in the normalization (alpha_i, alpha_j) = d_i a_ij."""
    return Fraction(root_norm(datum.cartan, datum.sym, u), 2)


def inv_act_root(w, u):
    """w^{-1}(u) for u in Q: a root-table lookup, else u over the preimages of the simple roots."""
    table = w.datum.root_table
    k = table.index.get(u)
    if k is not None:
        return table.roots[w.perm.index(k)]
    return _combine(u, [table.roots[p] for p in w._simple_preimages()])


def inv_act_fw(w, m):
    """w^{-1} m in fundamental-weight coordinates: <alpha_j^vee, w^{-1} m> = <(w alpha_j)^vee, m>."""
    coroots = w.datum.root_table.coroots
    return tuple(sum(map(operator.mul, coroots[p], m)) for p in w._simple_images())


def is_adjusted(quotient, xi):
    """xi is J-adjusted: <xi, alpha> is -1 or 0 for every alpha in Delta_J^+."""
    return all(quotient.datum.pair_coweight_root(xi, u) in (-1, 0) for u in quotient.delta_j_plus)


def positive_roots_by_closure(cartan):
    """The positive roots by reflection closure of the simple roots, each pairing
    <alpha_i^vee, u> summed over the Cartan row: the oracle for `_positive_roots`."""
    n = len(cartan)
    simples = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    seen, frontier = set(simples), list(simples)
    while frontier:
        u = frontier.pop()
        for i in range(n):
            c = sum(cartan[i][j] * u[j] for j in range(n))
            v = tuple(u[k] - (c if k == i else 0) for k in range(n))
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return tuple(sorted((u for u in seen if all(c >= 0 for c in u)), key=lambda u: (sum(u), u)))


def root_table_by_pairing(datum):
    """The root table with every pairing summed in full: fundamental-weight
    coordinates by `root_to_fw` on all 2N roots and each coroot 2 u_j d_j / (u, u)
    from the double-sum norm `root_norm`."""
    roots = datum.pos_roots + tuple(vec_neg(u) for u in datum.pos_roots)
    index = {u: k for k, u in enumerate(roots)}
    coroots = []
    for u in roots:
        norm = root_norm(datum.cartan, datum.sym, u)
        assert all(2 * uj * d % norm == 0 for uj, d in zip(u, datum.sym))
        coroots.append(tuple(2 * uj * d // norm for uj, d in zip(u, datum.sym)))
    simple = tuple(index[datum.simple_root(i)] for i in range(1, datum.rank + 1))
    return RootTable(roots, index, tuple(coroots), simple, tuple(map(datum.root_to_fw, roots)))


def outside_by_delta_j(quotient):
    """(u, <u^vee, lambda>) for u in Delta^+ \\ Delta_J^+, filtered by the set
    `delta_j_plus`: the oracle for `ParabolicQuotient._outside`."""
    datum, dj = quotient.datum, set(quotient.delta_j_plus)
    pair = datum.pair_coweight_weight
    return tuple((u, pair(datum.coroot(u), quotient.lam_weight)) for u in datum.pos_roots if u not in dj)


def qb_roots_by_pairing(quotient):
    """`ParabolicQuotient._qb_roots` with c_u = <u^vee, 2 rho - 2 rho_J> paired in
    root coordinates, 2 rho_J summed over `delta_j_plus`, each shift list copied, and
    u^vee off J zeroed at the nodes of `j_nodes`."""
    datum, table = quotient.datum, quotient.datum.root_table
    two_rho_j = tuple(map(sum, zip((0,) * datum.rank, *quotient.delta_j_plus)))
    shifts = {p: tuple(tuple(p * a for a in v) for v in table.fws) for p in quotient.pairing_values()}
    return tuple(
        (table.index[u], u, p, 2 * sum(c) - datum.pair_coweight_root(c, two_rho_j), shifts[p],
         tuple(0 if i in quotient.j_nodes else a for i, a in enumerate(c, 1)))
        for u, p in outside_by_delta_j(quotient)
        for c in [datum.coroot(u)]
    )


def reflection_perm_by_pairing(datum, u):
    """The permutation r_u induces on the root table, each of the 2N images
    v - <u^vee, v> u read off the coweight-root pairing, O(rank^2) per root."""
    table, c = datum.root_table, datum.coroot(u)
    return tuple(
        table.index[tuple(a - k * b for a, b in zip(v, u))]
        for v in table.roots
        for k in [datum.pair_coweight_root(c, v)]
    )


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


def lift_covers(quotient, x, a, step):
    """The edges of QB(W^J) at w = cl(x) (`qb_row`) whose p = |<beta^vee, x lambda>|
    level a's denominator divides, lifted to (beta, r_beta x) out of (step 1) or
    into (step -1) the element x: beta = step w(u) + chi delta, chi = 1 iff the edge
    is quantum.  The element-form oracle for `si_covers`, `si_lower_covers` and `si_ball`."""
    d, w = 1 if a is None else a.denominator, quotient.decompose(x).w
    return tuple(
        (beta, affine_reflection(quotient.datum, beta).mul(x))
        for _nu, _c, dp, u in quotient.qb_row(w.act_fw(quotient.lam), d, step)
        for beta in [AffineRealRoot(w.act_root(u if step == 1 else vec_neg(u)), int(dp != 0))]
    )


def si_ball_by_lift(quotient, radius):
    """`ParabolicQuotient.si_ball` walked on elements along `lift_covers`."""
    seen = {affine_identity(quotient.datum)}
    frontier = set(seen)
    for _ in range(radius):
        nxt = set()
        for x in frontier:
            edges = lift_covers(quotient, x, None, 1) + lift_covers(quotient, x, None, -1)
            nxt.update(y for _beta, y in edges if y not in seen)
            if len(seen) + len(nxt) > TABLE_BUDGET:
                raise BudgetExceeded("semi-infinite ball exceeded the QLS table budget")
        seen |= nxt
        frontier = nxt
    return tuple(sorted(seen, key=lambda v: (v.si_length, v.xi, v.w.sort_key)))


def vee_by_element(quotient, x):
    """x^vee = x w_0 w_{sigma(J),0}, a representative for sigma(J): the oracle for the state map `vee`."""
    w0 = longest_element(quotient.datum)
    wsj0 = longest_element(quotient.datum, quotient.sigma_nodes)
    return x.mul(from_finite(w0.mul(wsj0)))


def root_op_by_elements(c, eta, j, tag):
    """The root operator run on eta's representatives: `root_splice` with the slopes
    <alpha_j^vee, x lambda> and the reflection x -> r_j x of W_af, the result read back as
    states.  The element-form oracle for `root_e` and `root_f`."""
    quotient, n = c.quotient, c.n
    dirs = tuple(map(quotient.state_rep, eta.directions))
    slopes = [c.datum.acoroot_pairing(j, x.act_weight(c.quotient.lam_weight)) for x in dirs]
    out = root_splice(dirs, eta.ticks_over(n), n, slopes, tag, affine_simple(c.datum, j).mul)
    return None if out is None else SiLSPath.from_ticks(tuple(map(quotient.coset_state, out[0])), out[1], n)


def qls_op_by_elements(q, psi, tag, j):
    """The intrinsic root operator run on the w in W^J that psi's orbit points name:
    `root_splice` with the slopes <alpha_j^vee, w lambda> and the reflect map
    w -> min_rep(r_j w), r_0 acting as r_theta, the result read back as orbit points.
    The element-form oracle for `QLSCrystal.qls_op`, which reflects the points."""
    datum, quotient, n = q.datum, q.sils.quotient, q.sils.n
    dirs = tuple(map(quotient.named, psi.directions))
    slopes = [datum.acoroot_pairing(j, LevelZeroWeight(w.act_fw(q.lam), 0)) for w in dirs]
    r_j = finite_reflection(datum, datum.theta) if j == 0 else simple_reflection(datum, j)
    out = root_splice(dirs, psi.ticks_over(n), n, slopes, tag, lambda w: quotient.min_rep(r_j.mul(w)))
    return None if out is None else QLSPath.from_ticks(tuple(w.act_fw(q.lam) for w in out[0]), out[1], n)


def enumerate_demazure_by_pool(c, x, depth, budget=500_000):
    """`SiLSCrystal.enumerate_demazure` with every search bounded by one pool
    bound, max_den * (depth + max(0, -p_x)) + max(0, p_x), instead of the
    remaining degree, run on elements along `lift_covers`: the oracle for the
    capped search.  x and the paths are states, as the enumeration's."""
    assert depth >= 0
    quotient = c.quotient
    x = quotient.state_rep(x)
    p_of = lambda z: -z.act_weight(c.quotient.lam_weight).delta  # <xi, lambda>, read off z(lambda)
    grid = quotient.cut_grid()
    # the grid's largest denominator, so 1/max_den is its smallest cut;
    # the pool bound rests on it, not on N
    max_den = max((a.denominator for a in grid), default=1)
    p_x = p_of(x)
    bound = max_den * (depth + max(0, -p_x)) + max(0, p_x)
    # cuts and sums below are ticks over N; `levels` maps a grid cut's
    # ticks to the cut itself, the level argument of lift_covers (level 1,
    # n ticks, is absent and so admits every cover)
    n, limit = c.n, depth * c.n
    levels = {a.numerator * (n // a.denominator): a for a in grid}

    @functools.lru_cache(maxsize=None)
    def upward(z, a):
        """(y, p_of(y)) for every y > z at level a with p_of(y) <= bound."""
        seen = {z: p_of(z)}
        queue = [z]
        while queue:
            cur = queue.pop()
            for _beta, y in lift_covers(quotient, cur, levels.get(a), 1):
                if y not in seen and (p := p_of(y)) <= bound:
                    if len(seen) >= budget:
                        raise BudgetExceeded("direction pool exceeded budget")
                    seen[y] = p
                    queue.append(y)
        del seen[z]
        return tuple(seen.items())

    # reachable direction pool: everything >= x with bounded pairing
    pool = ((x, p_x),) + upward(x, n)

    # depth-first over (chain, cuts_desc, settled, p_of(top)), children
    # pushed in reverse so they pop in order
    results = []
    kappas = sorted(pool, key=lambda zp: (zp[0].si_length, zp[0].xi, zp[0].w.sort_key))
    stack = [((kappa,), (), 0, p) for kappa, p in reversed(kappas)]
    while stack:
        chain, cuts_desc, settled, p_top = stack.pop()
        right = cuts_desc[-1] if cuts_desc else n
        # closing now puts the top direction on [0, right]
        if settled + right * p_top <= limit:
            dirs = tuple(map(quotient.coset_state, reversed(chain)))
            ticks = (0,) + tuple(reversed(cuts_desc)) + (n,)
            results.append(SiLSPath.from_ticks(dirs, ticks, n))
        if len(results) > budget:
            raise BudgetExceeded("path enumeration exceeded budget")
        children = []
        for a in levels:
            if a >= right:
                continue
            new_settled = settled + (right - a) * p_top
            # every remaining direction pairs at least as high as the top
            if new_settled + a * p_top > limit:
                continue
            for y, p in upward(chain[-1], a):
                if new_settled + a * p <= limit:
                    children.append((chain + (y,), cuts_desc + (a,), new_settled, p))
        stack.extend(reversed(children))

    results.sort(key=c.sort_key())
    return tuple(results)


def coset_state(quotient, x):
    """(w lambda, xi off J, <xi, lambda>) for a representative x = w z_xi t_xi, with w
    read off its decomposition: the oracle for `ParabolicQuotient.coset_state`, which
    reads the finite part of any element of the coset applied to lambda."""
    lam = quotient.lam
    xi = tuple(v if m else 0 for v, m in zip(x.xi, lam))
    return quotient.decompose(x).w.act_fw(lam), xi, sum(a * m for a, m in zip(x.xi, lam))


def walk_pool(c, x, depth, budget=500_000):
    """representative -> coset state (w lambda, xi off J, p) for every state on a chain
    the Demazure walk from the state x yields, rebuilt by `ParabolicQuotient.rep` over the
    w that a fresh quotient's orbit search finds at w lambda."""
    q, orbit = c.quotient, ParabolicQuotient.for_weight(c.datum, c.lam).orbit
    states = {z for chain, *_ in c._demazure_walk(x, depth, budget) for z in chain_states(chain)}
    return {q.rep(orbit[nu], xi): (nu, xi, p) for nu, xi, p in states}


def chain_states(chain):
    """The states of a chain of `SiLSCrystal._demazure_walk`: its root, then each step
    (nu', dxi, dp) of `ParabolicQuotient.si_above` added to the state below."""
    return tuple(itertools.accumulate(chain, lambda z, step: (step[0], vec_add(z[1], step[1]), z[2] + step[2])))


def si_above_by_states(quotient, z, d, cap, budget=float("inf")):
    """Every state y > z at level 1/d with p(y) <= cap, in search order, by a depth-first
    search on states that adds each edge's offset to the state it expands: the oracle for
    `ParabolicQuotient.si_above`, which searches steps from the state's point once for
    every translate of it."""
    seen, queue = {}, [z]
    while queue:
        nu0, xi, p0 = queue.pop()
        for nu, c, dp, _u in quotient.qb_row(nu0, d, 1):
            p = p0 + dp
            if p <= cap and (y := (nu, tuple(map(operator.add, xi, c)) if dp else xi, p)) not in seen:
                if len(seen) + 1 >= budget:  # the pool holds z too
                    raise BudgetExceeded("direction pool exceeded budget")
                seen[y] = None
                queue.append(y)
    return tuple(seen)


def si_leq_by_covers(quotient, x, y, a=None):
    """The semi-infinite order on elements by a breadth-first search over `lift_covers`: y is at most
    si_length(y) - si_length(x) steps above x, and the translation coordinates off J
    only grow along covers, so a box below y's bounds every step.  The oracle for
    `ParabolicQuotient.si_leq`, which searches coset states capped at <xi_y, lambda>."""
    if x == y:
        return True
    off_j = [i for i, m in enumerate(quotient.lam) if m]
    below = lambda z: all(z.xi[i] <= y.xi[i] for i in off_j)
    frontier = {x} if below(x) else set()
    for _ in range(y.si_length - x.si_length):
        frontier = {z2 for z in frontier for _beta, z2 in lift_covers(quotient, z, a, 1) if below(z2)}
        if y in frontier:
            return True
    return False


def brute_force_by_paths(datum, lam, depth, budget=500_000):
    """`brute_force_gch_minus_e` by listing the paths with kappa >= e on a fresh
    crystal and summing `SiLSCrystal.weight` over them: the oracle for the
    weights the enumeration walk carries."""
    c = SiLSCrystal(datum, lam)
    paths = c.enumerate_demazure(c.unit, depth, budget)
    return GradedCharacter(Counter((wt.fw, wt.delta) for wt in map(c.weight, paths)))


# -- type A: Kostka-Foulkes polynomials by charge ---------------------------------------


def charge(word):
    """Lascoux-Schutzenberger charge of a word whose content is a partition.

    Standard subwords are taken out one at a time: the rightmost 1, then each
    next letter by a leftward scan from the last one, wrapping around to the
    right end when none is left of it.  The index starts at 0 and grows by one
    at each wrap; the charge is the sum of the indices over all letters.
    """
    word, total = list(word), 0
    while word:
        pos, index, taken = len(word), 0, set()
        for letter in range(1, max(word) + 1):
            hits = [i for i, x in enumerate(word) if x == letter]
            left = [i for i in hits if i < pos]
            if left:
                pos = left[-1]
            else:
                pos, index = hits[-1], index + 1
            total += index
            taken.add(pos)
        word = [x for i, x in enumerate(word) if i not in taken]
    return total


def semistandard_tableaux(shape, content):
    """All SSYT of a partition shape and a content, as lists of rows: the
    letters k = 1, 2, ... are added as horizontal strips of content[k-1] boxes."""
    out = []

    def place(rows, k):
        if k == len(content):
            if [len(r) for r in rows] == list(shape):
                out.append(rows)
            return
        old = [len(r) for r in rows]

        def strip(i, left, new):
            if i == len(shape):
                if left == 0:
                    place(new, k + 1)
                return
            # no two boxes of one strip in a column: row i stays within row i-1
            room = min(shape[i], old[i - 1] if i else shape[i]) - old[i]
            for c in range(min(room, left), -1, -1):
                strip(i + 1, left - c, new + [rows[i] + [k + 1] * c])

        strip(0, content[k], [])

    place([[] for _ in shape], 0)
    return out


def kostka_foulkes(shape, content):
    """K_{shape, content}(q) as {exponent: coefficient}: q^charge summed over
    the SSYT, each read row by row from the bottom row up."""
    poly = {}
    for rows in semistandard_tableaux(shape, content):
        c = charge([x for row in reversed(rows) for x in row])
        poly[c] = poly.get(c, 0) + 1
    return poly


def conjugate(partition):
    return tuple(sum(1 for p in partition if p > j) for j in range(partition[0])) if partition else ()


@functools.lru_cache(maxsize=None)
def _schur(datum, mu):
    return weyl_character(datum, mu)


def type_a_macdonald_t0(datum, lam):
    """P_lambda(x; q, 0) in type A_n as sum_mu K_{mu' lambda'}(q) s_mu.

    lambda is a partition with at most n parts (the column lengths are the
    nodes), mu runs over the partitions of |lambda| with at most n + 1 rows and
    s_mu is `weyl_character` of mu in fundamental-weight coordinates.  It
    rests on J_mu(x; q, 0) = P_mu(x; q, 0) and K_{lambda mu}(q, t) =
    K_{lambda' mu'}(t, q) with K_{lambda mu}(0, t) = K_{lambda mu}(t)
    (Macdonald, ch. VI, 8).
    """
    n = datum.rank
    parts = tuple(p for p in (sum(lam[i:]) for i in range(n)) if p)
    out = GradedCharacter()
    for mu in partitions_bounded(n + 1, sum(parts)):
        if sum(mu) < sum(parts):
            continue
        poly = kostka_foulkes(conjugate(mu), conjugate(parts))
        if not poly:
            continue
        mu = mu + (0,) * (n + 1 - len(mu))
        chi = _schur(datum, tuple(mu[i] - mu[i + 1] for i in range(n)))
        out = out + GradedCharacter(
            {(fw, q): c * k for (fw, _q), c in chi.terms.items() for q, k in poly.items()}
        )
    return out
