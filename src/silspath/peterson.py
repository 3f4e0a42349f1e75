"""Peterson coset representatives, their integer states, and the semi-infinite Bruhat order.

For a subset J of the finite nodes, ``(W_J)_af = W_J x t_{Q_J^vee}`` acts on
the right and every coset has a unique representative sending all of
``(Delta_J)_af^+`` to positive affine roots.  This module computes those
representatives, the J-adjustment of coweights, and the cover/order structure of the
parabolic semi-infinite Bruhat graph, including its rational-level subgraphs.

Every quotient is bound to a dominant weight lambda with zero set J, and a direction is
the integer state (w lambda, xi off J, p = <xi, lambda>) of x = w z_xi t_xi: the orbit
point of w, which fixes w in W^J (`named`), xi mod Q_J^vee, and the pairing.  The state
is read off any element of the coset x (W_J)_af (`coset_state`), and `state_rep` rebuilds
x; elements appear only there, in `rep`, `project`, `j_adjust` and `decompose`.  On states
r_j x is a closed form (`reflect`, whose point part `reflect_point` also serves the finite
crystal), as is the duality x -> x^vee (`vee`).

The parabolic quantum Bruhat graph QB(W^J) is read one row per orbit point nu = w lambda:
nu has length #{alpha in Delta^+ : <alpha^vee, nu> < 0}, so a length test finds an edge up
from w or down to w without building the orbit W lambda.  The graph lifts QB(W^J)
(Ishii-Naito-Sagaki): edge labels beta depend only on w, and a quantum edge moves xi by
u^vee, so the covers of a state are read off the row of its point (`qb_row`), each edge with
the offset it adds to a state.  A level a enters only through its reduced denominator d,
which must divide p = |<beta^vee, x lambda>|: a row is kept per (w lambda, step, d), built
from the roots whose p d divides.  Reach is searched once per point: an edge adds the same offset
to every state over its point, so `si_above` lists the steps (nu', dxi, dp) from (nu, 0, 0) with dp
under a slack (p never falls along a cover), which `add_step` adds to a state.  It serves the Demazure
walk (kept per walk and (nu, d, slack)) and the order (per (nu_x, d, p_y - p_x)).  The finite
crystal reads QB(W^J) backward only: `qb_reach` lists the points that reach a point at a level,
each with the offset of a shortest path.  Bruhat up-sets in W^J (`bruhat_above`, per w lambda)
read no row: simple reflections lift them.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .cartan import (
    AffineRealRoot,
    CartanDatum,
    LevelZeroWeight,
    Vec,
    vec_add,
    vec_neg,
    vec_sub,
)
from .weyl import (
    AffineWeylElt,
    BudgetExceeded,
    FiniteWeylElt,
    affine_reflection,
    finite_identity,
    from_finite,
    simple_reflection,
    translation,
)

TABLE_BUDGET = 200_000  # QLS table rows; each orbit point is one, so it bounds W lambda too
State = tuple[Vec, Vec, int]  # (w lambda, xi off J, <xi, lambda>): see the module docstring


def add_step(z: State, step: State) -> State:
    """The state a step (nu', dxi, dp) of `ParabolicQuotient.si_above` reaches from z over its point."""
    (_nu, xi, p), (nu, dxi, dp) = z, step
    return nu, vec_add(xi, dxi) if dp else xi, p + dp


class Decomposition(NamedTuple):
    """x = w * z_xi * t_xi with w in W^J and xi a J-adjusted coweight."""

    w: FiniteWeylElt
    z: FiniteWeylElt
    xi: Vec


def _component_split(datum: CartanDatum, nodes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    remaining = set(nodes)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in remaining - comp:
                if datum.cartan[i - 1][j - 1] != 0:
                    comp.add(j)
                    frontier.append(j)
        comps.append(tuple(sorted(comp)))
        remaining -= comp
    return tuple(comps)


@dataclass(frozen=True, eq=False)
class ParabolicQuotient:
    """Tables for one subset J, bound to a dominant weight lambda with zero set J;
    covers of states are read off the rows of its orbit graph QB(W^J), kept per (w lambda, step, d)."""

    datum: CartanDatum
    j_nodes: tuple[int, ...]
    lam: Vec
    _si_leq_cache: dict = field(default_factory=dict, repr=False)
    _row_cache: dict = field(default_factory=dict, repr=False)
    _qb_levels: dict = field(default_factory=dict, repr=False)
    _lengths: dict = field(default_factory=dict, repr=False)
    _adjust_cache: dict = field(default_factory=dict, repr=False)
    _reach_cache: dict = field(default_factory=dict, repr=False)
    _named: dict = field(default_factory=dict, repr=False)
    _up_cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def for_weight(cls, datum: CartanDatum, lam: Vec) -> "ParabolicQuotient":
        if len(lam) != datum.rank or any(m < 0 for m in lam):
            raise ValueError(f"weight {lam} is not dominant for rank {datum.rank}")
        j = tuple(i for i in range(1, datum.rank + 1) if lam[i - 1] == 0)
        return cls(datum, j, tuple(lam))

    @classmethod
    def for_subset(cls, datum: CartanDatum, nodes) -> "ParabolicQuotient":
        """The quotient for J = nodes, bound to the weight sum of varpi_i over i not in J."""
        return cls.for_weight(datum, tuple(int(i not in nodes) for i in range(1, datum.rank + 1)))

    @property
    def lam_weight(self) -> LevelZeroWeight:
        return LevelZeroWeight(self.lam, 0)

    @functools.cached_property
    def delta_j_plus(self) -> tuple[Vec, ...]:
        datum, jset = self.datum, set(self.j_nodes)
        return tuple(
            u
            for u in datum.pos_roots
            if all(u[i] == 0 for i in range(datum.rank) if (i + 1) not in jset)
        )

    @functools.cached_property
    def reduction_gens(self) -> tuple[tuple[AffineRealRoot, AffineWeylElt], ...]:
        datum, jset = self.datum, set(self.j_nodes)
        gens: list[tuple[AffineRealRoot, AffineWeylElt]] = []
        for i in self.j_nodes:
            beta = AffineRealRoot(datum.simple_root(i), 0)
            gens.append((beta, from_finite(simple_reflection(datum, i))))
        for comp in _component_split(datum, self.j_nodes):
            sub_roots = [
                u
                for u in self.delta_j_plus
                if all(u[i - 1] == 0 for i in jset if i not in comp)
            ]
            theta_c = max(sub_roots, key=lambda u: (sum(u), u))
            beta = AffineRealRoot(vec_neg(theta_c), 1)
            gens.append((beta, affine_reflection(datum, beta)))
        return tuple(gens)

    # -- membership and projection ------------------------------------------

    def is_rep(self, x: AffineWeylElt) -> bool:
        """Peterson membership: x sends the simple roots of (W_J)_af to positive
        roots, hence all of (Delta_J)_af^+, their nonnegative combinations."""
        positive = self.datum.is_positive_affine
        return all(positive(x.act_root(beta)) for beta, _ in self.reduction_gens)

    def project(self, x: AffineWeylElt) -> AffineWeylElt:
        """Pi^J(x): right-descent reduction by the simple generators of (W_J)_af."""
        while True:
            for beta, refl in self.reduction_gens:
                if not self.datum.is_positive_affine(x.act_root(beta)):
                    x = x.mul(refl)
                    break
            else:
                return x

    def j_adjust(self, xi: Vec) -> tuple[Vec, FiniteWeylElt]:
        """(phi_J(xi), z_xi) with Pi^J(t_xi) = z_xi t_{xi + phi_J(xi)}."""
        cached = self._adjust_cache.get(xi)
        if cached is None:
            p = self.project(translation(self.datum, xi))
            cached = self._adjust_cache[xi] = (vec_sub(p.xi, xi), p.w)
        return cached

    def is_min_rep(self, w: FiniteWeylElt) -> bool:
        return all(
            self.datum.is_positive_root(w.act_root(self.datum.simple_root(i)))
            for i in self.j_nodes
        )

    def min_rep(self, w: FiniteWeylElt) -> FiniteWeylElt:
        while True:
            for i in self.j_nodes:
                if not self.datum.is_positive_root(w.act_root(self.datum.simple_root(i))):
                    w = w.mul(simple_reflection(self.datum, i))
                    break
            else:
                return w

    def decompose(self, x: AffineWeylElt) -> Decomposition:
        """x = w z_xi t_xi for a representative x, its assertions checked."""
        phi, z = self.j_adjust(x.xi)
        assert not any(phi), f"{x} is not a Peterson representative"
        w = x.w.mul(z.inverse())
        assert self.is_min_rep(w)
        return Decomposition(w, z, x.xi)

    def rep(self, w: FiniteWeylElt, xi: Vec) -> AffineWeylElt:
        """Pi^J(w t_xi) = w z_xi t_{xi + phi_J(xi)}: the representative over w in W^J at xi mod Q_J^vee."""
        phi, z = self.j_adjust(xi)
        return AffineWeylElt(w if z.is_identity else w.mul(z), vec_add(xi, phi))

    def cl_direction(self, x: AffineWeylElt) -> FiniteWeylElt:
        """cl(x) = w for x = w z_xi t_xi."""
        return self.decompose(x).w

    # -- duality --------------------------------------------------------------

    @property
    def sigma_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.datum.sigma[i - 1] for i in self.j_nodes))

    def dual_quotient(self) -> "ParabolicQuotient":
        return ParabolicQuotient.for_weight(self.datum, self.datum.sigma_dual(self.lam))

    def vee(self, z: State) -> State:
        """The state of x^vee = x w_0 w_{sigma(J),0} in the dual quotient, for the x that z names:
        x^vee lambda* = -x lambda for lambda* = -w_0 lambda, and its xi is w_{sigma(J),0} w_0 xi, whose
        coordinate sigma(i) is -xi_i off sigma(J)."""
        nu, xi, p = z
        return vec_neg(nu), vec_neg(self.datum.sigma_dual(xi)), -p

    # -- semi-infinite covers and order ----------------------------------------

    @functools.cached_property
    def _outside(self) -> tuple[tuple[Vec, int], ...]:
        """(u, p) for u in Delta^+ \\ Delta_J^+ in pos_roots order, p = <u^vee, lambda> the coroot
        column dotted with lambda: lambda is dominant with zero set J, so p > 0 exactly off Delta_J^+."""
        lam, datum = self.lam, self.datum
        pairs = (sum(map(operator.mul, c, lam)) for c in datum.root_table.coroots)
        return tuple((u, p) for u, p in zip(datum.pos_roots, pairs) if p > 0)

    def named(self, nu: Vec) -> FiniteWeylElt:
        """The w in W^J with w lambda = nu, kept per point asked for: e at lambda, else r_i times
        the w at r_i nu = nu - nu_i alpha_i for an i with nu_i < 0 (then r_i w < w lies in W^J),
        down to a point kept before.  A point off the orbit W lambda descends to another dominant
        weight: ValueError.  The points passed on the way are not kept: on the E7 rho ball of
        radius 3 they outnumber the ones asked for six to one."""
        named, alphas, start, word = self._named, self.datum.simple_fws, nu, []
        while (w := named.get(nu)) is None and (n := min(nu)) < 0:
            word.append(i := nu.index(n))
            nu = tuple(m - n * a for m, a in zip(nu, alphas[i]))
        if w is None:  # nu is dominant
            if nu != self.lam:
                raise ValueError(f"{nu} is not in the orbit of {self.lam}")
            w = named[nu] = finite_identity(self.datum)
        for i in reversed(word):
            w = simple_reflection(self.datum, i + 1).mul(w)
        named[start] = w
        return w

    def state_at(self, nu: Vec, xi: Vec) -> State:
        """The state of the coset of w t_xi, w lambda = nu: (nu, xi off J, <xi, lambda>)."""
        lam = self.lam
        return nu, tuple(c if m else 0 for c, m in zip(xi, lam)), sum(map(operator.mul, xi, lam))

    def coset_state(self, x: AffineWeylElt) -> State:
        """The state of x (W_J)_af, read off x itself: right multiplication by (W_J)_af fixes
        x lambda, xi off J and <xi, lambda>, so x need not be a representative."""
        return self.state_at(x.w.act_fw(self.lam), x.xi)

    def state_rep(self, z: State) -> AffineWeylElt:
        """The representative x that the state z names."""
        return self.rep(self.named(z[0]), z[1])

    def is_state(self, z: State) -> bool:
        """z names a representative: its xi vanishes on J, p = <xi, lambda> and nu lies in W lambda."""
        try:
            self.named(z[0])
        except ValueError:
            return False
        return self.state_at(z[0], z[1]) == tuple(z)

    def reflect_point(self, j: int, nu: Vec) -> Vec:
        """r_j nu, j in I_af: nu - nu_j alpha_j for j in I, r_theta nu = nu - <theta^vee, nu> theta at j = 0."""
        datum = self.datum
        n = nu[j - 1] if j else sum(map(operator.mul, datum.theta_coroot, nu))
        alpha = datum.simple_fws[j - 1] if j else datum.root_to_fw(datum.theta)
        return tuple(m - n * a for m, a in zip(nu, alpha)) if n else nu

    def reflect(self, j: int, z: State) -> State:
        """The state of r_j x, j in I_af, for the x that z names: r_j nu (`reflect_point`) at the same
        xi and p for j in I; r_0 = r_theta t_{-theta^vee} sends it to r_theta nu at xi - (w^{-1} theta^vee
        off J) and p - <theta^vee, nu>, w = `named(nu)`."""
        (nu, xi, p), theta_vee = z, self.datum.theta_coroot
        if j:
            return self.reflect_point(j, nu), xi, p
        c = self.named(nu).inv_act_coweight(theta_vee)
        xi2 = tuple(a - b if m else 0 for a, b, m in zip(xi, c, self.lam))
        return self.reflect_point(0, nu), xi2, p - sum(map(operator.mul, theta_vee, nu))

    def _edges(self, z: State, a: Fraction | None, step: int) -> tuple[tuple[AffineRealRoot, State], ...]:
        """(beta, y) per edge of `qb_row(nu, d, step)` at level a: the edge moves z to its other end
        y, and beta = step w(u) + chi delta, chi = 1 iff the edge is quantum, w = `named(nu)`."""
        w = self.named(z[0])
        return tuple(
            (AffineRealRoot(w.act_root(u if step == 1 else vec_neg(u)), int(dp != 0)), add_step(z, (nu2, c, dp)))
            for nu2, c, dp, u in self.qb_row(z[0], 1 if a is None else a.denominator, step)
        )

    def si_covers(self, z: State, a: Fraction | None = None) -> tuple[tuple[AffineRealRoot, State], ...]:
        """All edges z -> y of the graph (restricted to level a if given), as (beta, y)."""
        return self._edges(z, a, 1)

    def si_lower_covers(self, z: State, a: Fraction | None = None) -> tuple[tuple[AffineRealRoot, State], ...]:
        """All edges y -> z, listed as (beta, y)."""
        return self._edges(z, a, -1)

    def si_leq(self, x: State, y: State, a: Fraction | None = None) -> bool:
        """True iff a path from x to y exists in the (sub)graph: y - x is a step of `si_above` from x's
        point with slack p(y) - p(x), kept per (nu_x, d, p(y) - p(x))."""
        if x == y:
            return True
        (nu, xi, p), (nu2, xi2, p2) = x, y
        key = (nu, 1 if a is None else a.denominator, p2 - p)
        above = self._si_leq_cache.get(key)
        if above is None:
            above = self._si_leq_cache[key] = set(self.si_above(*key))
        return (nu2, vec_sub(xi2, xi), p2 - p) in above

    def si_above(self, nu: Vec, d: int, slack: int, budget: float = float("inf")) -> tuple[State, ...]:
        """Every step (nu', dxi, dp) from (nu, 0, 0) up to a state at level 1/d with dp <= slack, in
        search order: added to z over nu (`add_step`), the states above z with p <= p(z) + slack.  p never
        decreases along a cover (a quantum edge adds p_beta > 0), so a cover path to such a step stays
        under slack; a cover raises si_length, so (nu, 0, 0) is never found.  The loop adds each
        offset inline, as `add_step` does, since it is the search's innermost step."""
        row, seen, queue = self.qb_row, {}, [(nu, (0,) * len(nu), 0)]
        while queue:
            nu0, xi, p0 = queue.pop()
            for nu2, c, dp, _u in row(nu0, d, 1):
                p = p0 + dp
                if p <= slack and (y := (nu2, tuple(map(operator.add, xi, c)) if dp else xi, p)) not in seen:
                    if len(seen) + 1 >= budget:  # the pool holds the start too
                        raise BudgetExceeded("direction pool exceeded budget")
                    seen[y] = None
                    queue.append(y)
        return tuple(seen)

    def si_ball(self, radius: int) -> tuple[AffineWeylElt, ...]:
        """Everything within `radius` cover steps (up or down) of e, walked on states and
        rebuilt by `state_rep` at the end; stops past TABLE_BUDGET points."""
        e = (self.lam, (0,) * len(self.lam), 0)
        seen, frontier = {e}, {e}
        for _ in range(radius):
            nxt = set()
            for z in frontier:
                nxt.update(y for _beta, y in self.si_covers(z) + self.si_lower_covers(z) if y not in seen)
                if len(seen) + len(nxt) > TABLE_BUDGET:
                    raise BudgetExceeded("semi-infinite ball exceeded the QLS table budget")
            seen |= nxt
            frontier = nxt
        return tuple(sorted(map(self.state_rep, seen), key=lambda v: (v.si_length, v.xi, v.w.sort_key)))

    def pairing_values(self) -> tuple[int, ...]:
        """The positive pairings <gamma^vee, lambda> over gamma outside Delta_J."""
        return tuple(sorted({p for _u, p in self._outside}))

    def cut_grid(self) -> tuple[Fraction, ...]:
        """All rationals in (0,1) that can occur as cut points of a valid path:
        those whose denominator divides one of the pairing values."""
        dens = {q for v in self.pairing_values() for q in range(2, v + 1) if v % q == 0}
        return tuple(sorted({Fraction(p, q) for q in dens for p in range(1, q)}))

    # -- the orbit W lambda and the parabolic quantum Bruhat graph QB(W^J) -------

    @functools.cached_property
    def orbit(self) -> dict[Vec, FiniteWeylElt]:
        """w lambda -> w over W^J, by a search of W lambda that steps from w to r_i w if (w lambda)_i > 0
        (one longer, still in W^J; all of W^J is reached, W is never built), recording lengths; stops
        past TABLE_BUDGET points.  It completes the map of `named`."""
        datum, lam, lengths, alphas = self.datum, self.lam, self._lengths, self.datum.simple_fws
        reps, frontier = {lam: finite_identity(datum)}, [lam]
        lengths[lam] = 0
        while frontier:
            mu = frontier.pop()
            for i, n in enumerate(mu, 1):
                if n > 0:
                    nu = tuple(m - n * a for m, a in zip(mu, alphas[i - 1]))
                    if nu not in reps:
                        reps[nu] = simple_reflection(datum, i).mul(reps[mu])
                        lengths[nu] = lengths[mu] + 1
                        frontier.append(nu)
            if len(reps) > TABLE_BUDGET:
                raise BudgetExceeded("orbit W lambda exceeded the QLS table budget")
        self._named.update(reps)  # a point named before is in reps, over the same w
        return self._named

    def bruhat_above(self, nu: Vec) -> frozenset[Vec]:
        """The points v lambda of {v in W^J : v >= w} for w lambda = nu, by the lifting property
        (Deodhar; Bjorner-Brenti 2.2, 2.5): if nu_i > 0, r_i w > w is in W^J and up(nu) =
        up(r_i nu) | r_i up(r_i nu), r_i mu = mu - mu_i alpha_i on points, down from {nu} at the
        antidominant point, the top of W^J.  No element, row or length; kept per point of the chain."""
        alphas, cache, chain = self.datum.simple_fws, self._up_cache, []
        while (up := cache.get(nu)) is None and (n := max(nu)) > 0:
            chain.append((nu, i := nu.index(n)))
            nu = tuple(m - n * a for m, a in zip(nu, alphas[i]))
        if up is None:  # nu is antidominant: w is the top of W^J
            up = cache[nu] = frozenset((nu,))
        for nu, i in reversed(chain):  # r_i u > u >= r_i w is already in up where (u lambda)_i > 0
            images = [tuple(m - mu[i] * a for m, a in zip(mu, alphas[i])) for mu in up if mu[i] < 0]
            up = cache[nu] = up.union(images)
        return up

    @functools.cached_property
    def _qb_roots(self) -> tuple[tuple[int, Vec, int, int, tuple[Vec, ...], Vec], ...]:
        """(k, u, p, c_u, shift, c) for (u, p) in `_outside`: u is root k, c_u = <u^vee, 2 rho - 2 rho_J>
        is W_J-invariant, shift[m] is p times root m in fundamental-weight coordinates, and c is
        u^vee off J.  fw(2 rho_J) is 2 rho less the roots off Delta_J^+, so c_u = 2 sum(u^vee) -
        <u^vee, fw(2 rho_J)> is a dot product."""
        table, lam = self.datum.root_table, self.lam
        fws, ks = table.fws, [table.index[u] for u, _p in self._outside]
        two_rho_j = [2 - s for s in map(sum, zip((0,) * self.datum.rank, *(fws[k] for k in ks)))]
        shifts = {p: tuple(tuple(p * a for a in v) for v in fws) for p in self.pairing_values() if p > 1}
        shifts[1] = fws
        return tuple(
            (k, u, p, 2 * sum(c) - sum(map(operator.mul, c, two_rho_j)), shifts[p],
             tuple(a if m else 0 for a, m in zip(c, lam)))
            for k, (u, p) in zip(ks, self._outside)
            for c in [table.coroots[k]]
        )

    def _count_length(self, nu: Vec) -> int:
        """l(w) for w in W^J at nu = w lambda: #{alpha in Delta^+ : <alpha^vee, nu> < 0}."""
        coroots = self.datum.root_table.coroots[: len(self.datum.pos_roots)]
        return sum(sum(map(operator.mul, c, nu)) < 0 for c in coroots)

    def qb_row(self, nu: Vec, d: int, step: int) -> tuple[tuple[Vec, Vec, int, Vec], ...]:
        """(nu', c, dp, u) for the edges of QB(W^J) with d | p out of (step 1) or into (step -1) w in W^J
        at nu = w lambda, one per u in `_outside` (its entries with d | p are kept per d in `_qb_levels`)
        that passes the length test: v = floor(w r_u) has v lambda = nu' = nu - p w(u) and length
        l(v) = #{alpha in Delta^+ : <alpha^vee, nu'> < 0}, kept per nu' as l(w) is per nu (the orbit search
        records them too); w -> v is an edge if l(v) - l(w) is 1 (Bruhat: c = 0, dp = 0) or 1 - c_u
        (quantum: c = step u^vee off J, dp = step p), v -> w one if it is -1 or c_u - 1.  The edge moves
        a state (nu, xi, p0) to (nu', xi + c, p0 + dp).  No orbit is built: w is `named(nu)`.
        Kept per (nu, step, d)."""
        row = self._row_cache.get((nu, step, d))
        if row is None:
            w, lengths, out, zero = self.named(nu), self._lengths, [], (0,) * len(nu)
            if (base := lengths.get(nu)) is None:  # a point that no orbit search recorded
                base = lengths[nu] = self._count_length(nu)
            roots = self._qb_levels.get(d)
            if roots is None:
                roots = self._qb_levels[d] = tuple(r for r in self._qb_roots if r[2] % d == 0)
            for k, u, p, c_u, shift, u_vee in roots:
                nu2 = tuple(map(operator.sub, nu, shift[w.perm[k]]))
                if (length := lengths.get(nu2)) is None:
                    length = lengths[nu2] = self._count_length(nu2)
                gap = length - base
                if gap == step:
                    out.append((nu2, zero, 0, u))
                elif gap == step * (1 - c_u):
                    out.append((nu2, u_vee if step == 1 else vec_neg(u_vee), step * p, u))
            row = self._row_cache[nu, step, d] = tuple(out)
        return row

    def qb_reach(self, nu: Vec, d: int) -> dict[Vec, tuple[int, Vec]]:
        """v lambda -> (wt_lambda, xi) for every v != w that reaches w at nu = w lambda in the subgraph of
        QB(W^J) whose edges have p divisible by d (the level of a cut of denominator d): a breadth-first
        search back along the rows `qb_row(., d, -1)` into each point finds a shortest path v => w, xi is
        its coweight off J and wt_lambda its pairing with lambda, the offset the path adds to a state.
        All shortest paths carry one wt_lambda and one coweight mod Q_J^vee (LNSSS), so this one reach
        serves every caller.  Kept per (nu, d) where a row enters nu; elsewhere it is empty, not kept."""
        reach = self._reach_cache.get((nu, d))
        if reach is None:
            self.orbit  # names every point that the rows reach, and records its length
            if not self.qb_row(nu, d, -1):
                return {}
            reach, frontier = {nu: (0, (0,) * self.datum.rank)}, [nu]
            while frontier:
                nxt = []
                for v in frontier:
                    wt, xi = reach[v]
                    for nu2, c, dp, _u in self.qb_row(v, d, -1):
                        if nu2 not in reach:
                            reach[nu2] = (wt - dp, vec_sub(xi, c)) if dp else (wt, xi)
                            nxt.append(nu2)
                frontier = nxt
            del reach[nu]
            self._reach_cache[nu, d] = reach
        return reach
