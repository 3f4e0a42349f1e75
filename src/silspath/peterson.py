"""Peterson coset representatives and the semi-infinite Bruhat order.

For a subset J of the finite nodes, ``(W_J)_af = W_J x t_{Q_J^vee}`` acts on
the right and every coset has a unique representative sending all of
``(Delta_J)_af^+`` to positive affine roots.  This module computes those
representatives, the J-adjustment of coweights, the duality x -> x^vee, and
the cover/order structure of the parabolic semi-infinite Bruhat graph,
including its rational-level subgraphs.

Every quotient is bound to a dominant weight lambda with zero set J.  The parabolic
quantum Bruhat graph QB(W^J) is read one row per orbit point nu = w lambda: nu has length
#{alpha in Delta^+ : <alpha^vee, nu> < 0}, so a length test finds an edge up from w or
down to w without building the orbit W lambda.  The graph lifts QB(W^J)
(Ishii-Naito-Sagaki): edge labels beta depend only on w = cl(x), and a quantum edge moves
xi by u^vee, so covers are read off the row of w lambda as edges (`si_covers`, per
(x, d)) or on cosets (`coset_covers`, per (w lambda, d)), on states that name x by
integers alone: w lambda, xi mod Q_J^vee and <xi, lambda>.  A level a enters only through
its reduced denominator d, which must divide p = |<beta^vee, x lambda>|: a row is kept
per (w lambda, step, d), built from the roots whose p d divides.  One map w lambda -> w
names the points, and x = w z_xi t_xi and its state are kept per x.  Reach is searched
once, on states: `si_above`, capped by <xi, lambda>, which never falls along a cover,
serves the Demazure walk (kept per walk) and the order (per (coset_state(x), d, p(y))).
Bruhat up-sets in W^J (`bruhat_above`, per w lambda) read no row: simple reflections lift them.
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
    affine_identity,
    affine_reflection,
    finite_identity,
    finite_reflection,
    from_finite,
    longest_element,
    simple_reflection,
    translation,
)

TABLE_BUDGET = 200_000  # QLS table rows; each orbit point is one, so it bounds W lambda too


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
    cover labels are read off the rows of its orbit graph QB(W^J), kept per (w lambda, step, d)."""

    datum: CartanDatum
    j_nodes: tuple[int, ...]
    lam: Vec
    _si_leq_cache: dict = field(default_factory=dict, repr=False)
    _cover_cache: dict = field(default_factory=dict, repr=False)
    _row_cache: dict = field(default_factory=dict, repr=False)
    _qb_levels: dict = field(default_factory=dict, repr=False)
    _lengths: dict = field(default_factory=dict, repr=False)
    _adjust_cache: dict = field(default_factory=dict, repr=False)
    _decompose_cache: dict = field(default_factory=dict, repr=False)
    _states: dict = field(default_factory=dict, repr=False)
    _reach_cache: dict = field(default_factory=dict, repr=False)
    _coset_cache: dict = field(default_factory=dict, repr=False)
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

    def is_adjusted(self, xi: Vec) -> bool:
        return all(self.datum.pair_coweight_root(xi, u) in (-1, 0) for u in self.delta_j_plus)

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
        """Computed, and its assertions checked, once per representative x."""
        cached = self._decompose_cache.get(x)
        if cached is None:
            phi, z = self.j_adjust(x.xi)
            assert not any(phi), f"{x} is not a Peterson representative"
            w = x.w.mul(z.inverse())
            assert self.is_min_rep(w)
            cached = self._decompose_cache[x] = Decomposition(w, z, x.xi)
        return cached

    def rep(self, w: FiniteWeylElt, xi: Vec) -> AffineWeylElt:
        """Pi^J(w t_xi) = w z_xi t_{xi + phi_J(xi)}: the representative over w in W^J at xi mod Q_J^vee."""
        phi, z = self.j_adjust(xi)
        return AffineWeylElt(w.mul(z), vec_add(xi, phi))

    def cl_direction(self, x: AffineWeylElt) -> FiniteWeylElt:
        """cl(x) = w for x = w z_xi t_xi."""
        return self.decompose(x).w

    # -- duality --------------------------------------------------------------

    @property
    def sigma_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.datum.sigma[i - 1] for i in self.j_nodes))

    def dual_quotient(self) -> "ParabolicQuotient":
        return ParabolicQuotient.for_weight(self.datum, self.datum.sigma_dual(self.lam))

    def vee(self, x: AffineWeylElt) -> AffineWeylElt:
        """x^vee = x * w_0 * w_{sigma(J),0}, a representative for sigma(J)."""
        w0 = longest_element(self.datum)
        wsj0 = longest_element(self.datum, self.sigma_nodes)
        return x.mul(from_finite(w0.mul(wsj0)))

    # -- semi-infinite covers and order ----------------------------------------

    @functools.cached_property
    def _outside(self) -> tuple[tuple[Vec, int], ...]:
        """(u, p) for u in Delta^+ \\ Delta_J^+ in pos_roots order, p = <u^vee, lambda> the coroot
        column dotted with lambda: lambda is dominant with zero set J, so p > 0 exactly off Delta_J^+."""
        lam, datum = self.lam, self.datum
        pairs = (sum(map(operator.mul, c, lam)) for c in datum.root_table.coroots)
        return tuple((u, p) for u, p in zip(datum.pos_roots, pairs) if p > 0)

    def _lift(self, x: AffineWeylElt, a: Fraction | None, step: int):
        """The edges of QB(W^J) at w = cl(x) (`qb_row`) whose p = |<beta^vee, x lambda>|
        level a's denominator divides, lifted to (beta, r_beta x) out of (step 1) or
        into (step -1) x: beta = step w(u) + chi delta, chi = 1 iff the edge is quantum."""
        d, w, nu = 1 if a is None else a.denominator, self.decompose(x).w, self.coset_state(x)[0]
        return tuple(
            (beta, affine_reflection(self.datum, beta).mul(x))
            for _nu, _p, u, quantum in self.qb_row(nu, d, step)
            for beta in [AffineRealRoot(w.act_root(u if step == 1 else vec_neg(u)), int(quantum))]
        )

    def si_covers(
        self, x: AffineWeylElt, a: Fraction | None = None
    ) -> tuple[tuple[AffineRealRoot, AffineWeylElt], ...]:
        """All edges x -> r_beta x of the graph (restricted to level a if given).

        Only a's reduced denominator d matters: kept per (x, d), with a = None as d = 1."""
        key = (x, 1 if a is None else a.denominator)
        cached = self._cover_cache.get(key)
        if cached is None:
            cached = self._cover_cache[key] = self._lift(x, a, 1)
        return cached

    def coset_state(self, x: AffineWeylElt) -> tuple[Vec, Vec, int]:
        """(w lambda, xi off J, <xi, lambda>) for x = w z_xi t_xi: its state on cosets, kept per x."""
        state = self._states.get(x)
        if state is None:
            w, lam = self.decompose(x).w, self.lam
            nu = w.act_fw(lam)
            self._named[nu] = w  # w lambda fixes w in W^J
            xi, p = tuple(c if m else 0 for c, m in zip(x.xi, lam)), sum(map(operator.mul, x.xi, lam))
            state = self._states[x] = nu, xi, p
        return state

    def state_rep(self, state: tuple[Vec, Vec, int]) -> AffineWeylElt:
        """The representative x that a state of `coset_state` or `coset_covers` names."""
        return self.rep(self._named[state[0]], state[1])

    def coset_covers(self, nu: Vec, d: int) -> tuple[tuple[FiniteWeylElt, Vec, Vec, int], ...]:
        """`si_covers` at level denominator d on the states of `coset_state`: at nu = w lambda,
        each (v, v lambda, c, p') is a cover over v = floor(w r_u) at xi + c and p + p' from an
        edge of `qb_row(nu, d, 1)`: c = u^vee off J, p' = p if it is quantum, else 0 and 0.  Kept
        per (nu, d) in `si_covers` order; w is read off the points these rows and `coset_state` name."""
        row = self._coset_cache.get((nu, d))
        if row is None:
            datum, lam, named, w = self.datum, self.lam, self._named, self._named[nu]
            row = self._coset_cache[nu, d] = tuple(
                (v, nu2, c, p if quantum else 0)
                for nu2, p, u, quantum in self.qb_row(nu, d, 1)
                for v in [named.get(nu2) or self.min_rep(w.mul(finite_reflection(datum, u)))]
                for c in [tuple(a if m and quantum else 0 for a, m in zip(datum.coroot(u), lam))]
            )
            named.update((nu2, v) for v, nu2, _c, _p in row)
        return row

    def si_lower_covers(
        self, x: AffineWeylElt, a: Fraction | None = None
    ) -> tuple[tuple[AffineRealRoot, AffineWeylElt], ...]:
        """All edges z -> x, listed as (beta, z)."""
        return self._lift(x, a, -1)

    def si_leq(self, x: AffineWeylElt, y: AffineWeylElt, a: Fraction | None = None) -> bool:
        """True iff a path from x to y exists in the (sub)graph: y is in `si_above` of x capped at p(y)."""
        if x == y:
            return True
        top = self.coset_state(y)
        key = (self.coset_state(x), 1 if a is None else a.denominator, top[2])
        above = self._si_leq_cache.get(key)
        if above is None:
            above = self._si_leq_cache[key] = set(self.si_above(*key))
        return top in above

    def si_above(self, z: tuple, d: int, cap: int, budget: float = float("inf")) -> tuple[tuple, ...]:
        """Every state y = (w lambda, xi, p) > z at level 1/d with p <= cap, in search order.
        p never decreases along a cover (a quantum edge adds p_beta > 0), so a cover path
        to such a y stays under cap; a cover raises si_length, so z is never found."""
        covers, seen, queue = self.coset_covers, {}, [z]
        while queue:
            nu0, xi, p0 = queue.pop()
            for _v, nu, c, dp in covers(nu0, d):
                p = p0 + dp
                if p <= cap and (y := (nu, tuple(map(operator.add, xi, c)) if dp else xi, p)) not in seen:
                    if len(seen) + 1 >= budget:  # the pool holds z too
                        raise BudgetExceeded("direction pool exceeded budget")
                    seen[y] = None
                    queue.append(y)
        return tuple(seen)

    def si_ball(self, radius: int) -> tuple[AffineWeylElt, ...]:
        """Everything within `radius` cover steps (up or down) of e; stops past TABLE_BUDGET points.
        Covers are read off `_lift`, so the ball fills no per-x `si_covers` memo."""
        seen = {affine_identity(self.datum)}
        frontier = set(seen)
        for _ in range(radius):
            nxt = set()
            for x in frontier:
                edges = self._lift(x, None, 1) + self._lift(x, None, -1)
                nxt.update(y for _beta, y in edges if y not in seen)
                if len(seen) + len(nxt) > TABLE_BUDGET:
                    raise BudgetExceeded("semi-infinite ball exceeded the QLS table budget")
            seen |= nxt
            frontier = nxt
        return tuple(sorted(seen, key=lambda v: (v.si_length, v.xi, v.w.sort_key)))

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
        past TABLE_BUDGET points.  It completes the map that `coset_state` and the coset rows name into."""
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
    def _qb_roots(self) -> tuple[tuple[int, Vec, int, int, tuple[Vec, ...]], ...]:
        """(k, u, p, c_u, shift) for (u, p) in `_outside`: u is root k, c_u =
        <u^vee, 2 rho - 2 rho_J> is W_J-invariant, and shift[m] is p times root m
        in fundamental-weight coordinates.  fw(2 rho_J) is 2 rho less the roots off
        Delta_J^+, so c_u = 2 sum(u^vee) - <u^vee, fw(2 rho_J)> is a dot product."""
        table = self.datum.root_table
        fws, ks = table.fws, [table.index[u] for u, _p in self._outside]
        two_rho_j = [2 - s for s in map(sum, zip((0,) * self.datum.rank, *(fws[k] for k in ks)))]
        shifts = {p: tuple(tuple(p * a for a in v) for v in fws) for p in self.pairing_values() if p > 1}
        shifts[1] = fws
        return tuple(
            (k, u, p, 2 * sum(c) - sum(map(operator.mul, c, two_rho_j)), shifts[p])
            for k, (u, p) in zip(ks, self._outside)
            for c in [table.coroots[k]]
        )

    def qb_row(self, nu: Vec, d: int, step: int) -> tuple[tuple[Vec, int, Vec, bool], ...]:
        """(nu', p, u, quantum) for the edges of QB(W^J) with d | p out of (step 1) or into (step -1)
        w in W^J at nu = w lambda, one per u in `_outside` (its entries with d | p are kept per d in
        `_qb_levels`) that passes the length test: v = floor(w r_u) has v lambda = nu' = nu - p w(u)
        and length l(v) = #{alpha in Delta^+ : <alpha^vee, nu'> < 0}, kept per nu' as l(w) is per nu (the
        orbit search records them too); w -> v is an edge if l(v) - l(w) is 1 (Bruhat) or 1 - c_u (quantum,
        of coweight u^vee), v -> w one if it is -1 or c_u - 1.  No orbit is built: w is read off the points
        that the orbit search, `coset_state` or `coset_covers` named.  Kept per (nu, step, d)."""
        row = self._row_cache.get((nu, step, d))
        if row is None:
            w, lengths, out = self._named[nu], self._lengths, []
            coroots = self.datum.root_table.coroots[: len(self.datum.pos_roots)]
            if (base := lengths.get(nu)) is None:  # a point that only `coset_state` named
                base = lengths[nu] = sum(sum(map(operator.mul, c, nu)) < 0 for c in coroots)
            roots = self._qb_levels.get(d)
            if roots is None:
                roots = self._qb_levels[d] = tuple(r for r in self._qb_roots if r[2] % d == 0)
            for k, u, p, c_u, shift in roots:
                nu2 = tuple(map(operator.sub, nu, shift[w.perm[k]]))
                if (length := lengths.get(nu2)) is None:
                    length = lengths[nu2] = sum(sum(map(operator.mul, c, nu2)) < 0 for c in coroots)
                gap = length - base
                if gap == step or gap == step * (1 - c_u):
                    out.append((nu2, p, u, gap != step))
            row = self._row_cache[nu, step, d] = tuple(out)
        return row

    def qb_reach(self, nu: Vec, d: int) -> dict[Vec, tuple[int, Vec]]:
        """v lambda -> (wt_lambda, wt) for every v reachable from w at nu = w lambda in the
        subgraph of QB(W^J) whose edges have p divisible by d (the level of a cut of
        denominator d, the rows `qb_row(., d, 1)`): wt is the coweight of a shortest path
        (a breadth-first search) and wt_lambda its pairing with lambda.  Kept per (nu, d)."""
        reach = self._reach_cache.get((nu, d))
        if reach is None:
            self.orbit  # names every point that the rows reach
            coroot, reach, frontier = self.datum.coroot, {nu: (0, (0,) * self.datum.rank)}, [nu]
            while frontier:
                nxt = []
                for v in frontier:
                    wt, xi = reach[v]
                    for nu2, p, u, quantum in self.qb_row(v, d, 1):
                        if nu2 not in reach:
                            reach[nu2] = (wt + p, vec_add(xi, coroot(u))) if quantum else (wt, xi)
                            nxt.append(nu2)
                frontier = nxt
            self._reach_cache[nu, d] = reach
        return reach
