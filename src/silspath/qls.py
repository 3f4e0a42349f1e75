"""Quantum LS paths: the finite crystal of shape lambda, read off QB(W^J).

A quantum LS path (Lenart-Naito-Sagaki-Schilling-Shimozono) is a chain
w_1, ..., w_s in W^J with cuts 0 = sigma_0 < sigma_1 < ... < sigma_s = 1, where
w_u != w_{u+1} and w_u is reachable from w_{u+1} in QB_{sigma_u lambda}(W^J):
the edges of the parabolic quantum Bruhat graph whose p = <u^vee, lambda> the
denominator of sigma_u divides.  These are the projections cl of the
semi-infinite LS paths (Ishii-Naito-Sagaki), so no root operator runs here.

W_J is the stabilizer of lambda, so w in W^J is named by its orbit point w lambda, and a
path holds its directions as those points (`ParabolicQuotient.named` gives w back).  `cl`
keeps each state's point and merges equal neighbours.  The graph is read row by row
(`ParabolicQuotient.qb_row`, kept per (mu, step, d): a level reads only the rows of its
denominator d): for u in Delta^+ \\ Delta_J^+ the edge w -> floor(w r_u) ends at
nu = mu - p w(u), a Bruhat edge if l(nu) = l(w) + 1 and a quantum edge of coweight u^vee
(lambda-weight p) if l(nu) = l(w) + 1 - <u^vee, 2 rho - 2 rho_J>.  With wt(v => w) the
coweight of a shortest path in the level's subgraph and wt_lambda its pairing with lambda
(`ParabolicQuotient.qb_reach(w lambda, d)` lists both over the v that reach w), a row holds

    weight    = sum_u (sigma_u - sigma_{u-1}) w_u lambda,
    deg_kappa = -sum_u sigma_u wt_lambda(w_{u+1} => w_u)   (the LNSSS Deg),
    deg_iota  = sum_u (1 - sigma_u) wt_lambda(w_{u+1} => w_u).

Every row is grown one way, left to right: a last segment of mu on [a, 1] behind a row with
final direction nu, where mu reaches nu at a's level (one backward reach per point and level),
moves the weight by (1 - a)(mu - nu) and the degree by -a wt_lambda(mu => nu), both exact as
d divides p on every edge of a's level (`_segment_step`).  The table grows each chain so from
its initial direction and keeps only deg_kappa.  The characters read no row: one sweep up the
cuts (`_sweep`) adds x^weight q^deg_kappa by final direction w lambda, from every orbit point
for the quotient characters (`final_sums`, a transfer matrix) and from lambda, kept to the
paths that stay dominant, for the degree sum (`highest_weight_sums`).

The distinguished lifts are rebuilt from the chain on demand, as coset states.  With
xi_s = 0 and xi_u = xi_{u+1} + wt(w_{u+1} => w_u) off J, `eta_kappa` has the directions
Pi^J(w_u t_{xi_u}), whose states are (w_u lambda, xi_u, <xi_u, lambda>), and delta
coefficient deg_kappa; `eta_iota` is its right translate by t_{-xi_1}, with delta
coefficient deg_iota.  Right translations commute with the root operators, which act
on the left, so both lifts lie in the unit component, and a path's offsets from
`eta_kappa` of its projection name its component (`component_base`).  The intrinsic
root operators reflect points (`ParabolicQuotient.reflect_point`); no Weyl element
enters this module.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from typing import NamedTuple

from .cartan import CartanDatum, Vec, vec_add, vec_sub
from .weyl import BudgetExceeded
from .peterson import TABLE_BUDGET
from .sils import CutPath, SiLSCrystal, SiLSPath, merge_segments, root_splice


def _segment_step(n: int, a: int, mu: Vec, nu: Vec, wt: int) -> tuple[Vec, int]:
    """A row with final direction nu, given a last segment of mu at the cut a (ticks over n), nu reached
    from mu with weight wt: its weight moves by (1 - a)(mu - nu), its degree by -a wt."""
    return tuple([(n - a) * (m - v) // n for m, v in zip(mu, nu)]), -a * wt // n


class QLSPath(CutPath):
    __slots__ = ()  # its directions are the orbit points w lambda of w in W^J
    _label = "QLS"


class LiftRecord(NamedTuple):
    """A table row: the weight and the delta coefficient of `eta_kappa`."""

    weight: Vec
    deg_kappa: int


class QLSCrystal:
    def __init__(self, datum: CartanDatum, lam: Vec):
        self.datum = datum
        self.lam = tuple(lam)
        self.sils = SiLSCrystal(datum, self.lam)
        self.interval_sums: dict = {}  # w lambda -> `final_sums` added over v >= w (the quotient characters)

    def cl(self, eta: SiLSPath) -> QLSPath:
        """Project each direction to its orbit point, which names its w in W^J, and merge equal neighbours."""
        dirs = tuple(z[0] for z in eta.directions)
        return QLSPath.from_ticks(*merge_segments(dirs, eta.ticks, eta.den), eta.den)

    def weight(self, psi: QLSPath) -> Vec:
        return self.table[psi].weight

    @functools.cached_property
    def table(self) -> dict[QLSPath, LiftRecord]:
        """Every QLS path with its row, by a depth-first search over chains grown from the
        initial direction, a last segment at a time (`_segment_step`); cuts are ticks over N."""
        quotient, n, table = self.sils.quotient, self.sils.n, {}
        # (w_1 lambda, ..., w_u lambda), (tick_1, ..., tick_{u-1}), the row's weight and degree
        stack = [((nu,), (), nu, 0) for nu in quotient.orbit]
        while stack:
            chain, cuts, weight, deg_kappa = stack.pop()
            table[QLSPath.from_ticks(chain, (0,) + cuts + (n,), n)] = LiftRecord(weight, deg_kappa)
            if len(table) > TABLE_BUDGET:
                raise BudgetExceeded("QLS table exceeded budget")
            nu, left = chain[-1], cuts[-1] if cuts else 0
            for a, d in self.sils.levels:
                if a > left:
                    for mu, (wt, _xi) in quotient.qb_reach(nu, d).items():
                        step, dq = _segment_step(n, a, mu, nu, wt)
                        stack.append((chain + (mu,), cuts + (a,), vec_add(weight, step), deg_kappa + dq))
        return table

    def _sweep(self, sums: dict, dominant: bool, stage: str) -> dict[Vec, dict[tuple[Vec, int], int]]:
        """Grow the rows in sums (final direction nu -> x^weight q^deg_kappa) up the cuts a: at a, each
        mu that reaches nu at a's level (`qb_reach`) gains nu's terms with a last segment of mu on [a, 1],
        so sums[nu] holds the rows whose cuts all lie below a.  If dominant, a term (fw, q) at nu extends
        at a only if N pi(a) = N fw - (N - a) nu is dominant (no later cut moves pi(a)), and is dropped
        otherwise: pi was dominant at the term's last cut and is linear after it, so pi_i(a) < 0 forces
        nu_i < 0, and pi_i stays negative up to fw_i at 1.  A term stands for one row at least."""
        quotient, n = self.sils.quotient, self.sils.n
        size = sum(map(len, sums.values()))
        for a, d in self.sils.levels:
            gains = []
            for nu, acc in sums.items():
                if dominant:
                    floor = [(n - a) * v for v in nu]  # N pi(a) >= 0 iff N fw >= floor
                    live = sums[nu] = {k: c for k, c in acc.items() if all(map(operator.ge, [n * f for f in k[0]], floor))}
                    size -= len(acc) - len(live)
                    acc = live
                if acc and (reach := quotient.qb_reach(nu, d)):
                    terms = tuple(acc.items())
                    gains += [(mu, nu, wt, terms) for mu, (wt, _xi) in reach.items()]
            for mu, nu, wt, terms in gains:
                acc, (step, dq) = sums.setdefault(mu, {}), _segment_step(n, a, mu, nu, wt)
                held = len(acc)
                for (fw, q), c in terms:
                    key = (tuple(map(operator.add, fw, step)), q + dq)
                    acc[key] = acc.get(key, 0) + c
                size += len(acc) - held
                if size > TABLE_BUDGET:
                    raise BudgetExceeded(f"{stage} exceeded the QLS table budget")
        return sums

    @functools.cached_property
    def final_sums(self) -> dict[Vec, dict[tuple[Vec, int], int]]:
        """w lambda -> the sum of x^weight q^deg_kappa over the rows with final direction w: the sweep
        from one row per orbit point, a transfer matrix up the cuts (the quotient characters)."""
        return self._sweep({mu: {(mu, 0): 1} for mu in self.sils.quotient.orbit}, False, "transfer matrix")

    @functools.cached_property
    def highest_weight_sums(self) -> dict[tuple[Vec, int], int]:
        """x^weight q^deg_kappa summed over the classical highest-weight rows, whose pi(t) is dominant
        at every cut and at 1 (Littelmann); as Deg is constant on classical components (LNSSS), a
        term stands for q^deg_kappa chi_weight.  The sweep from the row of lambda, kept to the terms
        dominant at each cut, then to those dominant at 1."""
        out = Counter()
        for acc in self._sweep({self.lam: {(self.lam, 0): 1}}, True, "highest-weight sweep").values():
            out.update({key: c for key, c in acc.items() if min(key[0]) >= 0})
        return out

    def paths(self) -> tuple[QLSPath, ...]:
        """The table's paths by length, cuts, then the w that each direction names."""
        named, n = self.sils.quotient.named, self.sils.n
        w_keys = lambda psi: tuple(named(nu).sort_key for nu in psi.directions)
        return tuple(sorted(self.table, key=lambda psi: (len(psi.directions), psi.ticks_over(n), w_keys(psi))))

    # -- distinguished lifts ----------------------------------------------------

    def _lift(self, psi: QLSPath, end: str) -> SiLSPath:
        """The lift of psi whose `end` direction ("kappa" or "iota") lies in
        W^J, rebuilt from the chain; see the module docstring."""
        quotient, points, ticks = self.sils.quotient, psi.directions, psi.ticks
        xis = [(0,) * self.datum.rank]  # xi_s, ..., xi_1, off J
        for u in range(len(points) - 2, -1, -1):
            d = psi.den // math.gcd(psi.den, ticks[u + 1])
            xis.append(vec_add(xis[-1], quotient.qb_reach(points[u], d)[points[u + 1]][1]))
        shift = xis[-1] if end == "iota" else xis[0]  # xi_1 or xi_s = 0
        lifted = tuple(quotient.state_at(nu, vec_sub(xi, shift)) for nu, xi in zip(points, reversed(xis)))
        return SiLSPath.from_ticks(lifted, ticks, psi.den)

    def eta_kappa(self, psi: QLSPath) -> SiLSPath:
        """The unique lift in the unit component with final direction in W^J."""
        return self._lift(psi, "kappa")

    def eta_iota(self, psi: QLSPath) -> SiLSPath:
        """The unique lift in the unit component with initial direction in W^J."""
        return self._lift(psi, "iota")

    def component_base(self, eta: SiLSPath) -> SiLSPath:
        """The translation-type path with final direction e in eta's component:
        with o = x.xi - y.xi for each direction x and the direction y of
        eta_kappa(cl eta) over the same w, its directions are Pi^J(t_{o - o_s}),
        whose states are (lambda, o - o_s off J, <o - o_s, lambda>)."""
        over = iter(self.eta_kappa(self.cl(eta)).directions)
        (mu, y_xi, y_p), offsets = next(over), []
        for nu, xi, p in eta.directions:
            if nu != mu:
                mu, y_xi, y_p = next(over)
            offsets.append((vec_sub(xi, y_xi), p - y_p))
        o_s, p_s = offsets[-1]
        dirs = tuple((self.lam, vec_sub(o, o_s), p - p_s) for o, p in offsets)
        return SiLSPath.from_ticks(*merge_segments(dirs, eta.ticks, eta.den), eta.den)

    def deg_tail(self, psi: QLSPath) -> int:
        """The delta coefficient of the weight of `eta_kappa(psi)`."""
        return self.table[psi].deg_kappa

    @functools.cached_property
    def _other_dual(self) -> "QLSCrystal | None":  # None, not a cycle, when self-dual
        dual_lam = self.datum.sigma_dual(self.lam)
        return None if dual_lam == self.lam else QLSCrystal(self.datum, dual_lam)

    dual = property(lambda self: self._other_dual or self)  # the crystal of shape -w0 lambda

    def star_dual(self, psi: QLSPath) -> QLSPath:
        """The image of psi under the weight-negating bijection to the dual shape."""
        image = self.dual.cl(self.sils.dual_path(self.eta_kappa(psi)))
        assert image in self.dual.table
        return image

    # -- intrinsic root operators -------------------------------------------------

    def qls_op(self, psi: QLSPath, tag: str, j: int) -> QLSPath | None:
        """Root operator computed on the projected path itself.

        It runs the semi-infinite kernel `root_splice` with the slopes of the orbit points
        (`SiLSCrystal.slope`) and their reflection `ParabolicQuotient.reflect_point`, so
        comparing it with cl of the semi-infinite operators checks those two inputs,
        while the crystal axioms on the QLS side check the splice.
        """
        n, slope = self.sils.n, self.sils.slope
        slopes = [slope(nu, j) for nu in psi.directions]
        reflect = functools.partial(self.sils.quotient.reflect_point, j)
        out = root_splice(psi.directions, psi.ticks_over(n), n, slopes, tag, reflect)
        return None if out is None else QLSPath.from_ticks(*out, n)
