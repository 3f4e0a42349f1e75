"""Quantum LS paths as projections of the semi-infinite crystal.

The finite crystal of shape lambda is generated from the straight-line path
by root operators, recording one lift per element in the component of the
unit path; the projection cl forgets the translation data of each direction
and merges equal neighbours.  The distinguished lifts with final (resp.
initial) direction inside the finite quotient W^J supply the tail degrees
used by the graded characters; the table keeps them in one row per element.

Both distinguished lifts are read off the recorded lift by one right
translation: if the recorded lift's final (resp. initial) direction is
w z_xi t_xi, mapping every direction by x -> Pi^J(x t_{-xi}) and keeping the
cuts gives the lift whose final (resp. initial) direction is w.  The map is
a bijection of the Peterson representatives (its inverse translates by
t_xi) and changes each direction's weight x(lambda) only by a multiple of
delta, because (W_J)_af fixes lambda.  Root operators act on the left
(x -> r_j x) and read only the finite part of those weights, while the
translation acts on the right, so heights, cut points and the operators
themselves commute with the map (the translation symmetry of
Ishii-Naito-Sagaki's semi-infinite LS path model).  The image therefore
lies in the unit component and has the same projection, whichever end xi
is read from.

The table rows rest on two identities that follow.  Pi^J(x t_{-xi}) has
weight x(lambda) + <xi, lambda> delta, so each tail degree is
wt(recorded lift).delta + <xi_end, lambda>, and no lift is built for it.
The translated lift's end direction lies in W^J, so it is psi's own end
direction: psi.directions[-1] for kappa, psi.directions[0] for iota.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .cartan import CartanDatum, Vec, vec_neg
from .weyl import (
    BudgetExceeded,
    FiniteWeylElt,
    finite_reflection,
    from_finite,
    simple_reflection,
    translation,
)
from .sils import CutPath, SiLSCrystal, SiLSPath, merge_segments, root_splice


class QLSPath(CutPath):
    __slots__ = ()
    _label = "QLS"

    def sort_key(self, n: int):
        return (len(self.directions), self.ticks_over(n), tuple(w.sort_key for w in self.directions))


class LiftRecord(NamedTuple):
    """A table row: a lift, the element's weight and the delta coefficients
    of `eta_kappa` and `eta_iota` of the element."""

    lift: SiLSPath
    weight: Vec
    deg_kappa: int
    deg_iota: int


class QLSCrystal:
    def __init__(self, datum: CartanDatum, lam: Vec):
        self.datum = datum
        self.lam = tuple(lam)
        self.sils = SiLSCrystal(datum, self.lam)

    def cl(self, eta: SiLSPath) -> QLSPath:
        """Project directions to W^J and merge equal neighbours."""
        cl_direction = self.sils.quotient.cl_direction
        dirs = tuple(map(cl_direction, eta.directions))
        return QLSPath.from_ticks(*merge_segments(dirs, eta.ticks, eta.den), eta.den)

    def weight(self, psi: QLSPath) -> Vec:
        return self.table[psi].weight

    def _record(self, lift: SiLSPath) -> LiftRecord:
        """The row of cl(lift), its degrees by the identity in the module docstring."""
        wt = self.sils.weight(lift)
        deg = lambda x: wt.delta + self.datum.pair_coweight_weight(x.xi, self.sils.lam_weight)
        return LiftRecord(lift, wt.fw, deg(lift.kappa), deg(lift.iota))

    @functools.cached_property
    def table(self) -> dict[QLSPath, LiftRecord]:
        """Generate the full finite crystal with one row per element."""
        budget = 200_000
        start = self.sils.unit_path()
        table = {self.cl(start): self._record(start)}
        queue = [start]
        while queue:
            lift = queue.pop()
            for j in range(self.datum.rank + 1):
                for op in (self.sils.root_e, self.sils.root_f):
                    lift2 = op(lift, j)
                    if lift2 is None:
                        continue
                    psi2 = self.cl(lift2)
                    if psi2 not in table:
                        if len(table) >= budget:
                            raise BudgetExceeded("QLS generation exceeded budget")
                        table[psi2] = self._record(lift2)
                        queue.append(lift2)
        return table

    def paths(self) -> tuple[QLSPath, ...]:
        return tuple(sorted(self.table, key=lambda psi: psi.sort_key(self.sils.n)))

    # -- distinguished lifts ----------------------------------------------------

    def _translated_lift(self, psi: QLSPath, end: str) -> SiLSPath:
        """The recorded lift translated on the right so that its `end`
        direction ("kappa" or "iota") lies in W^J; see the module docstring."""
        lift = self.table[psi].lift
        quotient = self.sils.quotient
        shift = translation(self.datum, vec_neg(getattr(lift, end).xi))
        dirs = tuple(quotient.project(x.mul(shift)) for x in lift.directions)
        lift = SiLSPath.from_ticks(dirs, lift.ticks, lift.den)
        x = getattr(lift, end)
        assert not any(x.xi) and quotient.is_min_rep(x.w)
        assert self.cl(lift) == psi
        return lift

    def eta_kappa(self, psi: QLSPath) -> SiLSPath:
        """The unique lift in the unit component with final direction in W^J."""
        return self._translated_lift(psi, "kappa")

    def eta_iota(self, psi: QLSPath) -> SiLSPath:
        """The unique lift in the unit component with initial direction in W^J.

        It is the recorded lift translated by the initial direction's xi, as
        `eta_kappa` is by the final one's.
        """
        return self._translated_lift(psi, "iota")

    def deg_tail(self, psi: QLSPath) -> int:
        """The delta coefficient of the weight of `eta_kappa(psi)`."""
        return self.table[psi].deg_kappa

    @functools.cached_property
    def dual(self) -> "QLSCrystal":
        return QLSCrystal(self.datum, self.datum.sigma_dual(self.lam))

    def star_dual(self, psi: QLSPath) -> QLSPath:
        """The image of psi under the weight-negating bijection to the dual shape."""
        rec = self.table[psi]
        image = self.dual.cl(self.sils.dual_path(rec.lift))
        assert image in self.dual.table
        return image

    # -- intrinsic root operators -------------------------------------------------

    def _cl_reflect(self, j: int, w: FiniteWeylElt) -> FiniteWeylElt:
        if j == 0:
            refl = finite_reflection(self.datum, self.datum.theta)
        else:
            refl = simple_reflection(self.datum, j)
        return self.sils.quotient.min_rep(refl.mul(w))

    def qls_op(self, psi: QLSPath, tag: str, j: int) -> QLSPath | None:
        """Root operator computed on the projected path itself.

        It runs the semi-infinite kernel `root_splice` with the slopes
        <alpha_j^vee, w(lambda)> and the reflect map w -> min_rep(r_j w), so
        comparing it with cl of the semi-infinite operators checks those two
        inputs, while the crystal axioms on the QLS side check the splice.
        """
        n, direction = self.sils.n, self.sils._direction
        # w read as w t_0, whose weight is w(lambda)
        slopes = [direction(from_finite(w))[1][j] for w in psi.directions]
        reflect = functools.partial(self._cl_reflect, j)
        out = root_splice(psi.directions, psi.ticks_over(n), n, slopes, tag, reflect)
        return None if out is None else QLSPath.from_ticks(*out, n)
