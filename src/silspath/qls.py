"""Quantum LS paths as projections of the semi-infinite crystal.

The finite crystal of shape lambda is generated from the straight-line path
by root operators, recording one lift per element in the component of the
unit path; the projection cl forgets the translation data of each direction
and merges equal neighbours.  The distinguished lifts with final (resp.
initial) direction inside the finite quotient W^J supply the tail degree
used by the graded characters.

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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .cartan import CartanDatum, LevelZeroWeight, Vec, vec_neg
from .weyl import (
    BudgetExceeded,
    FiniteWeylElt,
    finite_reflection,
    simple_reflection,
    translation,
)
from .sils import SiLSCrystal, SiLSPath, merge_segments, root_splice


@dataclass(frozen=True, eq=False)
class QLSPath:
    directions: tuple[FiniteWeylElt, ...]
    cuts: tuple[Fraction, ...]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QLSPath)
            and self.cuts == other.cuts
            and self.directions == other.directions
        )

    def __hash__(self) -> int:
        return hash((self.directions, self.cuts))

    def __repr__(self) -> str:
        dirs = ",".join(repr(w) for w in self.directions)
        cuts = ",".join(str(a) for a in self.cuts)
        return f"QLS({dirs}; {cuts})"

    def sort_key(self):
        return (
            len(self.directions),
            self.cuts,
            tuple(w.sort_key for w in self.directions),
        )


class LiftRecord(NamedTuple):
    path: QLSPath
    lift: SiLSPath


class QLSCrystal:
    def __init__(self, datum: CartanDatum, lam: Vec):
        self.datum = datum
        self.lam = tuple(lam)
        self.sils = SiLSCrystal(datum, self.lam)

    def cl(self, eta: SiLSPath) -> QLSPath:
        """Project directions to W^J and merge equal neighbours."""
        cl_direction = self.sils.quotient.cl_direction
        return QLSPath(
            *merge_segments(tuple(map(cl_direction, eta.directions)), eta.cuts)
        )

    def weight(self, psi: QLSPath) -> Vec:
        fw = [Fraction(0)] * self.datum.rank
        for u, w in enumerate(psi.directions):
            span = psi.cuts[u + 1] - psi.cuts[u]
            img = w.act_fw(self.lam)
            for k in range(self.datum.rank):
                fw[k] += span * img[k]
        assert all(c.denominator == 1 for c in fw)
        return tuple(int(c) for c in fw)

    @functools.cached_property
    def table(self) -> dict[QLSPath, LiftRecord]:
        """Generate the full finite crystal with one lift per element."""
        budget = 200_000
        start_lift = self.sils.unit_path()
        start = LiftRecord(self.cl(start_lift), start_lift)
        table = {start.path: start}
        queue = [start]
        while queue:
            rec = queue.pop()
            for j in range(self.datum.rank + 1):
                for op in (self.sils.root_e, self.sils.root_f):
                    lift2 = op(rec.lift, j)
                    if lift2 is None:
                        continue
                    psi2 = self.cl(lift2)
                    if psi2 not in table:
                        if len(table) >= budget:
                            raise BudgetExceeded("QLS generation exceeded budget")
                        rec2 = LiftRecord(psi2, lift2)
                        table[psi2] = rec2
                        queue.append(rec2)
        return table

    def paths(self) -> tuple[QLSPath, ...]:
        return tuple(sorted(self.table, key=QLSPath.sort_key))

    # -- distinguished lifts ----------------------------------------------------

    def _translated_lift(self, psi: QLSPath, end: str) -> SiLSPath:
        """The recorded lift translated on the right so that its `end`
        direction ("kappa" or "iota") lies in W^J; see the module docstring."""
        lift = self.table[psi].lift
        quotient = self.sils.quotient
        shift = translation(self.datum, vec_neg(getattr(lift, end).xi))
        lift = SiLSPath(
            tuple(quotient.project(x.mul(shift)) for x in lift.directions),
            lift.cuts,
        )
        x = getattr(lift, end)
        assert not any(x.xi) and quotient.is_min_rep(x.w)
        assert self.cl(lift) == psi
        return lift

    @functools.lru_cache(maxsize=None)
    def eta_kappa(self, psi: QLSPath) -> SiLSPath:
        """The unique lift in the unit component with final direction in W^J."""
        return self._translated_lift(psi, "kappa")

    @functools.lru_cache(maxsize=None)
    def eta_iota(self, psi: QLSPath) -> SiLSPath:
        """The unique lift in the unit component with initial direction in W^J.

        It is the recorded lift translated by the initial direction's xi, as
        `eta_kappa` is by the final one's.
        """
        return self._translated_lift(psi, "iota")

    def deg_tail(self, psi: QLSPath) -> int:
        """The delta coefficient of the distinguished lift's weight."""
        k = self.sils.weight(self.eta_kappa(psi)).delta
        assert k <= 0
        return k

    @functools.cached_property
    def dual(self) -> "QLSCrystal":
        return QLSCrystal(self.datum, self.datum.sigma_dual(self.lam))

    @functools.lru_cache(maxsize=None)
    def star_dual(self, psi: QLSPath) -> QLSPath:
        """The image of psi under the weight-negating bijection to the dual shape."""
        rec = self.table[psi]
        image = self.dual.cl(self.sils.dual_path(rec.lift))
        assert image in self.dual.table
        return image

    def kappa_direction(self, psi: QLSPath) -> FiniteWeylElt:
        return self.eta_kappa(psi).kappa.w

    def iota_direction(self, psi: QLSPath) -> FiniteWeylElt:
        return self.eta_iota(psi).iota.w

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
        slopes = [
            self.datum.acoroot_pairing(j, LevelZeroWeight(w.act_fw(self.lam), 0))
            for w in psi.directions
        ]
        out = root_splice(
            psi.directions, psi.cuts, slopes, tag, functools.partial(self._cl_reflect, j)
        )
        return None if out is None else QLSPath(*out)
