"""Graded characters, Macdonald t=0 specializations, and their oracles.

A graded character is a finite integer combination of terms x^mu q^k with
mu recorded in fundamental-weight coordinates.  No QLS route lists a path: the
degree-weighted QLS sum expands its classical highest-weight terms,
`QLSCrystal.highest_weight_sums`, by Freudenthal multiplicities and Weyl orbits,
the closed-form Demazure characters multiply it by the expanded inverse product
over the columns of lambda, and the quotient characters add `QLSCrystal.final_sums`
over a Bruhat up-set of W^J, one sum kept per orbit point on the crystal (the plus
ones read the `dual` shape's).  The
brute-force route walks the semi-infinite LS paths with kappa >= e down to the
depth instead and counts the weights that the walk carries, again without listing
a path.  Demazure's character formula supplies an independent q=0 oracle without
enumerating the Weyl group.  Every route reads one crystal per shape (and its
dual), `_qls`, kept until another lambda is asked for.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter

from .cartan import CartanDatum, Vec, vec_add, vec_neg
from .weyl import BudgetExceeded, FiniteWeylElt, longest_element
from .peterson import TABLE_BUDGET
from .qls import QLSCrystal

Term = tuple[Vec, int]


class GradedCharacter:
    """Finite map (weight, q-exponent) -> integer coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Term, int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def unit(cls, rank: int) -> "GradedCharacter":
        return cls({(((0,) * rank), 0): 1})

    @classmethod
    def monomial(cls, fw: Vec, q: int = 0, coeff: int = 1) -> "GradedCharacter":
        return cls({(tuple(fw), q): coeff})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedCharacter) and self.terms == other.terms

    def __add__(self, other: "GradedCharacter") -> "GradedCharacter":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return GradedCharacter(out)

    def __sub__(self, other: "GradedCharacter") -> "GradedCharacter":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return GradedCharacter(out)

    def __mul__(self, other: "GradedCharacter") -> "GradedCharacter":
        by_weight: dict[Vec, list[tuple[int, int]]] = {}  # one vec_add per pair of weights
        for (fw2, q2), c2 in other.terms.items():
            by_weight.setdefault(fw2, []).append((q2, c2))
        out: dict[Term, int] = {}
        for (fw1, q1), c1 in self.terms.items():
            for fw2, qcs in by_weight.items():
                fw = vec_add(fw1, fw2)
                for q2, c2 in qcs:
                    key = (fw, q1 + q2)
                    out[key] = out.get(key, 0) + c1 * c2
        return GradedCharacter(out)

    def invert_q(self) -> "GradedCharacter":
        return GradedCharacter({(fw, -q): c for (fw, q), c in self.terms.items()})

    def invert_x(self) -> "GradedCharacter":
        return GradedCharacter({(vec_neg(fw), q): c for (fw, q), c in self.terms.items()})

    def truncate(self, q_min: int | None = None, q_max: int | None = None) -> "GradedCharacter":
        return GradedCharacter(
            {
                (fw, q): c
                for (fw, q), c in self.terms.items()
                if (q_min is None or q >= q_min) and (q_max is None or q <= q_max)
            }
        )

    def q_slice(self, q: int) -> dict[Vec, int]:
        return {fw: c for (fw, qq), c in self.terms.items() if qq == q}

    def value_at_ones(self) -> int:
        return sum(self.terms.values())

    def sorted_terms(self) -> tuple[tuple[Vec, int, int], ...]:
        """(fw, q, c) by q descending, then fw: a stable sort by q over the rows sorted by fw."""
        rows = sorted([(fw, q, c) for (fw, q), c in self.terms.items()])
        rows.sort(key=operator.itemgetter(1), reverse=True)
        return tuple(rows)

    def __repr__(self) -> str:
        if not self.terms:
            return "GradedCharacter(0)"
        bits = [f"{c}*x{list(fw)}q^{q}" for fw, q, c in self.sorted_terms()]
        return "GradedCharacter(" + " + ".join(bits) + ")"


# -- QLS degree route ----------------------------------------------------------


def qls_degree_sum(datum: CartanDatum, lam: Vec) -> GradedCharacter:
    """Sum of q^(tail degree) x^(weight) over the finite path crystal: the `weyl_expansion` of
    q^deg chi_mu over its classical highest-weight paths (`QLSCrystal.highest_weight_sums`)."""
    return _degree_sum(datum, lam, "x", 1)


def macdonald_t0(datum: CartanDatum, lam: Vec, basis: str = "x") -> GradedCharacter:
    """The symmetric Macdonald polynomial at t = 0: the degree sum with q inverted; with basis
    "weyl", one term per (dominant mu, q), the multiplicity of chi_mu."""
    return _degree_sum(datum, lam, basis, -1)


def _degree_sum(datum: CartanDatum, lam: Vec, basis: str, sign: int) -> GradedCharacter:
    crystal = _qls(datum, tuple(lam))  # its orbit search has listed W lambda
    hw = GradedCharacter({(mu, sign * q): c for (mu, q), c in crystal.highest_weight_sums.items()})
    return hw if basis == "weyl" else weyl_expansion(datum, hw, {crystal.lam: crystal.sils.quotient.orbit})


def weyl_expansion(datum: CartanDatum, hw: GradedCharacter, orbits: dict | None = None) -> GradedCharacter:
    """The sum of c q^k chi_mu over the terms c x^mu q^k of hw, mu dominant, in the x-basis.

    The dominant kappa <= mu are reached from mu by subtracting positive roots (Stembridge), and
    highest first, ((mu + rho, mu + rho) - (kappa + rho, kappa + rho)) m(kappa) = 2 sum_{alpha > 0,
    j >= 1} (kappa + j alpha, alpha) m(kappa + j alpha) (Freudenthal), (X, alpha) = sum_i u_i d_i X_i
    for alpha = sum_i u_i alpha_i, each m read off the orbits listed so far up to the string's end
    (kappa + j alpha lies above kappa, so its dominant conjugate came first, or it is no weight of V(mu)).
    Each W kappa is listed once as points, by the stepping rule of `ParabolicQuotient.orbit`, unless
    orbits holds it (kappa -> its points).  Dominant weights, points and terms stop past TABLE_BUDGET."""
    sym, alphas = datum.sym, datum.simple_fws
    add, sub, mul, ge = operator.add, operator.sub, operator.mul, operator.ge
    roots = [(u, fw, ud := tuple(map(mul, u, sym)), sum(map(mul, ud, fw)))  # alpha, its fw, d u, (alpha, alpha)
             for u, fw in zip(datum.pos_roots, datum.root_table.fws)]
    orbits = dict(orbits or {})
    dominant_of = {nu: kappa for kappa, points in orbits.items() for nu in points}  # W kappa -> kappa
    mults, coeffs = {}, {}
    for mu in dict.fromkeys(mu for mu, _q in hw.terms):
        below, stack = {mu: (0,) * datum.rank}, [mu]  # kappa -> mu - kappa in root coordinates
        while stack:
            kappa = stack.pop()
            for u, fw, _ud, _norm in roots:
                if all(map(ge, kappa, fw)) and (nu := tuple(map(sub, kappa, fw))) not in below:
                    below[nu] = tuple(map(add, below[kappa], u))
                    stack.append(nu)
            if len(below) > TABLE_BUDGET:
                raise BudgetExceeded("dominant weights exceeded the QLS table budget")
        mult = mults[mu] = {}
        for kappa, n in sorted(below.items(), key=lambda p: sum(p[1])):
            total = 0
            for _u, fw, ud, norm in roots if kappa != mu else ():
                if m := mult.get(dominant_of.get(point := tuple(map(add, kappa, fw)))):
                    pair = sum(map(mul, ud, point))
                    total += pair * m
                    while m := mult.get(dominant_of.get(point := tuple(map(add, point, fw)))):
                        pair += norm
                        total += pair * m
            gap = sum(map(mul, n, [d * (a + b + 2) for d, a, b in zip(sym, mu, kappa)]))  # 0 only at mu
            mult[kappa] = 2 * total // gap if gap else 1
            if kappa not in orbits:
                points, frontier = {kappa: kappa}, [kappa]
                while frontier:
                    nu = frontier.pop()
                    for i, m in enumerate(nu):
                        if m > 0 and (nu2 := tuple([x - m * a for x, a in zip(nu, alphas[i])])) not in points:
                            points[nu2] = kappa  # r_i nu = nu - m alpha_i
                            frontier.append(nu2)
                orbits[kappa] = points
                dominant_of.update(points)
                if len(dominant_of) > TABLE_BUDGET:
                    raise BudgetExceeded("Weyl orbits exceeded the QLS table budget")
    for (mu, q), c in hw.terms.items():
        for kappa, m in mults[mu].items():
            coeffs[kappa, q] = coeffs.get((kappa, q), 0) + c * m
    if sum(len(orbits[kappa]) for kappa, _q in coeffs) > TABLE_BUDGET:
        raise BudgetExceeded("x-basis expansion exceeded the QLS table budget")
    return GradedCharacter({(nu, q): c for (kappa, q), c in coeffs.items() for nu in orbits[kappa]})


_qls = functools.lru_cache(maxsize=1)(QLSCrystal)  # (datum, lam) -> the current shape


# -- column series and Demazure characters ---------------------------------------


def _column_series(rank: int, lam: Vec, depth: int, sign: int) -> GradedCharacter:
    """Expansion of prod_i prod_{r<=m_i} (1 - q^(sign*r))^(-1) to q-depth, by the
    partition recurrence c[k] += c[k - r], one pass per factor."""
    counts = [1] + [0] * depth if any(lam) else [1]
    for m in lam:
        for r in range(1, m + 1):
            for k in range(r, depth + 1):
                counts[k] += counts[k - r]
    zero = (0,) * rank
    return GradedCharacter({(zero, sign * k): c for k, c in enumerate(counts)})


def _times_column_series(
    total: GradedCharacter, lam: Vec, depth: int, sign: int, budget: int
) -> GradedCharacter:
    """total times the column series, truncated to q-depth.  That holds at most
    one term per weight of total and q-degree within depth; past budget such
    terms it raises BudgetExceeded before anything is expanded."""
    if any(lam) and len({fw for fw, _q in total.terms}) * (depth + 1) > budget:
        raise BudgetExceeded(f"closed form exceeded budget {budget}")
    product = total * _column_series(len(lam), lam, depth, sign)
    return product.truncate(q_min=-depth) if sign < 0 else product.truncate(q_max=depth)


def gch_demazure_minus_e(
    datum: CartanDatum, lam: Vec, depth: int, budget: int = 500_000
) -> GradedCharacter:
    """Closed form for the minus Demazure character, truncated to q >= -depth."""
    return _times_column_series(qls_degree_sum(datum, lam), lam, depth, -1, budget)


def gch_demazure_plus_w0(
    datum: CartanDatum, lam: Vec, depth: int, budget: int = 500_000
) -> GradedCharacter:
    """Closed form for the plus Demazure character, truncated to q <= depth."""
    return _times_column_series(macdonald_t0(datum, lam), lam, depth, +1, budget)


def brute_force_gch_minus_e(
    datum: CartanDatum, lam: Vec, depth: int, budget: int = 500_000
) -> GradedCharacter:
    """Independent route: count x^wt q^delta over the paths of the truncated
    enumeration, whose weights its walk carries as (key, delta), and decode each
    distinct key once by `SiLSCrystal.unpack`; no path is built or sorted."""
    sils = _qls(datum, tuple(lam)).sils
    walk = sils._demazure_walk(sils.unit, depth, budget)
    counts = Counter((key, delta) for _chain, _cuts, key, delta in walk)
    fws = {key: sils.unpack(key) for key in {key for key, _delta in counts}}
    return GradedCharacter({(fws[key], delta): c for (key, delta), c in counts.items()})


# -- quotient characters -----------------------------------------------------------


def _checked_crystal(datum: CartanDatum, lam: Vec, w: FiniteWeylElt) -> QLSCrystal:
    crystal = _qls(datum, tuple(lam))
    if not crystal.sils.quotient.is_min_rep(w):
        raise ValueError(f"{w!r} is not a minimal coset representative for J")
    return crystal


def _interval_sum(crystal: QLSCrystal, mu: Vec) -> Counter:
    """Sum `final_sums` over v >= w, for the w in W^J with w lambda = mu: over the up-set
    `ParabolicQuotient.bruhat_above`, kept per mu in the crystal's `interval_sums`."""
    total = crystal.interval_sums.get(mu)
    if total is None:
        sums, total = crystal.final_sums, Counter()
        for nu in crystal.sils.quotient.bruhat_above(mu):
            total.update(sums[nu])
        crystal.interval_sums[mu] = total
    return total


def gch_quotient_minus(datum: CartanDatum, lam: Vec, w: FiniteWeylElt) -> GradedCharacter:
    """Sum over paths whose distinguished final direction dominates w."""
    return GradedCharacter(_interval_sum(_checked_crystal(datum, lam, w), w.act_fw(lam)))


def gch_quotient_plus(datum: CartanDatum, lam: Vec, w: FiniteWeylElt) -> GradedCharacter:
    """Sum over paths whose distinguished initial direction is below w: the sigma-dual shape's
    minus character at floor(w w0), the representative at -w lambda, with x and q inverted."""
    total = _interval_sum(_checked_crystal(datum, lam, w).dual, vec_neg(w.act_fw(lam)))
    return GradedCharacter({(vec_neg(fw), -q): c for (fw, q), c in total.items()})


# -- Weyl character oracle -----------------------------------------------------------


def weyl_character(datum: CartanDatum, lam: Vec) -> GradedCharacter:
    """chi_lambda by Demazure's character formula, pi_{w0} e^lambda.

    pi_i(e^mu) = (e^mu - e^(r_i mu - alpha_i)) / (1 - e^(-alpha_i)) sums one
    alpha_i-string: for n = <alpha_i^vee, mu> it is e^mu + ... + e^(r_i mu)
    if n >= 0, 0 if n = -1, and -(e^(mu + alpha_i) + ... + e^(r_i mu - alpha_i))
    if n <= -2.  The operators run along a reduced word of w0.
    """
    poly = {tuple(lam): 1}
    for i in longest_element(datum).reduced_word():
        alpha = datum.simple_fws[i - 1]
        out: dict[Vec, int] = {}
        for mu, c in poly.items():
            if (n := mu[i - 1]) == -1:
                continue
            # the string's |n + 1| terms, down from mu or up from mu + alpha_i, one add a step
            step, key, sign = (operator.sub, mu, c) if n >= 0 else (operator.add, vec_add(mu, alpha), -c)
            out[key] = out.get(key, 0) + sign
            for _ in range(abs(n + 1) - 1):
                key = tuple(map(step, key, alpha))
                out[key] = out.get(key, 0) + sign
        poly = {mu: c for mu, c in out.items() if c}
    return GradedCharacter({(mu, 0): c for mu, c in poly.items()})


def minus_quotient_reps(datum: CartanDatum, lam: Vec) -> tuple[FiniteWeylElt, ...]:
    """All minimal coset representatives for the stabilizer of lambda, read off the orbit
    search `ParabolicQuotient.orbit`; sorted by (length, sort_key), lengths as it recorded them."""
    quotient = _qls(datum, tuple(lam)).sils.quotient
    by_length = sorted(quotient.orbit.items(), key=lambda p: (quotient._lengths[p[0]], p[1].sort_key))
    return tuple(w for _nu, w in by_length)


def floor_w0(datum: CartanDatum, lam: Vec) -> FiniteWeylElt:
    """The minimal representative of the longest element's coset."""
    return _qls(datum, tuple(lam)).sils.quotient.min_rep(longest_element(datum))
