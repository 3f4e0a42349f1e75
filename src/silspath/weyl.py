"""Finite and affine Weyl group arithmetic as permutations of the root system.

A finite element is stored as the permutation it induces on the 2N roots
(indexed by the datum's :class:`~silspath.cartan.RootTable`: positive roots
first), so multiplication is index composition and the length counts positive
roots sent negative.  Actions on weights and coweights are read off the
coroots of the images of the simple roots.  An affine element is the pair
``w · t_xi``.

Equality compares the tuple and the datum, which is compared by identity,
since ``build`` makes one datum per (type, rank); affine equality tests ``xi``,
a tuple compare, before ``w``.  Hashes read only ``perm`` (and ``xi``), never
an address, so hash values and the iteration order of sets of elements are
the same in every process.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .cartan import (
    AffineRealRoot,
    CartanDatum,
    LevelZeroWeight,
    Vec,
    vec_add,
    vec_neg,
)


class BudgetExceeded(Exception):
    """An enumeration outgrew its configured node budget."""


def _combine(coeffs: Vec, vecs: list[Vec]) -> Vec:
    """sum_i coeffs[i] * vecs[i] for vectors of length len(coeffs)."""
    out = [0] * len(coeffs)
    for c, v in zip(coeffs, vecs):
        if c:
            for k, x in enumerate(v):
                out[k] += c * x
    return tuple(out)


@dataclass(frozen=True)
class FiniteWeylElt:
    """perm[k] is the index of w(root k) in ``datum.root_table``."""

    datum: CartanDatum
    perm: tuple[int, ...]

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        word = self.reduced_word()
        return "W[e]" if not word else "W[" + "".join(map(str, word)) + "]"

    def mul(self, other: "FiniteWeylElt") -> "FiniteWeylElt":
        # (self other)(root k) = self(root other.perm[k]); a root system has
        # at least two roots, so the itemgetter returns a tuple
        return FiniteWeylElt(self.datum, operator.itemgetter(*other.perm)(self.perm))

    def inverse(self) -> "FiniteWeylElt":
        inv = [0] * len(self.perm)
        for k, p in enumerate(self.perm):
            inv[p] = k
        return FiniteWeylElt(self.datum, tuple(inv))

    @property
    def is_identity(self) -> bool:
        return self.perm == finite_identity(self.datum).perm

    def _simple_images(self) -> tuple[int, ...]:
        """Indices of w(alpha_1), ..., w(alpha_n)."""
        return tuple(self.perm[s] for s in self.datum.root_table.simple)

    def _simple_preimages(self) -> tuple[int, ...]:
        """Indices of w^{-1}(alpha_1), ..., w^{-1}(alpha_n)."""
        return tuple(map(self.perm.index, self.datum.root_table.simple))

    def act_root(self, u: Vec) -> Vec:
        table = self.datum.root_table
        k = table.index.get(u)
        if k is not None:
            return table.roots[self.perm[k]]
        return _combine(u, [table.roots[p] for p in self._simple_images()])

    def act_fw(self, m: Vec) -> Vec:
        # <alpha_j^vee, w m> = <(w^{-1} alpha_j)^vee, m>
        coroots = self.datum.root_table.coroots
        return tuple(sum(map(operator.mul, coroots[p], m)) for p in self._simple_preimages())

    def act_coweight(self, c: Vec) -> Vec:
        # w(sum_i c_i alpha_i^vee) = sum_i c_i (w alpha_i)^vee
        coroots = self.datum.root_table.coroots
        return _combine(c, [coroots[p] for p in self._simple_images()])

    def inv_act_coweight(self, c: Vec) -> Vec:
        coroots = self.datum.root_table.coroots
        return _combine(c, [coroots[p] for p in self._simple_preimages()])

    @functools.cached_property
    def length(self) -> int:
        n_pos = len(self.datum.pos_roots)
        return sum(p >= n_pos for p in self.perm[:n_pos])

    @functools.cached_property
    def sort_key(self) -> tuple[Vec, ...]:
        """Root-coordinate action matrix (column i is w(alpha_i)): a fixed total order."""
        roots = self.datum.root_table.roots
        return tuple(zip(*(roots[p] for p in self._simple_images())))

    def reduced_word(self) -> tuple[int, ...]:
        """Node labels i_1..i_k with self = r_{i_1} ... r_{i_k}."""
        n_pos = len(self.datum.pos_roots)
        w = self
        rev: list[int] = []
        while not w.is_identity:
            i = next(i for i, p in enumerate(w._simple_images(), 1) if p >= n_pos)
            rev.append(i)
            w = w.mul(simple_reflection(self.datum, i))
        return tuple(reversed(rev))


@functools.lru_cache(maxsize=None)
def finite_identity(datum: CartanDatum) -> FiniteWeylElt:
    return FiniteWeylElt(datum, tuple(range(len(datum.root_table.roots))))


def _reflection_perm(datum: CartanDatum, images) -> tuple[int, ...]:
    """The permutation of the reflection that sends the N positive roots, in order, to images."""
    table, n_pos = datum.root_table, len(datum.pos_roots)
    perm = list(map(table.index.__getitem__, images))
    return tuple(perm + [(p + n_pos) % (2 * n_pos) for p in perm])  # r(-v) = -r(v), root k + N = -root k


@functools.lru_cache(maxsize=None)
def simple_reflection(datum: CartanDatum, i: int) -> FiniteWeylElt:
    """The finite simple reflection r_i, i in 1..n: r_i(v) = v - fw(v)_i alpha_i lowers
    coordinate i of v by the entry of its fundamental-weight column."""
    table, k = datum.root_table, i - 1
    images = (v[:k] + (v[k] - fw[k],) + v[k + 1 :] for v, fw in zip(datum.pos_roots, table.fws))
    return FiniteWeylElt(datum, _reflection_perm(datum, images))


def finite_from_word(datum: CartanDatum, word: tuple[int, ...] | list[int]) -> FiniteWeylElt:
    w = finite_identity(datum)
    for i in word:
        w = w.mul(simple_reflection(datum, i))
    return w


@functools.lru_cache(maxsize=None)
def finite_reflection(datum: CartanDatum, u: Vec) -> FiniteWeylElt:
    """The reflection r_alpha for a finite root alpha given in root coords: r_u(v) = v - <u^vee, v> u,
    <u^vee, v> = sum_i c_i fw(v)_i for u^vee = sum_i c_i alpha_i^vee."""
    assert datum.is_root(u)
    c, fws = datum.coroot(u), datum.root_table.fws
    pairs = (sum(map(operator.mul, c, fw)) for fw in fws)  # zip stops at the N positive roots
    images = (tuple(a - k * b for a, b in zip(v, u)) for v, k in zip(datum.pos_roots, pairs))
    return FiniteWeylElt(datum, _reflection_perm(datum, images))


@functools.lru_cache(maxsize=None)
def longest_element(datum: CartanDatum) -> FiniteWeylElt:
    """Longest element of W."""
    n_pos = len(datum.pos_roots)
    w = finite_identity(datum)
    while True:
        imgs = w._simple_images()
        i = next((i for i in range(1, datum.rank + 1) if imgs[i - 1] < n_pos), None)
        if i is None:
            return w
        w = w.mul(simple_reflection(datum, i))


@functools.lru_cache(maxsize=None)
def weyl_group(datum: CartanDatum, budget: int = 100_000) -> tuple[FiniteWeylElt, ...]:
    """All of W by closure under the simple reflections."""
    gens = [simple_reflection(datum, i) for i in range(1, datum.rank + 1)]
    seen = {finite_identity(datum)}
    frontier = list(seen)
    while frontier:
        w = frontier.pop()
        for g in gens:
            v = w.mul(g)
            if v not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded(f"|W| exceeds budget {budget}")
                seen.add(v)
                frontier.append(v)
    return tuple(sorted(seen, key=lambda w: (w.length, w.sort_key)))


def bruhat_leq(u: FiniteWeylElt, v: FiniteWeylElt) -> bool:
    """Ordinary Bruhat order, decided by the lifting property.

    For a descent s of v (here a right descent, vs < v; Bjorner-Brenti, Prop. 2.2.7,
    read through w -> w^{-1}): if us < u then u <= v iff us <= vs, otherwise u <= v iff
    u <= vs.  Descents are peeled off v until l(u) >= l(v), where u <= v iff u = v; no
    other element of W is visited, and nothing is memoised.
    """
    datum = u.datum
    n_pos = len(datum.pos_roots)
    simple = datum.root_table.simple
    up, vp, lu, lv = u.perm, v.perm, u.length, v.length
    while lu < lv:
        i = next(i for i, s in enumerate(simple) if vp[s] >= n_pos)
        r = operator.itemgetter(*simple_reflection(datum, i + 1).perm)
        vp, lv = r(vp), lv - 1
        if up[simple[i]] >= n_pos:
            up, lu = r(up), lu - 1
    return lu == lv and up == vp


@dataclass(frozen=True)
class AffineWeylElt:
    """The element w * t_xi of W_af = W x Q^vee."""

    w: FiniteWeylElt
    xi: Vec

    def __eq__(self, other: object) -> bool:
        return other.__class__ is AffineWeylElt and (self.xi, self.w) == (other.xi, other.w)

    def __hash__(self) -> int:
        return hash((self.w.perm, self.xi))

    def __repr__(self) -> str:
        return f"{self.w!r}t{list(self.xi)}"

    @property
    def datum(self) -> CartanDatum:
        return self.w.datum

    def mul(self, other: "AffineWeylElt") -> "AffineWeylElt":
        # (w1 t_a)(w2 t_b) = w1 w2 t_{w2^{-1} a + b}
        return AffineWeylElt(
            self.w.mul(other.w),
            vec_add(other.w.inv_act_coweight(self.xi), other.xi),
        )

    def inverse(self) -> "AffineWeylElt":
        return AffineWeylElt(self.w.inverse(), vec_neg(self.w.act_coweight(self.xi)))

    @property
    def is_identity(self) -> bool:
        return self.w.is_identity and not any(self.xi)

    def act_root(self, beta: AffineRealRoot) -> AffineRealRoot:
        n = beta.n - self.datum.pair_coweight_root(self.xi, beta.finite)
        return AffineRealRoot(self.w.act_root(beta.finite), n)

    def act_weight(self, mu: LevelZeroWeight) -> LevelZeroWeight:
        shift = self.datum.pair_coweight_weight(self.xi, mu)
        return LevelZeroWeight(self.w.act_fw(mu.fw), mu.delta - shift)

    @property
    def si_length(self) -> int:
        # <xi, rho> = sum of the coweight coordinates
        return self.w.length + 2 * sum(self.xi)

    def reduced_word(self) -> tuple[int, ...]:
        """Labels in I_af with self equal to the product of the r_j."""
        x = self
        datum = self.datum
        rev: list[int] = []
        while not x.is_identity:
            for j in range(datum.rank + 1):
                img = x.act_root(datum.affine_simple_root(j))
                if not datum.is_positive_affine(img):
                    rev.append(j)
                    x = x.mul(affine_simple(datum, j))
                    break
            else:  # pragma: no cover
                raise AssertionError("no descent found")
        return tuple(reversed(rev))


def affine_identity(datum: CartanDatum) -> AffineWeylElt:
    return AffineWeylElt(finite_identity(datum), (0,) * datum.rank)


def translation(datum: CartanDatum, xi: Vec) -> AffineWeylElt:
    return AffineWeylElt(finite_identity(datum), tuple(xi))


def from_finite(w: FiniteWeylElt) -> AffineWeylElt:
    return AffineWeylElt(w, (0,) * w.datum.rank)


@functools.lru_cache(maxsize=None)
def affine_reflection(datum: CartanDatum, beta: AffineRealRoot) -> AffineWeylElt:
    """r_beta = r_alpha t_{n alpha^vee} for beta = alpha + n delta."""
    r = finite_reflection(datum, beta.finite)
    c = datum.coroot(beta.finite)
    return AffineWeylElt(r, tuple(beta.n * x for x in c))


@functools.lru_cache(maxsize=None)
def affine_simple(datum: CartanDatum, j: int) -> AffineWeylElt:
    """r_j for j in I_af; r_0 is the reflection in -theta + delta."""
    return affine_reflection(datum, datum.affine_simple_root(j))
