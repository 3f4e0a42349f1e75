"""Exact root-system tables for the nine untwisted affine families.

A :class:`CartanDatum` holds the finite Cartan matrix in the convention
``cartan[i][j] = <alpha_i^vee, alpha_j>`` together with every derived table
the rest of the library reads: positive roots (generated by reflection
closure, not hard-coded), the highest root and its coroot (the marks and
comarks of the affinization at the distinguished node 0), the symmetrizer,
the diagram involution sigma = -w_0 on the nodes (read off the reflection
rule `CartanDatum.reflect`, which lifts each -varpi_i to its dominant point
varpi_sigma(i)), and (built on first use) an indexed table of all roots and
their coroots on which Weyl elements act as permutations and which decides
root membership.

Coordinate conventions used throughout the package:

* roots are integer tuples over the simple-root basis ``alpha_1..alpha_n``;
* coweights are integer tuples over the simple-coroot basis;
* weights are integer tuples over the level-zero fundamental weights
  ``varpi_1..varpi_n``, plus an integer multiple of the null root delta;
* finite Dynkin nodes are labelled 1..n, the affine node is 0.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_RANK_RANGE = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(2, 9),
    "D": range(4, 9),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}


class AffineRealRoot(NamedTuple):
    """A real affine root ``alpha + n*delta`` with nonzero finite part."""

    finite: Vec
    n: int


class LevelZeroWeight(NamedTuple):
    """An element of the level-zero weight lattice ``P + Z*delta``."""

    fw: Vec
    delta: int

    def __add__(self, other: "LevelZeroWeight") -> "LevelZeroWeight":
        return LevelZeroWeight(
            tuple(a + b for a, b in zip(self.fw, other.fw)),
            self.delta + other.delta,
        )

    def __neg__(self) -> "LevelZeroWeight":
        return LevelZeroWeight(tuple(-a for a in self.fw), -self.delta)


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(map(operator.add, u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(map(operator.sub, u, v))


def vec_neg(u: Vec) -> Vec:
    return tuple(map(operator.neg, u))


def _cartan_matrix(type_label: str, rank: int) -> Mat:
    """Finite Cartan matrix, rows indexed by coroots (Bourbaki numbering)."""
    n = rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji

    if type_label == "A":
        for i in range(1, n):
            bond(i, i + 1)
    elif type_label == "B":
        # alpha_n is the short root
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 1, n, -1, -2)
    elif type_label == "C":
        # alpha_n is the long root
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 1, n, -2, -1)
    elif type_label == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 2, n)
    elif type_label == "E":
        bond(1, 3)
        bond(2, 4)
        for i in range(3, n):
            bond(i, i + 1)
    elif type_label == "F":
        bond(1, 2)
        bond(2, 3, -1, -2)
        bond(3, 4)
    elif type_label == "G":
        # alpha_1 short, alpha_2 long
        bond(1, 2, -3, -1)
    else:  # pragma: no cover - guarded by build()
        raise ValueError(type_label)
    return tuple(tuple(row) for row in a)


def _symmetrizer(cartan: Mat) -> Vec:
    """Positive integers d with d_i * a_ij = d_j * a_ji, normalized to min 1."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                stack.append(j)
    assert all(x is not None for x in d), "Cartan matrix must be connected"
    scale = min(x for x in d)  # type: ignore[type-var]
    out = tuple(x / scale for x in d)  # type: ignore[operator]
    assert all(x.denominator == 1 and x > 0 for x in out)
    return tuple(int(x) for x in out)


def _positive_roots(cartan: Mat) -> tuple[Vec, ...]:
    """All roots via reflection closure of the simple roots; positives only.

    Each root carries its fundamental-weight coordinates, column i of the
    Cartan matrix for alpha_i: v = r_i u lowers u_i by c = fw(u)_i and has
    fw(v) = fw(u) - c fw(alpha_i), O(rank) per step, and c = 0 leaves v = u."""
    n = len(cartan)
    cols = tuple(zip(*cartan))  # cols[i] = fw(alpha_i)
    seen = {tuple(1 if k == i else 0 for k in range(n)): cols[i] for i in range(n)}
    frontier = list(seen.items())
    while frontier:
        u, fw = frontier.pop()
        for i, c in enumerate(fw):
            if c and (v := u[:i] + (u[i] - c,) + u[i + 1 :]) not in seen:
                seen[v] = fv = tuple(a - c * b for a, b in zip(fw, cols[i]))
                frontier.append((v, fv))
    pos = [u for u in seen if all(c >= 0 for c in u)]
    pos.sort(key=lambda u: (sum(u), u))
    assert 2 * len(pos) == len(seen)
    return tuple(pos)


class RootTable(NamedTuple):
    """All 2N roots, indexed: the positive roots in ``pos_roots`` order, then
    their negatives in the same order, so root ``k + N`` is ``-root k``."""

    roots: tuple[Vec, ...]
    index: dict[Vec, int]
    coroots: tuple[Vec, ...]  # coweight coordinates of each root's coroot
    simple: tuple[int, ...]  # simple[i - 1] is the index of alpha_i
    fws: tuple[Vec, ...]  # fundamental-weight coordinates of each root


@dataclass(frozen=True, eq=False)
class CartanDatum:
    """The root data of one (type, rank).

    :func:`build` returns the only datum per (type, rank), so data compare
    and hash by identity: the Weyl elements and caches keyed by a datum never
    look past its address.
    """

    type_label: str
    rank: int
    cartan: Mat
    sym: Vec
    pos_roots: tuple[Vec, ...]
    theta: Vec
    theta_coroot: Vec

    def __repr__(self) -> str:
        return f"CartanDatum({self.type_label}{self.rank})"

    @functools.cached_property
    def sigma(self) -> Vec:
        """sigma[i-1] is the node label paired with node i by -w_0.  From -varpi_i, `reflect` at the
        first minimal coordinate while one is negative ends at the dominant point of its orbit,
        -w_0 varpi_i = varpi_sigma(i)."""
        out = []
        for i in range(self.rank):
            nu = tuple(-int(k == i) for k in range(self.rank))
            while (m := min(nu)) < 0:
                nu = self.reflect(nu.index(m) + 1, nu)
            out.append(nu.index(1) + 1)
        return tuple(out)

    @functools.cached_property
    def root_table(self) -> RootTable:
        """Built on first use by the Weyl group arithmetic and the root predicates, not by ``build``.

        Pairings are read off the fundamental-weight column: fw(u)_i =
        <alpha_i^vee, u> is computed on the N positive roots and negated on
        the rest, and each coroot is `_coroot` of that column."""
        pos, both = self.pos_roots, lambda vs: vs + tuple(map(vec_neg, vs))
        roots = both(pos)
        index = {u: k for k, u in enumerate(roots)}
        simple = tuple(index[self.simple_root(i)] for i in range(1, self.rank + 1))
        fws = tuple(map(self.root_to_fw, pos))
        coroots = tuple(_coroot(self.sym, u, fw) for u, fw in zip(pos, fws))
        return RootTable(roots, index, both(coroots), simple, both(fws))

    @property
    def rho(self) -> Vec:
        """rho in fundamental-weight coordinates: the all-ones vector."""
        return (1,) * self.rank

    @functools.cached_property
    def simple_fws(self) -> tuple[Vec, ...]:
        """fw(alpha_j) at index j in I_af: the Cartan matrix's column j for j in I, and -fw(theta) at
        j = 0, as alpha_0 = delta - theta and delta has none; `reflect` moves points along them."""
        return (vec_neg(self.root_to_fw(self.theta)),) + tuple(zip(*self.cartan))

    def simple_root(self, i: int) -> Vec:
        """Root coordinates of alpha_i for a finite node label i in 1..n."""
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    def is_root(self, u: Vec) -> bool:
        return u in self.root_table.index

    def is_positive_root(self, u: Vec) -> bool:
        """A root-table lookup: the positive roots come first, at indices below N."""
        n_pos = len(self.pos_roots)
        return self.root_table.index.get(u, n_pos) < n_pos

    def pair_coweight_root(self, c: Vec, u: Vec) -> int:
        """<xi, alpha> for a coweight xi and an element alpha of Q."""
        return sum(
            ci * sum(a * b for a, b in zip(row, u)) for ci, row in zip(c, self.cartan) if ci
        )

    def pair_coweight_weight(self, c: Vec, mu: LevelZeroWeight) -> int:
        """<xi, mu>; the delta part of mu pairs to zero with Q^vee."""
        return sum(a * b for a, b in zip(c, mu.fw))

    def coroot(self, u: Vec) -> Vec:
        """Coweight coordinates of the dual root alpha^vee (a root-table lookup)."""
        table = self.root_table
        return table.coroots[table.index[u]]

    def root_to_fw(self, u: Vec) -> Vec:
        """Fundamental-weight coordinates of an element of Q."""
        return tuple(sum(map(operator.mul, row, u)) for row in self.cartan)

    def is_positive_affine(self, beta: AffineRealRoot) -> bool:
        if beta.n != 0:
            return beta.n > 0
        return self.is_positive_root(beta.finite)

    def affine_simple_root(self, j: int) -> AffineRealRoot:
        """alpha_j for j in I_af; node 0 gives -theta + delta."""
        if j == 0:
            return AffineRealRoot(vec_neg(self.theta), 1)
        return AffineRealRoot(self.simple_root(j), 0)

    def acoroot_pairing(self, j: int, nu: Vec) -> int:
        """<alpha_j^vee, nu> for j in I_af and a level-zero weight nu in fundamental-weight
        coordinates, its delta part dropped, since delta pairs to 0: nu_j for j in I, and
        -<theta^vee, nu> at j = 0."""
        return nu[j - 1] if j else -sum(map(operator.mul, self.theta_coroot, nu))

    def reflect(self, j: int, nu: Vec) -> Vec:
        """r_j nu = nu - <alpha_j^vee, nu> fw(alpha_j) for j in I_af on fundamental-weight coordinates
        (`simple_fws`); at j = 0 it is r_theta nu = nu - <theta^vee, nu> theta.  A finite node reads
        nu_j inline, as the orbit walks and root operators call this per step; only j = 0 pairs
        through `acoroot_pairing`."""
        n = nu[j - 1] if j else self.acoroot_pairing(0, nu)
        return tuple(m - n * a for m, a in zip(nu, self.simple_fws[j])) if n else nu

    def orbit_steps(self, kappa: Vec):
        """Yield (mu, i, r_i mu) once per point r_i mu != kappa of the orbit W kappa of a dominant
        kappa, depth first: from each point mu taken off the stack, a step to r_i mu for each i in I,
        in order, with mu_i > 0 whose image is new.  For w in W^J at mu = w kappa, r_i w is then one
        longer and in W^J, so every point is reached and W is never built."""
        seen, frontier = {kappa}, [kappa]
        while frontier:
            mu = frontier.pop()
            for i, n in enumerate(mu, 1):
                if n > 0 and (nu := self.reflect(i, mu)) not in seen:
                    seen.add(nu)
                    frontier.append(nu)
                    yield mu, i, nu

    def sigma_dual(self, lam: Vec) -> Vec:
        """-w_0(lambda) in fundamental-weight coordinates: lambda permuted by sigma."""
        return tuple(lam[s - 1] for s in self.sigma)


def _coroot(sym: Vec, u: Vec, fw: Vec) -> Vec:
    """Coweight coordinates of alpha^vee = 2 alpha / (alpha, alpha), exactly:
    coordinate j is 2 u_j d_j / (alpha, alpha).  The norm is read off the
    fundamental-weight column fw = fw(alpha) in O(rank):
    (alpha, alpha) = sum_i u_i d_i fw_i, since fw_i = sum_j a_ij u_j."""
    ud = tuple(map(operator.mul, u, sym))
    norm = sum(map(operator.mul, ud, fw))
    assert not any(2 * x % norm for x in ud), u
    return tuple([2 * x // norm for x in ud])


@functools.lru_cache(maxsize=None)
def build(type_label: str, rank: int, /) -> CartanDatum:
    """The full datum for one untwisted family member, built once per (type, rank).

    The arguments are positional-only, so the cache has one key, and so one
    datum, per (type, rank)."""
    if type_label not in _RANK_RANGE or rank not in _RANK_RANGE[type_label]:
        raise ValueError(f"unsupported type/rank combination {type_label}{rank}")
    cartan = _cartan_matrix(type_label, rank)
    sym = _symmetrizer(cartan)
    pos = _positive_roots(cartan)
    theta = pos[-1]
    assert all(all(t >= u for t, u in zip(theta, v)) for v in pos)
    datum = CartanDatum(
        type_label=type_label,
        rank=rank,
        cartan=cartan,
        sym=sym,
        pos_roots=pos,
        theta=theta,
        theta_coroot=_coroot(sym, theta, tuple(sum(map(operator.mul, row, theta)) for row in cartan)),
    )
    _check_affinization(datum)
    return datum


def _check_affinization(datum: CartanDatum) -> None:
    """The (n+1) x (n+1) affine matrix must kill the mark vector, and sigma must be an involution
    (which computes it here, once per datum)."""
    sigma = datum.sigma
    assert all(sigma[s - 1] == i for i, s in enumerate(sigma, 1))
    n = datum.rank
    marks_aff = (1,) + datum.theta
    # row 0: <alpha_0^vee, alpha_j> = 2*delta_{j0} - <theta^vee, alpha_j>
    row0 = [2] + [
        -datum.pair_coweight_root(datum.theta_coroot, datum.simple_root(j))
        for j in range(1, n + 1)
    ]
    rows = [tuple(row0)]
    for i in range(1, n + 1):
        ci = tuple(1 if k == i - 1 else 0 for k in range(n))
        ri = [-datum.pair_coweight_root(ci, datum.theta)]
        ri += [datum.cartan[i - 1][j - 1] for j in range(1, n + 1)]
        rows.append(tuple(ri))
    for row in rows:
        assert sum(a * m for a, m in zip(row, marks_aff)) == 0
