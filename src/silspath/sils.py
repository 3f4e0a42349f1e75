"""Semi-infinite LS path crystals: validity, root operators, enumeration.

A direction is a Peterson representative x = w z_xi t_xi, held as its integer coset state
(w lambda, xi off J, p = <xi, lambda>) of `silspath.peterson`; `ParabolicQuotient.state_rep`
rebuilds x only for output.  A path is a chain of states, strictly decreasing in the
semi-infinite order, together with rational cut points; consecutive directions must be
connected inside the level-`a` subgraph of the semi-infinite Bruhat graph, where `a` is the
cut between them.  Every cut of a path of shape lambda lies on the quotient's `grid`, whose
cuts are integer ticks over N, the lcm of the positive pairings <gamma^vee, lambda>.  A
path stores its cuts as integer ticks over its least denominator, which divides N, and the
kernels below do integer arithmetic on them; `Fraction` appears only at the boundary (`cuts`,
printing, the level argument of the semi-infinite order).

Slopes and weights come off the states alone: x lambda = w lambda - p delta, so the slope of
node j is `CartanDatum.acoroot_pairing(j, w lambda)`.  The root operators are
Littelmann's path operators, written once as the kernel `root_splice`: it reads the height
function of node j off the slopes of the segments, picks the interval [t0, t1] (the only step
that depends on e versus f), reflects the directions inside it and merges equal neighbours with
`merge_segments`.  The semi-infinite operators pass the state form of x -> r_j x
(`ParabolicQuotient.reflect`) as the reflection; the quantum LS operators in `silspath.qls` run
the same kernel on projected paths, whose directions are orbit points, with its point part
`CartanDatum.reflect`, and `QLSCrystal.cl` uses the same merge.

The Demazure enumeration walks steps: the states above one within the remaining degree are the
steps `ParabolicQuotient.si_above` finds from its orbit point with that slack, kept per walk and
(point, d, slack) and so shared by every translate: the one reach search, which the semi-infinite
order reads too.  A chain holds its root state, then those steps, and the walk adds up only p;
`enumerate_demazure` adds one step per path to the states of its parent, and sorts the output,
not the walk, by the representatives `state_rep` rebuilds once per state.  A node takes children
only at the levels where its top has a cover (`ParabolicQuotient.qb_row` of its orbit point is
not empty, listed per point and walk); most rows at d >= 2 are empty.  The walk carries weights
as integer keys, `SiLSCrystal.pack` of a point nu being sum nu_i 2^(b i) in balanced b-bit
fields: |nu_i| = |<w^-1 alpha_i^vee, lambda>| is at most P = max(`pairing_values()`), which
sizes b = `SiLSCrystal.width`, and so is a weight's.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .cartan import CartanDatum, LevelZeroWeight, Vec
from .weyl import BudgetExceeded
from .peterson import DEFAULT_BUDGET, ParabolicQuotient, State, add_step


class CutPath:
    """Directions on [0, 1] split at cut u = ticks[u] / den, with den least.

    `CutPath(directions, cuts)` takes Fraction cuts; `from_ticks` takes
    integer ticks over any denominator and reduces them.
    """

    __slots__ = ("directions", "ticks", "den")
    _label = ""

    def __init__(self, directions: tuple, cuts: tuple[Fraction, ...]):
        den = math.lcm(*(Fraction(a).denominator for a in cuts))
        self.directions, self.den = tuple(directions), den
        self.ticks = tuple(int(a * den) for a in cuts)

    @classmethod
    def from_ticks(cls, directions: tuple, ticks: tuple[int, ...], den: int):
        g = math.gcd(den, *ticks)
        path = cls.__new__(cls)
        path.directions, path.den = directions, den // g
        path.ticks = ticks if g == 1 else tuple(t // g for t in ticks)
        return path

    @property
    def cuts(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(t, self.den) for t in self.ticks)

    def ticks_over(self, n: int) -> tuple[int, ...]:
        """The cuts times n, which must be a multiple of `den`."""
        k, rem = divmod(n, self.den)
        assert rem == 0, f"cut denominator {self.den} does not divide {n}"
        return self.ticks if k == 1 else tuple(t * k for t in self.ticks)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and (
            (self.den, self.ticks, self.directions) == (other.den, other.ticks, other.directions)
        )

    def __hash__(self) -> int:
        return hash((self.directions, self.ticks, self.den))

    def __repr__(self) -> str:
        dirs = ",".join(repr(x) for x in self.directions)
        cuts = ",".join(str(a) for a in self.cuts)
        return f"{self._label}({dirs}; {cuts})"


class SiLSPath(CutPath):
    __slots__ = ()
    _label = "Path"

    @property
    def iota(self) -> State:
        return self.directions[0]

    @property
    def kappa(self) -> State:
        return self.directions[-1]


def heights(slopes: list[int], ticks: tuple[int, ...]) -> list[int]:
    """The height function at each cut, times the cuts' denominator."""
    h = [0]
    for u, slope in enumerate(slopes):
        h.append(h[-1] + (ticks[u + 1] - ticks[u]) * slope)
    return h


def merge_segments(directions: tuple, ticks: tuple, den: int) -> tuple[tuple, tuple]:
    """Drop empty segments and merge adjacent equal directions."""
    dirs: list = []
    out = [ticks[0]]
    for x, left, right in zip(directions, ticks, ticks[1:]):
        if left == right:
            continue
        if dirs and dirs[-1] == x:
            out[-1] = right
            continue
        dirs.append(x)
        out.append(right)
    assert out[0] == 0 and out[-1] == den
    return tuple(dirs), tuple(out)


def root_splice(
    directions: tuple, ticks: tuple, n: int, slopes: list[int], tag: str, reflect
) -> tuple[tuple, tuple] | None:
    """Littelmann's root operator on a path given by its segment slopes.

    The cuts come as ticks over n, a multiple of every cut's denominator in
    the result too, so heights are integers in units of 1/n.  With m the
    minimum of the height function h, the operator reflects the directions
    on [t0, t1] by `reflect`: for "f", t0 is the last time h = m and t1 the
    first later time h = m + 1; for "e", t1 is the first time h = m and t0
    the last earlier time h = m + 1.  Segments lo..hi contain the interval;
    they are split at t0 and t1 and the result is merged.  The time at
    h = m + 1 lies where h crosses from one side of m + 1 to the other, so
    the slope divided by there is nonzero.  Returns None when the operator
    vanishes.
    """
    h = heights(slopes, ticks)
    m = min(h)
    if m == (0 if tag == "e" else h[-1]):
        return None
    assert m % n == 0
    s, m1 = len(directions), m + n
    if tag == "f":
        lo = next(u for u in range(s, -1, -1) if h[u] == m)
        hi = cross = next(u for u in range(lo, s) if h[u + 1] >= m1)
    else:
        b = next(u for u in range(s + 1) if h[u] == m)
        lo, hi = next(u for u in range(b - 1, -1, -1) if h[u] >= m1), b - 1
        cross = lo
    step, rem = divmod(m1 - h[cross], slopes[cross])
    assert rem == 0, "the crossing time is off the grid"
    t = ticks[cross] + step
    t0, t1 = (ticks[lo], t) if tag == "f" else (t, ticks[b])
    assert t0 < t1
    return merge_segments(
        directions[: lo + 1]
        + tuple(map(reflect, directions[lo : hi + 1]))
        + directions[hi:],
        ticks[: lo + 1] + (t0,) + ticks[lo + 1 : hi + 1] + (t1,) + ticks[hi + 1 :],
        n,
    )


class SiLSCrystal:
    """All shape-lambda machinery for one Cartan datum and dominant weight."""

    def __init__(self, datum: CartanDatum, lam: Vec):
        self.datum = datum
        self.lam = tuple(lam)
        self.quotient = ParabolicQuotient.for_weight(datum, self.lam)
        # N, over which every cut of a path of this shape is an integer, and the grid cuts in grid
        # order as (ticks over N, denominator), the only part of a cut's level the order reads
        self.n, self.levels = self.quotient.grid
        self.unit = (self.lam, (0,) * datum.rank, 0)  # the state of e
        self.width = max(self.quotient.pairing_values(), default=0).bit_length() + 1

    # -- basic paths ----------------------------------------------------------

    def unit_path(self) -> SiLSPath:
        return SiLSPath.from_ticks((self.unit,), (0, 1), 1)

    def invalid_reason(self, eta: SiLSPath) -> str | None:
        if not eta.directions or len(eta.ticks) != len(eta.directions) + 1:
            return "mismatched direction/cut lengths"
        if eta.ticks[0] != 0 or eta.ticks[-1] != eta.den:
            return "cuts must start at 0 and end at 1"
        if any(b <= a for a, b in zip(eta.ticks, eta.ticks[1:])):
            return "cuts must strictly increase"
        for z in eta.directions:
            if not self.quotient.is_state(z):
                return f"direction {z!r} is not a coset state"
        for u, cut in enumerate(eta.cuts[1:-1]):
            lower, upper = eta.directions[u + 1], eta.directions[u]
            if lower == upper:
                return f"adjacent equal directions at segment {u + 1}"
            if not self.quotient.si_leq(lower, upper, cut):
                return (
                    f"no directed path from {lower!r} to {upper!r} "
                    f"at level {cut}"
                )
        return None

    def validate(self, eta: SiLSPath) -> bool:
        return self.invalid_reason(eta) is None

    def weight(self, eta: SiLSPath) -> LevelZeroWeight:
        total = [0] * (self.datum.rank + 1)  # fw coordinates, then delta
        for (nu, _xi, p), left, right in zip(eta.directions, eta.ticks, eta.ticks[1:]):
            total = [c + (right - left) * v for c, v in zip(total, nu + (-p,))]
        den = eta.den  # a divisor of N
        assert all(c % den == 0 for c in total)
        return LevelZeroWeight(tuple(c // den for c in total[:-1]), total[-1] // den)

    def pack(self, nu: Vec) -> int:
        """The key sum nu_i 2^(b i) of fundamental-weight coordinates, b = `width`."""
        return sum(v << self.width * i for i, v in enumerate(nu))

    def unpack(self, key: int) -> Vec:
        """The coordinates of a key, fields in [-h, h) for h = 2^(b-1): each field plus h is a b-bit digit."""
        b, h, rank = self.width, 1 << (self.width - 1), self.datum.rank
        key += self.pack((h,) * rank)
        return tuple(((key >> b * i) & ((1 << b) - 1)) - h for i in range(rank))

    # -- height functions and root operators -----------------------------------

    def _slopes(self, eta: SiLSPath, j: int) -> list[int]:
        """<alpha_j^vee, nu> per direction over nu: the slopes of node j along eta."""
        pair = self.datum.acoroot_pairing
        return [pair(j, z[0]) for z in eta.directions]

    def string_eps(self, eta: SiLSPath, j: int) -> int:
        m = min(heights(self._slopes(eta, j), eta.ticks))
        assert m % eta.den == 0
        return -m // eta.den

    def string_phi(self, eta: SiLSPath, j: int) -> int:
        h = heights(self._slopes(eta, j), eta.ticks)
        rise, rem = divmod(h[-1] - min(h), eta.den)
        assert rem == 0
        return rise

    def _root_op(self, eta: SiLSPath, j: int, tag: str) -> SiLSPath | None:
        n, reflect = self.n, functools.partial(self.quotient.reflect, j)
        out = root_splice(eta.directions, eta.ticks_over(n), n, self._slopes(eta, j), tag, reflect)
        return None if out is None else SiLSPath.from_ticks(*out, n)

    def root_e(self, eta: SiLSPath, j: int) -> SiLSPath | None:
        return self._root_op(eta, j, "e")

    def root_f(self, eta: SiLSPath, j: int) -> SiLSPath | None:
        return self._root_op(eta, j, "f")

    def apply(self, eta: SiLSPath, ops: tuple[tuple[str, int], ...]) -> SiLSPath:
        """Replay a monomial of root operators given as (tag, node) pairs."""
        for tag, j in ops:
            nxt = self.root_e(eta, j) if tag == "e" else self.root_f(eta, j)
            assert nxt is not None, f"operator {tag}_{j} vanished during replay"
            eta = nxt
        return eta

    def f_max(self, eta: SiLSPath, j: int) -> tuple[SiLSPath, int]:
        return self._string_end(self.root_f, eta, j)

    def e_max(self, eta: SiLSPath, j: int) -> tuple[SiLSPath, int]:
        return self._string_end(self.root_e, eta, j)

    @staticmethod
    def _string_end(op, eta: SiLSPath, j: int) -> tuple[SiLSPath, int]:
        count = 0
        while (nxt := op(eta, j)) is not None:
            eta = nxt
            count += 1
        return eta, count

    # -- Weyl group action ------------------------------------------------------

    def weyl_action(self, word: tuple[int, ...], eta: SiLSPath) -> SiLSPath:
        """S_x eta = S_{j_1} ... S_{j_k} eta for a reduced word j_1 ... j_k of x in W_af.

        On a translation-type path every node has one slope along the path, so
        each S_j reflects every direction, and S_x eta replaces each direction y
        by Pi^J(x y)."""
        for j in reversed(word):
            eta = self._s_simple(j, eta)
        return eta

    def _s_simple(self, j: int, eta: SiLSPath) -> SiLSPath:
        n = self.datum.acoroot_pairing(j, self.weight(eta).fw)
        op = self.root_f if n >= 0 else self.root_e
        for _ in range(abs(n)):
            eta = op(eta, j)
            assert eta is not None
        return eta

    # -- duality ---------------------------------------------------------------

    def dual_path(self, eta: SiLSPath) -> SiLSPath:
        dirs = tuple(map(self.quotient.vee, reversed(eta.directions)))
        ticks = tuple(eta.den - a for a in reversed(eta.ticks))
        return SiLSPath.from_ticks(dirs, ticks, eta.den)

    # -- Demazure subsets --------------------------------------------------------

    def in_demazure_final(self, eta: SiLSPath, x: State) -> bool:
        """kappa(eta) >= x in the semi-infinite order."""
        return self.quotient.si_leq(x, eta.kappa)

    def in_demazure_initial(self, eta: SiLSPath, x: State) -> bool:
        """x >= iota(eta) in the semi-infinite order."""
        return self.quotient.si_leq(eta.iota, x)

    # -- truncated enumeration -----------------------------------------------------

    def sort_key(self):
        """The output order, a key on paths: by length, cuts, then (xi, w) of each direction's
        representative, which `state_rep` rebuilds once per state for the key's lifetime."""
        n, rep = self.n, functools.cache(self.quotient.state_rep)
        return lambda eta: (
            len(eta.directions), eta.ticks_over(n), tuple((x.xi, x.w.sort_key) for x in map(rep, eta.directions))
        )

    def enumerate_demazure(self, x: State, depth: int, budget: int = DEFAULT_BUDGET) -> tuple[SiLSPath, ...]:
        """All paths with kappa >= x whose weight delta is >= -depth.  The walk is depth first, so a
        chain less its top step is a prefix of the chain before it, whose states are kept: each path
        adds one state, interned so that the paths share one tuple per state."""
        n, states, interned, paths = self.n, [], {}, []
        for chain, cuts_desc, _key, _delta in self._demazure_walk(x, depth, budget):
            del states[len(chain) - 1 :]
            z = add_step(states[-1], chain[-1]) if states else chain[0]
            states.append(interned.setdefault(z, z))
            paths.append(SiLSPath.from_ticks(tuple(reversed(states)), (0,) + tuple(reversed(cuts_desc)) + (n,), n))
        return tuple(sorted(paths, key=self.sort_key()))

    def _demazure_walk(self, x: State, depth: int, budget: int):
        """Yield (chain, cuts_desc, key, delta) for every path of `enumerate_demazure`: its
        directions from kappa up (kappa's state, then each one's step from the one below), its inner
        cuts from the right in ticks over N, and its weight, carried along the walk: delta, and the
        key sum of ticks times each direction's `pack`, / N.  Children come only from the levels
        below the node's cut where the top has a cover, and only after the node is yielded."""
        assert depth >= 0
        n, levels, limit = self.n, self.levels, depth * self.n  # sums, cuts: ticks over N
        upward = functools.cache(functools.partial(self.quotient.si_above, budget=budget))
        @functools.cache
        def point(nu):
            """(`pack(nu)`, live), live[k] the level indices below k, highest first, where nu's row is not empty."""
            below = [()]
            for i, (_a, d) in enumerate(levels):
                below.append((i,) + below[-1] if self.quotient.qb_row(nu, d, 1) else below[-1])
            return self.pack(nu), below

        # every direction pairs at least as high as kappa, so p(kappa) <= depth
        count, (nu_x, _xi, p_x) = 0, x
        roots = tuple(add_step(x, y) for y in upward(nu_x, 1, depth - p_x))
        # depth-first over (chain, cuts_desc, k, settled, settled_key, p_top), k the index of the right
        # cut in levels (len(levels) for 1); a stack, so no recursive closure keeps `self` alive
        stack = [((z,), (), len(levels), 0, 0, z[2]) for z in reversed((x,) + roots)]
        while stack:
            chain, cuts_desc, k, settled, settled_key, p_top = stack.pop()
            fw_top = chain[-1][0]
            right = cuts_desc[-1] if cuts_desc else n
            # closing now puts the top direction on [0, right]; a cut at a caps the directions above
            # at p_top + (limit - total) / a, and they pair as high as the top, so no child closes either
            if (total := settled + right * p_top) > limit:
                continue
            if (count := count + 1) > budget:
                raise BudgetExceeded("path enumeration exceeded budget")
            key_top, live = point(fw_top)
            yield chain, cuts_desc, (settled_key + right * key_top) // n, -total // n
            # the children cut at the live levels below levels[k], pushed from the highest cut and
            # each search's last step so they pop from the lowest cut, in search order
            for i in live[k]:  # live[0] is empty
                a, d = levels[i]
                new_settled = settled + (right - a) * p_top
                if ys := upward(fw_top, d, (limit - new_settled) // a - p_top):
                    new_key, cuts = settled_key + (right - a) * key_top, cuts_desc + (a,)
                    stack.extend([(chain + (y,), cuts, i, new_settled, new_key, p_top + y[2]) for y in reversed(ys)])
