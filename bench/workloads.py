"""Fixed case lists of the benchmark workloads, and how each op runs and is checked.

Every op is one public-API computation that a `silspath char ...` command
performs.  No two ops in one workload share a (type, lambda), so an op's cost
depends on the op order only through per-type tables.  Each case records why
it was chosen; the seed of a run changes only the order of the ops.
"""

from __future__ import annotations

import hashlib
import json
from typing import NamedTuple


class Case(NamedTuple):
    kind: str  # "macdonald", "grch1", "q0" or "quotient"
    type_label: str
    rank: int
    lam: tuple[int, ...]
    depth: int | None
    why: str

    @property
    def op_id(self) -> str:
        lam = ",".join(map(str, self.lam))
        tail = "" if self.depth is None else f":d{self.depth}"
        return f"{self.kind}:{self.type_label}{self.rank}:({lam}){tail}"


def _c(kind, type_label, rank, lam, depth, why):
    return Case(kind, type_label, rank, tuple(lam), depth, why)


WORKLOADS: dict[str, dict] = {
    "macdonald": {
        "why": (
            "macdonald_t0 on one weight per family A-G: the QLS table build and the "
            "distinguished-lift replay (eta_kappa -> apply -> root ops -> Weyl mul) do "
            "almost all the work; bruhat_leq, si_covers, weyl_group and the Laurent "
            "division are never called, so a gain there must read as no change here."
        ),
        "cases": [
            _c("macdonald", "B", 3, (1, 1, 0), None,
               "largest crystal of the list; the slowest op by far, so it sets max_op_s"),
            _c("macdonald", "A", 3, (1, 1, 1), None,
               "regular type A weight (J empty): long replay words, no parabolic projection"),
            _c("macdonald", "C", 3, (1, 0, 1), None,
               "type C with a short and a long column; J = {2}"),
            _c("macdonald", "G", 2, (1, 1), None,
               "exceptional rank 2 with root-length ratio 3: fractional cuts"),
            _c("macdonald", "D", 4, (1, 0, 1, 0), None,
               "simply laced with a trivalent node; J = {2, 4}"),
            _c("macdonald", "F", 4, (1, 0, 0, 0), None,
               "F4 fundamental weight: large W (1152), small crystal, so per-type tables show"),
            _c("macdonald", "E", 6, (1, 0, 0, 0, 0, 0), None,
               "E6 minuscule weight: covers the E family without enumerating W(E6)"),
            _c("macdonald", "C", 2, (2, 1), None,
               "repeated columns in lambda: the column series has a squared factor"),
        ],
    },
    "verify": {
        "why": (
            "the exact identities a user runs to trust a result: closed form vs brute-force "
            "path enumeration (si_covers, sils enumeration) and the q=0 slice vs the Weyl "
            "character (W closure, Laurent division); the lift replay is a small share."
        ),
        "cases": [
            _c("grch1", "A", 1, (4,), 8, "rank 1 at depth 8: long chains of covers per path"),
            _c("grch1", "C", 2, (1, 1), 3, "acceptance-suite family with a regular weight"),
            _c("grch1", "A", 3, (1, 0, 1), 3, "rank 3 with J = {2}: parabolic cover candidates"),
            _c("grch1", "G", 2, (0, 1), 5, "G2 at depth 5: fractional cut grid with denominator 3"),
            _c("grch1", "A", 2, (2, 1), 5, "non-minuscule type A weight at depth 5"),
            _c("grch1", "B", 2, (1, 1), 4, "non-simply-laced rank 2 with both columns"),
            _c("grch1", "B", 3, (0, 1, 0), 3, "B3 middle node: the adjoint-type weight of B3"),
            _c("q0", "B", 3, (1, 0, 0), None, "Weyl character over W(B3) (48 elements)"),
            _c("q0", "F", 4, (0, 0, 0, 1), None,
               "Weyl character over W(F4) (1152 elements): the W closure and the division "
               "dominate; the slowest op, so it sets max_op_s"),
        ],
    },
    "quotient": {
        "why": (
            "every quotient-minus and quotient-plus character over all minimal coset "
            "representatives: reads the QLS tables many times and is the only workload "
            "that runs bruhat_leq, eta_iota and star_dual; it shows warm-read costs."
        ),
        "cases": [
            _c("quotient", "G", 2, (1, 1), None,
               "12 representatives over all of the dihedral W(G2); the slowest op, sets max_op_s"),
            _c("quotient", "C", 3, (0, 1, 0), None,
               "12 representatives with J = {1, 3}: long Bruhat intervals in W(C3)"),
            _c("quotient", "B", 3, (0, 1, 0), None,
               "12 representatives with J = {1, 3}: the B3 counterpart of the C3 case"),
            _c("quotient", "A", 3, (1, 0, 1), None, "12 representatives with J = {2} in type A"),
            _c("quotient", "C", 2, (1, 1), None, "8 representatives: a small quotient case"),
        ],
    },
}


def cases(workload: str) -> list[Case]:
    return list(WORKLOADS[workload]["cases"])


# -- running and checking one op --------------------------------------------------


def _terms_json(gc) -> list:
    return [[list(fw), q, c] for fw, q, c in gc.sorted_terms()]


def digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_op(sp, case: Case):
    """Compute one op; return (digest payload, identity holds).

    `sp` is the imported `silspath` package.  Functions are looked up on their
    modules at call time, so trace wrappers installed there are seen.
    """
    ch = sp.characters
    datum = sp.cartan.build(case.type_label, case.rank)
    lam = case.lam
    if case.kind == "macdonald":
        return _terms_json(ch.macdonald_t0(datum, lam)), True
    if case.kind == "grch1":
        closed = ch.gch_demazure_minus_e(datum, lam, case.depth)
        brute = ch.brute_force_gch_minus_e(datum, lam, case.depth)
        return _terms_json(closed), closed == brute
    if case.kind == "q0":
        mac = ch.macdonald_t0(datum, lam)
        chi = ch.weyl_character(datum, lam)
        slice0 = ch.GradedCharacter({(mu, 0): c for mu, c in mac.q_slice(0).items()})
        return _terms_json(mac), slice0 == chi
    if case.kind == "quotient":
        reps = ch.minus_quotient_reps(datum, lam)
        chars = [ch.gch_quotient_minus(datum, lam, w) for w in reps]
        chars += [ch.gch_quotient_plus(datum, lam, w) for w in reps]
        return [_terms_json(gc) for gc in chars], True
    raise ValueError(f"unknown op kind {case.kind}")
