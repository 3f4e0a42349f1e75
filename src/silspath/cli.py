"""Command-line front end: enumeration, characters, verification, graphs.

Exit codes: 0 success (and all verified identities holding), 1 verification
mismatch, 2 usage errors, 3 node-budget exhaustion, 4 internal error (an
unexpected exception, reported without a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import characters as ch
from .cartan import CartanDatum, build
from .peterson import ParabolicQuotient
from .qls import QLSCrystal
from .sils import SiLSCrystal, SiLSPath
from .weyl import AffineWeylElt, BudgetExceeded, FiniteWeylElt, finite_from_word

USAGE_ERROR = 2
BUDGET_ERROR = 3
INTERNAL_ERROR = 4


def _parse_lambda(datum: CartanDatum, text: str) -> tuple[int, ...]:
    parts = tuple(int(p) for p in text.split(","))
    if len(parts) != datum.rank or any(p < 0 for p in parts):
        raise ValueError(f"lambda {text!r} is not dominant of rank {datum.rank}")
    return parts


def _check_nonnegative(args, *options: str) -> None:
    for name in options:
        value = getattr(args, name)
        if value < 0:
            raise ValueError(f"--{name} {value} must be nonnegative")


def _parse_level(text: str) -> Fraction:
    try:
        a = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"level {text!r} is not a rational number p/q") from None
    if not 0 < a <= 1:
        raise ValueError(f"level {text!r} must lie in (0, 1]")
    return a


def _parse_finite_word(datum: CartanDatum, text: str) -> FiniteWeylElt:
    word = [int(p) for p in text.split(",") if p != ""]
    if any(not 1 <= i <= datum.rank for i in word):
        raise ValueError(f"word {text!r} uses nodes outside 1..{datum.rank}")
    return finite_from_word(datum, word)


def _parse_x(datum: CartanDatum, text: str) -> AffineWeylElt:
    """Parse "word|coweight", e.g. "1,2|0,1"; both halves may be empty."""
    word_text, _, xi_text = text.partition("|")
    w = _parse_finite_word(datum, word_text)
    xi = tuple(int(p) for p in xi_text.split(",")) if xi_text else (0,) * datum.rank
    if len(xi) != datum.rank:
        raise ValueError(f"coweight in {text!r} must have {datum.rank} entries")
    return AffineWeylElt(w, xi)


def _direction_json(x: AffineWeylElt) -> dict:
    return {"w": list(x.w.reduced_word()), "xi": list(x.xi)}


def _path_json(crystal: SiLSCrystal, eta: SiLSPath) -> dict:
    wt = crystal.weight(eta)
    return {
        "directions": [_direction_json(crystal.quotient.state_rep(z)) for z in eta.directions],
        "cuts": [str(a) for a in eta.cuts],
        "weight": {"fw": list(wt.fw), "delta": wt.delta},
    }


def _character_json(meta: dict, gc: ch.GradedCharacter) -> dict:
    return {
        "meta": meta,
        "terms": [
            {"fw": list(fw), "q": q, "coeff": c} for fw, q, c in gc.sorted_terms()
        ],
    }


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_root_system(args) -> int:
    datum = build(args.type, args.rank)
    _emit(
        {
            "type": datum.type_label,
            "rank": datum.rank,
            "cartan_matrix": [list(r) for r in datum.cartan],
            "symmetrizer": list(datum.sym),
            "positive_roots": [list(u) for u in datum.pos_roots],
            "theta": list(datum.theta),
            "marks": [1] + list(datum.theta),
            "comarks": [1] + list(datum.theta_coroot),
            "sigma": list(datum.sigma),
        }
    )
    return 0


def _cmd_si_graph(args) -> int:
    datum = build(args.type, args.rank)
    lam = _parse_lambda(datum, getattr(args, "lambda"))
    _check_nonnegative(args, "radius")
    quotient = ParabolicQuotient.for_weight(datum, lam)
    a = _parse_level(args.a) if args.a is not None else None
    # the ball's representatives by their states, in the ball's order
    ball = {
        quotient.coset_state(x): x
        for x in quotient.si_ball(args.radius)
        if -args.radius <= x.si_length <= args.radius
    }

    def node_name(x: AffineWeylElt) -> str:
        word = "".join(map(str, x.w.reduced_word())) or "e"
        xi = ",".join(map(str, x.xi))
        return f"{word} | {xi}"

    print("digraph si_bruhat {")
    for x in ball.values():
        print(f'  "{node_name(x)}";')
    for z, x in ball.items():
        for beta, y in quotient.si_covers(z, a):
            if y in ball:
                label = "+".join(
                    filter(None, [str(list(beta.finite)), f"{beta.n}d" if beta.n else ""])
                )
                print(f'  "{node_name(x)}" -> "{node_name(ball[y])}" [label="{label}"];')
    print("}")
    return 0


def _cmd_sils(args) -> int:
    datum = build(args.type, args.rank)
    lam = _parse_lambda(datum, getattr(args, "lambda"))
    _check_nonnegative(args, "depth", "budget")
    crystal = SiLSCrystal(datum, lam)
    # the truncated set only depends on the coset of x, which its state names
    x = crystal.quotient.coset_state(_parse_x(datum, args.x)) if args.x else crystal.unit
    paths = crystal.enumerate_demazure(x, args.depth, budget=args.budget)
    if args.out == "json":
        for eta in paths:
            _emit(_path_json(crystal, eta))
    else:
        index = {eta: k for k, eta in enumerate(paths)}
        print("digraph sils {")
        for k, eta in enumerate(paths):
            dirs = ",".join(repr(crystal.quotient.state_rep(z)) for z in eta.directions)
            cuts = ",".join(map(str, eta.cuts))
            print(f'  "p{k}" [label="Path({dirs}; {cuts})"];')
        for eta, k in index.items():
            for j in range(datum.rank + 1):
                img = crystal.root_f(eta, j)
                if img is not None and img in index:
                    print(f'  "p{k}" -> "p{index[img]}" [label="f{j}"];')
        print("}")
    return 0


def _cmd_qls(args) -> int:
    datum = build(args.type, args.rank)
    lam = _parse_lambda(datum, getattr(args, "lambda"))
    crystal = QLSCrystal(datum, lam)
    for psi in crystal.paths():  # each direction is an orbit point, which names its w in W^J
        words = [list(crystal.sils.quotient.named(nu).reduced_word()) for nu in psi.directions]
        _emit(
            {
                "directions": words,
                "cuts": [str(a) for a in psi.cuts],
                "weight": list(crystal.weight(psi)),
                "deg_tail": crystal.deg_tail(psi),
                "kappa_of_lift": words[-1],
                "iota_of_tilde_lift": words[0],
            }
        )
    return 0


def _diff_report(name: str, lhs: ch.GradedCharacter, rhs: ch.GradedCharacter) -> None:
    print(f"MISMATCH in {name}", file=sys.stderr)
    for key in sorted(set(lhs.terms) | set(rhs.terms), key=lambda t: (t[1], t[0])):
        a, b = lhs.terms.get(key, 0), rhs.terms.get(key, 0)
        if a != b:
            print(f"  fw={list(key[0])} q={key[1]}: {a} vs {b}", file=sys.stderr)


def _cmd_char(args) -> int:
    datum = build(args.type, args.rank)
    lam = _parse_lambda(datum, getattr(args, "lambda"))
    _check_nonnegative(args, "depth", "budget")
    meta = {"type": datum.type_label, "rank": datum.rank, "lambda": list(lam), "depth": args.depth}
    mode = args.mode
    if args.basis != "x" and mode != "macdonald":
        raise ValueError(f"--basis {args.basis} applies to char macdonald only")
    if mode == "macdonald":
        if args.basis == "weyl":  # one term per (dominant mu, q): the multiplicity of chi_mu
            meta["basis"] = "weyl"
        _emit(_character_json(meta, ch.macdonald_t0(datum, lam, args.basis)))
    elif mode == "demazure-minus":
        _emit(_character_json(meta, ch.gch_demazure_minus_e(datum, lam, args.depth, args.budget)))
    elif mode == "demazure-plus":
        _emit(_character_json(meta, ch.gch_demazure_plus_w0(datum, lam, args.depth, args.budget)))
    elif mode in ("quotient-minus", "quotient-plus"):
        if args.w is None:
            raise ValueError("quotient characters require --w")
        w = _parse_finite_word(datum, args.w)
        fn = ch.gch_quotient_minus if mode == "quotient-minus" else ch.gch_quotient_plus
        _emit(_character_json(meta, fn(datum, lam, w)))
    elif mode == "verify-grch1":
        closed = ch.gch_demazure_minus_e(datum, lam, args.depth, args.budget)
        brute = ch.brute_force_gch_minus_e(datum, lam, args.depth, budget=args.budget)
        if closed != brute:
            _diff_report("graded character of the minus Demazure module", closed, brute)
            return 1
        print(f"verified: minus Demazure character, depth {args.depth}, "
              f"{len(closed.terms)} terms")
    elif mode == "verify-grch2":
        plus = ch.gch_demazure_plus_w0(datum, lam, args.depth, args.budget)
        minus = ch.gch_demazure_minus_e(datum, datum.sigma_dual(lam), args.depth, args.budget)
        flipped = minus.invert_q().invert_x()
        if plus != flipped:
            _diff_report("plus/minus Demazure duality", plus, flipped)
            return 1
        print(f"verified: plus Demazure character duality, depth {args.depth}, "
              f"{len(plus.terms)} terms")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="silspath",
        description="exact level-zero path crystals and graded characters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True, choices=list("ABCDEFG"))
        p.add_argument("--rank", required=True, type=int)

    p = sub.add_parser("root-system", help="print the root-system tables")
    common(p)
    p.set_defaults(fn=_cmd_root_system)

    p = sub.add_parser("si-graph", help="cover graph around the identity as DOT")
    common(p)
    p.add_argument("--lambda", required=True)
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--a", default=None, help="rational level p/q for the subgraph")
    p.set_defaults(fn=_cmd_si_graph)

    p = sub.add_parser("sils", help="path enumeration")
    p.add_argument("action", choices=["enumerate"])
    common(p)
    p.add_argument("--lambda", required=True)
    p.add_argument("--x", default=None, help='final-direction bound, "word|coweight"')
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--out", choices=["json", "dot"], default="json")
    p.add_argument("--budget", type=int, default=500_000)
    p.set_defaults(fn=_cmd_sils)

    p = sub.add_parser("qls", help="finite quantum path crystal")
    p.add_argument("action", choices=["enumerate"])
    common(p)
    p.add_argument("--lambda", required=True)
    p.set_defaults(fn=_cmd_qls)

    p = sub.add_parser("char", help="graded characters and verification")
    p.add_argument(
        "mode",
        choices=[
            "macdonald",
            "demazure-minus",
            "demazure-plus",
            "quotient-minus",
            "quotient-plus",
            "verify-grch1",
            "verify-grch2",
        ],
    )
    common(p)
    p.add_argument("--lambda", required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--w", default=None, help="reduced word, e.g. 1,2")
    p.add_argument("--budget", type=int, default=500_000)
    p.add_argument("--basis", choices=["x", "weyl"], default="x", help="macdonald: monomials or Weyl characters")
    p.set_defaults(fn=_cmd_char)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc} (partial results discarded)", file=sys.stderr)
        return BUDGET_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
