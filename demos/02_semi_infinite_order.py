"""The parabolic semi-infinite Bruhat graph, walked around the identity.

The semi-infinite length of w t_xi is len(w) + 2<xi, rho>; covers raise it
by exactly one, and the translation part only grows along directed paths.
The graph runs on integer states (w lambda, xi off J, <xi, lambda>), one per
representative; `state_rep` rebuilds the representative for printing.
"""

from fractions import Fraction

from silspath import ParabolicQuotient, affine_identity, build, translation

datum = build("A", 1)
quotient = ParabolicQuotient.for_weight(datum, (2,))
state, rep = quotient.coset_state, quotient.state_rep
e = state(affine_identity(datum))
print(f"the identity's state: {e}")

print()
print("covers above the identity, one level at a time:")
level = [e]
for step in range(4):
    nxt = []
    for x in level:
        for beta, y in quotient.si_covers(x):
            print(f"  {rep(x)!r}  --[{beta.finite} + {beta.n}d]-->  {rep(y)!r} = {y}"
                  f"   (si-length {rep(x).si_length} -> {rep(y).si_length})")
            nxt.append(y)
    level = nxt

print()
print("the level-a subgraph keeps only edges whose pairing times a is integral:")
for a in (Fraction(1, 2), Fraction(1, 3)):
    kept = quotient.si_covers(e, a)
    print(f"  a = {a}: {len(kept)} of {len(quotient.si_covers(e))} edges survive at e")

print()
t2 = state(translation(datum, (2,)))
print(f"e <= t_(2a^vee) in the semi-infinite order: {quotient.si_leq(e, t2)}")
print(f"t_(2a^vee) <= e: {quotient.si_leq(t2, e)}")

print()
print("duality x -> x * w0 * w_(sigma(J),0) reverses the graph:")
dual = quotient.dual_quotient()
for x in quotient.si_ball(2):
    xv = dual.state_rep(quotient.vee(state(x)))
    print(f"  {x!r} (si-len {x.si_length})  ->  {xv!r} (si-len {xv.si_length})")
