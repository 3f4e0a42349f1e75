"""Path crystals: root operators, projection, and distinguished lifts.

Starting from the straight-line path, the raising and lowering operators
reflect the portion of a path between the critical times of its height
function.  Projecting away the translation parts gives the finite quantum
path crystal; each projected path has a unique lift whose final direction
is a finite coset representative, and the delta-coefficient of that lift's
weight is the tail degree driving the graded characters.  A direction is
printed as its integer state (w lambda, xi off J, <xi, lambda>); a projected
path's direction is the orbit point w lambda, which names w in W^J.
"""

from silspath import QLSCrystal, SiLSCrystal, build

datum = build("A", 1)
crystal = SiLSCrystal(datum, (2,))
eta = crystal.unit_path()

print("walk down the j=1 string from the unit path:")
cur = eta
while cur is not None:
    print(f"  {cur!r}   weight {crystal.weight(cur)}")
    cur = crystal.root_f(cur, 1)

print()
print("the affine operator e_0 raises the delta coefficient:")
up = crystal.root_e(eta, 0)
print(f"  e_0: {eta!r} -> {up!r}   weight {crystal.weight(up)}")
print(f"  eps_0(unit) = {crystal.string_eps(eta, 0)}   phi_1(unit) = {crystal.string_phi(eta, 1)}")

print()
print("every truncated Demazure path, with its projection and component:")
q = QLSCrystal(datum, (2,))
for path in crystal.enumerate_demazure(crystal.unit, 1):
    base = q.component_base(path)
    reps = ", ".join(map(repr, map(crystal.quotient.state_rep, path.directions)))
    print(f"  {path!r}, the representatives {reps}")
    print(f"      cl = {q.cl(path)!r}   component base {base!r}")

print()
print("distinguished lifts and tail degrees of the projected crystal:")
named = q.sils.quotient.named
for psi in q.paths():
    words = ", ".join(str(named(nu).reduced_word()) for nu in psi.directions)
    print(
        f"  {psi!r}, the reduced words {words}: weight {q.weight(psi)}, "
        f"lift {q.eta_kappa(psi)!r}, tail degree {q.deg_tail(psi)}"
    )
