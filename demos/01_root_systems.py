"""Root-system tables: what the rest of the library reads.

Every computation downstream is exact integer or rational arithmetic over
tables generated here by reflection closure from the Cartan matrix.
"""

from silspath import build, LevelZeroWeight

for label, rank in [("A", 2), ("C", 2), ("G", 2)]:
    datum = build(label, rank)
    print(f"== {label}{rank} ==")
    print("Cartan matrix:", datum.cartan)
    print("symmetrizer:  ", datum.sym)
    print("positive roots (root coordinates):")
    for u in datum.pos_roots:
        print("   ", u, " coroot:", datum.coroot(u))
    print("highest root theta:", datum.theta, " theta^vee:", datum.theta_coroot)
    print("affinization marks:", (1,) + datum.theta, " comarks:", (1,) + datum.theta_coroot)
    print("diagram involution sigma:", datum.sigma)

    # pairings are exact integers; rho pairs to 1 with every simple coroot
    rho = LevelZeroWeight(datum.rho, 0)
    for i in range(1, rank + 1):
        ci = tuple(1 if k == i - 1 else 0 for k in range(rank))
        assert datum.pair_coweight_weight(ci, rho) == 1
    print("checked: <alpha_i^vee, rho> = 1 for all i")
    print()
