"""Write bench/expected.json: the SHA-256 digest of every op's exact result.

Usage: python3 bench/make_expected.py

Run it only when a case is added or changed, and only on a commit whose
characters are trusted.  Besides each op's own identity check, it cross-checks
results by routes that the timed ops do not take:
  * macdonald: the q=0 slice equals the Weyl character (not on E6, whose W
    takes minutes to enumerate);
  * quotient: the minus character at w = e equals the whole QLS degree sum.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    sp = worker.import_silspath()
    ch = sp.characters
    digests = {}
    for name in workloads.WORKLOADS:
        for case in workloads.cases(name):
            payload, identity = workloads.run_op(sp, case)
            if not identity:
                raise SystemExit(f"{case.op_id}: identity check failed")
            datum = sp.build(case.type_label, case.rank)
            if case.kind == "macdonald" and case.type_label != "E":
                chi = ch.weyl_character(datum, case.lam)
                if ch.macdonald_t0(datum, case.lam).q_slice(0) != chi.q_slice(0):
                    raise SystemExit(f"{case.op_id}: q=0 slice differs from the Weyl character")
            if case.kind == "quotient":
                identity_rep = ch.minus_quotient_reps(datum, case.lam)[0]
                whole = ch.gch_quotient_minus(datum, case.lam, identity_rep)
                if not identity_rep.is_identity or whole != ch.qls_degree_sum(datum, case.lam):
                    raise SystemExit(f"{case.op_id}: minus character at e is not the degree sum")
            digests[case.op_id] = workloads.digest(payload)
            print(case.op_id, digests[case.op_id][:16], flush=True)
    (BENCH_DIR / "expected.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
