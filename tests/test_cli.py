import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from silspath import characters as ch
from silspath import peterson
from silspath.cartan import build
from silspath.cli import _character_json, main
from silspath.peterson import ParabolicQuotient
from silspath.weyl import longest_element


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_root_system(capsys):
    code, out, _ = run(capsys, "root-system", "--type", "C", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["theta"] == [2, 1]
    assert len(data["positive_roots"]) == 4
    assert data["comarks"] == [1, 1, 1]


def test_root_system_invalid_rank(capsys):
    code, _, err = run(capsys, "root-system", "--type", "C", "--rank", "1")
    assert code == 2
    assert "unsupported" in err


def test_invalid_type_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["root-system", "--type", "Q", "--rank", "9"])
    assert exc.value.code == 2


def test_si_graph_dot(capsys):
    code, out, _ = run(
        capsys, "si-graph", "--type", "A", "--rank", "1", "--lambda", "1",
        "--radius", "2",
    )
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 4  # the chain of length 4 through the window


def test_sils_enumerate(capsys):
    code, out, _ = run(
        capsys, "sils", "enumerate", "--type", "A", "--rank", "1",
        "--lambda", "1", "--depth", "3",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 8
    assert all(set(r) == {"directions", "cuts", "weight"} for r in rows)


def test_sils_enumerate_with_x(capsys):
    code, out, _ = run(
        capsys, "sils", "enumerate", "--type", "A", "--rank", "1",
        "--lambda", "1", "--x", "1|", "--depth", "0",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [
        {
            "directions": [{"w": [1], "xi": [0]}],
            "cuts": ["0", "1"],
            "weight": {"fw": [-1], "delta": 0},
        }
    ]


def test_qls_enumerate(capsys):
    code, out, _ = run(
        capsys, "qls", "enumerate", "--type", "A", "--rank", "1", "--lambda", "2"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    assert sorted(r["deg_tail"] for r in rows) == [-1, 0, 0, 0]


# SHA-256 of `qls enumerate` stdout, recorded while eta_iota still went
# through the sigma-dual crystal; A2 (2,1) is not self-dual.
QLS_STDOUT = {
    ("A", "2,1"): ("ddd91d2a07d7d824700f9f1bd29eb47355116c5b75ff00fb05890494421341a1", 27),
    ("G", "1,1"): ("fd2ff7b13ff7c2fae25f6e9519cb54264e7d1b33b2c35be81af38f675502cf7a", 105),
}


@pytest.mark.parametrize("typ,lam", sorted(QLS_STDOUT))
def test_qls_enumerate_golden(capsys, typ, lam):
    code, out, _ = run(
        capsys, "qls", "enumerate", "--type", typ, "--rank", "2", "--lambda", lam
    )
    assert code == 0
    digest, lines = QLS_STDOUT[typ, lam]
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 and line count of stdout, recorded while cut points were still
# stored as Fractions: the G2 enumeration prints fractional cuts, and G2 (1,1)
# has cut denominator N = 60.
CUT_STDOUT = {
    "sils enumerate --type G --rank 2 --lambda 0,1 --depth 2": (
        "fa9d2d61506b65e4570ae6d6882647e46afa8f1507c7a7fdf1f7ed9090e87d3b", 44),
    "char macdonald --type G --rank 2 --lambda 1,1": (
        "90535fae57cdcc25677d9847339a76e0b2e1a20a37e1b7b69a0af9279ae789da", 1),
    "char macdonald --type B --rank 3 --lambda 1,1,0": (
        "6c80d5637f8d0a566215aaf3029a10ae53c11c8b17c5327c351ddd2eb7cbdacf", 1),
    # recorded while the brute force still listed and sorted the paths, which
    # pins the output order of the shared enumeration walk: the DOT run also
    # applies every f_j to every path, and the translated x starts the walk off e
    "sils enumerate --type A --rank 2 --lambda 1,1 --depth 2 --out dot": (
        "0b94c72fab8fbc4e97cd656eaa6eaa8dd227d98f86297531e4f779f556f77e17", 111),
    "sils enumerate --type A --rank 2 --lambda 1,1 --depth 2 --x |-1,0": (
        "959ba168b8e9b6efc51fb7d47a84c6089f03729a62ebd3a072ba37e46033e27e", 86),
}


@pytest.mark.parametrize("argv", sorted(CUT_STDOUT))
def test_cut_stdout_golden(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    digest, lines = CUT_STDOUT[argv]
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 and line count of stdout, recorded while a level still filtered
# the cover edges by a Fraction product rather than by its denominator.
SI_GRAPH_STDOUT = {
    "1/2": ("29cbfe52ab63ff03283a5f595700d101aac45842d2fdcbc55bfcd81f68982e38", 35),
    "1/3": ("60cebf3c771e9dc723b9a8355dbde07bd2d47ea6b7df9fe134694634717c7e06", 31),
}


# SHA-256 and line count of stdout, recorded while the cover labels were still
# found by a candidate scan per finite direction, not read off QB(W^J).
SI_GRAPH_COVER_STDOUT = {
    "si-graph --type B --rank 3 --lambda 0,1,0 --radius 2": (
        "df4f75eed80e636df467d912f19500df353a763868ad9a71262717123dab5f13", 26),
    "si-graph --type G --rank 2 --lambda 1,1 --radius 2": (
        "5269919e5c7b0edd603bf31dc3167e442b5ccb30d77ed4ed96135f116c6a1ba9", 64),
    "si-graph --type C --rank 2 --lambda 2,1 --radius 2 --a 1/2": (
        "44eb2d6203aaec28345b4f21a11dd551a1803856e9db28d6687858aa8ecd0864", 35),
}


@pytest.mark.parametrize("argv", sorted(SI_GRAPH_COVER_STDOUT))
def test_si_graph_cover_golden(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    digest, lines = SI_GRAPH_COVER_STDOUT[argv]
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_capped(*args: str, timeout: float = 60):
    """`python *args` in a subprocess under a 1 GiB address-space cap and a timeout."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=timeout, preexec_fn=_cap_memory,
    )


def run_cli_capped(argv: str, timeout: float = 60):
    return run_capped("-m", "silspath.cli", *argv.split(), timeout=timeout)


def test_si_graph_large_orbit_stays_local():
    # E7 at a regular weight has |W| = 2,903,040 orbit points: a radius-1 ball
    # must read only the directions it visits, never the whole orbit W lambda
    proc = run_cli_capped("si-graph --type E --rank 7 --lambda 1,1,1,1,1,1,1 --radius 1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(proc.stdout.splitlines()) == 143
    digest = "59842d6ee8979ebe8c1ca4bb05fb184e92009549f26ff4751a814afa84bc8b31"
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("radius", [2, 3])
def test_si_graph_ball_past_the_budget_exits_3(capsys, monkeypatch, radius):
    # the ball of radius 3 on A2 (1,1) holds more points than that of radius 2: with
    # TABLE_BUDGET at the smaller size, radius 2 prints its graph unchanged, and
    # radius 3 stops with exit 3 and prints nothing
    argv = f"si-graph --type A --rank 2 --lambda 1,1 --radius {radius}".split()
    code, full, _ = run(capsys, *argv)
    assert code == 0
    small = len(ParabolicQuotient.for_weight(build("A", 2), (1, 1)).si_ball(2))
    assert len(ParabolicQuotient.for_weight(build("A", 2), (1, 1)).si_ball(3)) > small
    monkeypatch.setattr(peterson, "TABLE_BUDGET", small)
    code, out, err = run(capsys, *argv)
    if radius == 2:
        assert (code, out) == (0, full)
    else:
        assert (code, out) == (3, "")
        assert "budget exhausted: semi-infinite ball exceeded" in err


def test_enumeration_large_orbit_stays_local():
    # the Demazure walk reads the rows of the directions it visits: from w_0 on
    # the same orbit it lists the 71 paths of degree >= -1 without the orbit
    w0 = ",".join(map(str, longest_element(build("E", 7)).reduced_word()))
    proc = run_cli_capped(f"sils enumerate --type E --rank 7 --lambda 1,1,1,1,1,1,1 --x {w0}| --depth 1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(proc.stdout.splitlines()) == 71
    digest = "45c330d2244b6a9509b4bab81c230e9301395a3f5130ff52ac6d556e234abc4e"
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_macdonald_large_orbit_exhausts_the_budget():
    # the same orbit is far past the QLS table budget: its search stops there
    # with exit 3 instead of running out of memory (exit 4)
    proc = run_cli_capped("char macdonald --type E --rank 7 --lambda 1,1,1,1,1,1,1")
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert "budget exhausted" in proc.stderr


def test_macdonald_transfer_matrix_exhausts_the_budget():
    # E6 at a regular weight: 51,840 directions, well inside the orbit budget, but
    # the live terms of its highest-weight sweep pass TABLE_BUDGET at the cut 2/3
    # (the whole sweep would peak at 318,147), within about 4 s
    proc = run_cli_capped("char macdonald --type E --rank 6 --lambda 1,1,1,1,1,1", timeout=60)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert "budget exhausted: highest-weight sweep exceeded" in proc.stderr


@pytest.mark.parametrize("top", ["1000000", "100000000000000000000"])
def test_huge_cut_grid_exhausts_the_budget(top):
    # A2 (top, 0) has one pairing value, top, so top - 1 grid cuts: the grid stops
    # at TABLE_BUDGET ticks before anything else is built, within about 5 s
    proc = run_cli_capped(f"char macdonald --type A --rank 2 --lambda {top},0", timeout=5)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr[-2000:]
    assert "budget exhausted: cut grid exceeded" in proc.stderr


def test_quotient_transfer_matrix_exhausts_the_budget():
    # quotient-plus reads the sweep of the sigma-dual shape, here lambda itself,
    # so it stops at the same budget
    proc = run_cli_capped("char quotient-plus --type D --rank 5 --lambda 1,1,1,1,1 --w 1", timeout=20)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert "budget exhausted: transfer matrix exceeded" in proc.stderr


def test_macdonald_past_the_old_transfer_matrix_budget():
    # D5 rho: the transfer matrix over every final direction passed TABLE_BUDGET
    # terms; the highest-weight sweep keeps 225 terms and their expansion 68,028
    proc = run_cli_capped("char macdonald --type D --rank 5 --lambda 1,1,1,1,1", timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(json.loads(proc.stdout)["terms"]) == 68028


def test_macdonald_weyl_basis(capsys):
    # one term per (dominant mu, q), the multiplicity of chi_mu, with q inverted as in
    # the x-basis, which the Weyl characters expand to; the meta line says which basis
    argv = "char macdonald --type G --rank 2 --lambda 2,1".split()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "basis" not in json.loads(out)["meta"]
    code, weyl_out, _ = run(capsys, *argv, "--basis", "weyl")
    assert code == 0
    weyl = json.loads(weyl_out)
    assert weyl["meta"] == dict(json.loads(out)["meta"], basis="weyl")
    terms = {(tuple(t["fw"]), t["q"]): t["coeff"] for t in weyl["terms"]}
    assert all(min(fw) >= 0 for fw, _q in terms) and len(terms) == 17
    expanded = ch.weyl_expansion(build("G", 2), ch.GradedCharacter(terms))
    assert _character_json(json.loads(out)["meta"], expanded) == json.loads(out)
    code, _, err = run(capsys, "char", "demazure-minus", "--type", "A", "--rank", "1", "--lambda", "1", "--basis", "weyl")
    assert code == 2 and "--basis weyl applies to char macdonald only" in err


def test_macdonald_weyl_basis_past_the_expansion_budget():
    # C5 rho has 443 highest-weight terms, but 326,054 terms in the x-basis
    argv = "char macdonald --type C --rank 5 --lambda 1,1,1,1,1"
    proc = run_cli_capped(argv + " --basis weyl", timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(json.loads(proc.stdout)["terms"]) == 443
    proc = run_cli_capped(argv, timeout=60)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert "budget exhausted: x-basis expansion exceeded" in proc.stderr


def test_macdonald_past_the_table_budget(capsys):
    # G2 (4,3) has 8,103,375 QLS paths, too many for the table
    code, out, _ = run(capsys, *"char macdonald --type G --rank 2 --lambda 4,3".split())
    assert code == 0
    assert len(json.loads(out)["terms"]) == 4668


# SHA-256 and line count of stdout, recorded while the column series was still
# expanded by a loop quadratic in the depth.
DEPTH_STDOUT = {
    "char demazure-minus --type A --rank 2 --lambda 1,1 --depth 1000": (
        "ac2cbc39297d57978c3cc8e419c926113873f59b628ff0c0962fd77d0fcecd29", 1),
    "char demazure-plus --type C --rank 2 --lambda 2,1 --depth 60": (
        "be15e103502db187d29909502b7a311dd49bb247c061991aa6e3572b583855c0", 1),
    "char demazure-minus --type A --rank 2 --lambda 0,0 --depth 99999999": (
        "c4f05825b469e258682137041ea05c72291bb9507d2d03dc366a985a4bd11cfb", 1),
}


@pytest.mark.parametrize("argv", sorted(DEPTH_STDOUT))
def test_depth_stdout_golden(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    digest, lines = DEPTH_STDOUT[argv]
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    "char demazure-minus --type A --rank 2 --lambda 1,1 --depth 99999999",
    "char demazure-plus --type A --rank 2 --lambda 1,1 --depth 99999999",
    "char verify-grch1 --type A --rank 2 --lambda 1,1 --depth 99999999",
    "char verify-grch2 --type A --rank 2 --lambda 1,1 --depth 99999999",
    "char demazure-minus --type A --rank 2 --lambda 1,1 --depth 1000 --budget 100",
])
def test_closed_forms_honour_the_budget(capsys, argv):
    # 7 weights times the depth window is past the budget: exit 3, not a hang
    code, out, err = run(capsys, *argv.split())
    assert code == 3 and out == ""
    assert "budget exhausted: closed form exceeded budget" in err


COMPONENT_BASE_E7 = """
from silspath.cartan import build
from silspath.qls import QLSCrystal
from silspath.weyl import BudgetExceeded

q = QLSCrystal(build("E", 7), (1,) * 7)
eta = q.sils.root_e(q.sils.unit_path(), 0)
assert len(eta.directions) == 2
try:
    q.component_base(eta)
except BudgetExceeded:
    print("budget exhausted")
"""


def test_component_base_large_orbit_exhausts_the_budget():
    # a two-segment path off the same orbit: its component base needs the
    # distinguished lift, whose reach search stops at the orbit budget
    proc = run_capped("-c", COMPONENT_BASE_E7)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "budget exhausted\n"


@pytest.mark.parametrize("a", sorted(SI_GRAPH_STDOUT))
def test_si_graph_level_golden(capsys, a):
    code, out, _ = run(
        capsys, "si-graph", "--type", "G", "--rank", "2", "--lambda", "1,1",
        "--radius", "2", "--a", a,
    )
    assert code == 0
    digest, lines = SI_GRAPH_STDOUT[a]
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_char_verify_commands(capsys):
    code, out, _ = run(
        capsys, "char", "verify-grch1", "--type", "A", "--rank", "1",
        "--lambda", "1", "--depth", "3",
    )
    assert code == 0 and "verified" in out
    code, out, _ = run(
        capsys, "char", "verify-grch2", "--type", "C", "--rank", "2",
        "--lambda", "1,0", "--depth", "2",
    )
    assert code == 0 and "verified" in out


def test_char_output_commands(capsys):
    code, out, _ = run(
        capsys, "char", "macdonald", "--type", "A", "--rank", "1", "--lambda", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert {"fw": [0], "q": 1, "coeff": 1} in data["terms"]
    code, out, _ = run(
        capsys, "char", "demazure-minus", "--type", "A", "--rank", "1",
        "--lambda", "1", "--depth", "1",
    )
    assert code == 0
    assert len(json.loads(out)["terms"]) == 4
    code, out, _ = run(
        capsys, "char", "demazure-plus", "--type", "A", "--rank", "1",
        "--lambda", "1", "--depth", "1",
    )
    assert code == 0
    assert all(t["q"] >= 0 for t in json.loads(out)["terms"])


def test_char_quotient_requires_w(capsys):
    code, _, err = run(
        capsys, "char", "quotient-minus", "--type", "A", "--rank", "1",
        "--lambda", "2",
    )
    assert code == 2 and "--w" in err


def test_char_quotient_minus(capsys):
    code, out, _ = run(
        capsys, "char", "quotient-minus", "--type", "A", "--rank", "1",
        "--lambda", "2", "--w", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [
        {"fw": [-2], "q": 0, "coeff": 1},
        {"fw": [0], "q": -1, "coeff": 1},
    ]


# SHA-256 of `char quotient-plus` stdout, recorded while the plus characters still
# came from a sweep of lambda's own initial directions; none of these weights is
# its own sigma-dual, and A2 (2,1) has terms in several q-degrees.
QUOTIENT_PLUS_STDOUT = {
    "--type A --rank 2 --lambda 1,0 --w 1":
        "f25b544360f748d541963da84e1b03ce5bec4521dd7e23171bd0935e8232ea61",
    "--type A --rank 2 --lambda 2,1 --w 1,2":
        "39009e47e5027d5161a6bc709244237dca8d75b5fc770593c55e1f50cf40d5af",
    "--type E --rank 6 --lambda 1,0,0,0,0,0 --w 2,4,3,1":
        "680dc0fea9bf65c85c1e465d371aa4d835ae5b1186fe74b7d5f3aa7bd0e33f68",
}


@pytest.mark.parametrize("argv", sorted(QUOTIENT_PLUS_STDOUT))
def test_char_quotient_plus_golden(capsys, argv):
    code, out, _ = run(capsys, "char", "quotient-plus", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == QUOTIENT_PLUS_STDOUT[argv]


def test_char_quotient_minus_e7_at_floor_w0(capsys):
    # a reduced word of floor(w0), the longest of the 56 representatives
    # for W(E7)/W(E6); its character is the single lowest weight -varpi_7
    word = "7,6,5,4,3,2,4,5,6,7,1,3,4,5,6,2,4,5,3,4,1,3,2,4,5,6,7"
    code, out, _ = run(
        capsys, "char", "quotient-minus", "--type", "E", "--rank", "7",
        "--lambda", "0,0,0,0,0,0,1", "--w", word,
    )
    assert code == 0
    assert json.loads(out)["terms"] == [{"fw": [0, 0, 0, 0, 0, 0, -1], "q": 0, "coeff": 1}]


def test_deterministic_output(capsys):
    args = ("char", "macdonald", "--type", "A", "--rank", "2", "--lambda", "1,1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_budget_exhaustion_exits_3(capsys):
    code, _, err = run(
        capsys, "sils", "enumerate", "--type", "A", "--rank", "2",
        "--lambda", "1,1", "--depth", "2", "--budget", "3",
    )
    assert code == 3
    assert "budget" in err


def test_sils_negative_depth_exits_2(capsys):
    code, out, err = run(
        capsys, "sils", "enumerate", "--type", "A", "--rank", "1",
        "--lambda", "1", "--depth", "-1",
    )
    assert code == 2 and out == ""
    assert "depth" in err and "Traceback" not in err


def test_char_negative_depth_exits_2(capsys):
    code, out, err = run(
        capsys, "char", "demazure-minus", "--type", "A", "--rank", "1",
        "--lambda", "1", "--depth", "-2",
    )
    assert code == 2 and out == ""
    assert "depth" in err


@pytest.mark.parametrize(
    "argv,option",
    [
        (("sils", "enumerate", "--lambda", "1", "--budget", "-1"), "--budget"),
        (("char", "verify-grch1", "--lambda", "1", "--budget", "-5"), "--budget"),
        (("char", "macdonald", "--lambda", "1", "--budget", "-1"), "--budget"),
        (("si-graph", "--lambda", "1", "--radius", "-1"), "--radius"),
    ],
)
def test_negative_budget_or_radius_exits_2(capsys, argv, option):
    # a usage error, not a budget exhaustion (exit 3) or an empty graph (exit 0)
    code, out, err = run(capsys, *argv, "--type", "A", "--rank", "1")
    assert code == 2 and out == ""
    assert option in err and "nonnegative" in err and "Traceback" not in err


def test_si_graph_zero_denominator_level_exits_2(capsys):
    code, out, err = run(
        capsys, "si-graph", "--type", "A", "--rank", "1", "--lambda", "1",
        "--a", "1/0",
    )
    assert code == 2 and out == ""
    assert "level" in err and "Traceback" not in err


def test_si_graph_zero_level_exits_2(capsys):
    code, out, err = run(
        capsys, "si-graph", "--type", "A", "--rank", "1", "--lambda", "1",
        "--a", "0",
    )
    assert code == 2 and out == ""
    assert "level" in err


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    import silspath.cli as cli

    def boom(*_args, **_kwargs):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli.ch, "macdonald_t0", boom)
    code, out, err = run(
        capsys, "char", "macdonald", "--type", "A", "--rank", "1", "--lambda", "1"
    )
    assert code == 4 and out == ""
    assert "internal error" in err and "invariant broken" in err
