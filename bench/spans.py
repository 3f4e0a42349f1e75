"""Spans around the public calls into each silspath layer, recorded from outside `src/`.

`Tracer.install` wraps the functions and methods listed in `TARGETS` and
`Tracer.remove` puts the originals back.  A module-level function is patched
in every `silspath` module that binds it, because `from .weyl import
weyl_group` copies the name into `characters`.  Methods are patched on their
class; a `cached_property` is replaced by another `cached_property` and an
`lru_cache`d method is called through its cache, so caching is unchanged.

Each span records its name, start, end, parent span and op id, and is kept in
memory until `write_spans`.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
from array import array
from time import perf_counter

# (span name, owner as "module" or "module.Class", attribute)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cartan.build", "cartan", "build"),
    ("weyl.mul", "weyl.FiniteWeylElt", "mul"),
    ("weyl.inverse", "weyl.FiniteWeylElt", "inverse"),
    ("weyl.affine_mul", "weyl.AffineWeylElt", "mul"),
    ("weyl.affine_inverse", "weyl.AffineWeylElt", "inverse"),
    ("weyl.act_weight", "weyl.AffineWeylElt", "act_weight"),
    ("weyl.weyl_group", "weyl", "weyl_group"),
    ("weyl.bruhat_leq", "weyl", "bruhat_leq"),
    ("weyl.longest_element", "weyl", "longest_element"),
    ("weyl.finite_reflection", "weyl", "finite_reflection"),
    ("weyl.affine_reflection", "weyl", "affine_reflection"),
    ("weyl.translation", "weyl", "translation"),
    ("peterson.for_weight", "peterson.ParabolicQuotient", "for_weight"),
    ("peterson.is_rep", "peterson.ParabolicQuotient", "is_rep"),
    ("peterson.project", "peterson.ParabolicQuotient", "project"),
    ("peterson.is_min_rep", "peterson.ParabolicQuotient", "is_min_rep"),
    ("peterson.min_rep", "peterson.ParabolicQuotient", "min_rep"),
    ("peterson.decompose", "peterson.ParabolicQuotient", "decompose"),
    ("peterson.cl_direction", "peterson.ParabolicQuotient", "cl_direction"),
    ("peterson.si_covers", "peterson.ParabolicQuotient", "si_covers"),
    ("peterson.cut_grid", "peterson.ParabolicQuotient", "cut_grid"),
    ("sils.root_e", "sils.SiLSCrystal", "root_e"),
    ("sils.root_f", "sils.SiLSCrystal", "root_f"),
    ("sils.apply", "sils.SiLSCrystal", "apply"),
    ("sils.weight", "sils.SiLSCrystal", "weight"),
    ("sils.dual_path", "sils.SiLSCrystal", "dual_path"),
    ("sils.enumerate", "sils.SiLSCrystal", "enumerate_demazure"),
    ("qls.table", "qls.QLSCrystal", "table"),
    ("qls.cl", "qls.QLSCrystal", "cl"),
    ("qls.weight", "qls.QLSCrystal", "weight"),
    ("qls.paths", "qls.QLSCrystal", "paths"),
    ("qls.eta_kappa", "qls.QLSCrystal", "eta_kappa"),
    ("qls.deg_tail", "qls.QLSCrystal", "deg_tail"),
    ("qls.star_dual", "qls.QLSCrystal", "star_dual"),
    ("qls.eta_iota", "qls.QLSCrystal", "eta_iota"),
    ("characters.macdonald_t0", "characters", "macdonald_t0"),
    ("characters.qls_degree_sum", "characters", "qls_degree_sum"),
    ("characters.gch_demazure_minus_e", "characters", "gch_demazure_minus_e"),
    ("characters.brute_force_gch_minus_e", "characters", "brute_force_gch_minus_e"),
    ("characters.gch_quotient_minus", "characters", "gch_quotient_minus"),
    ("characters.gch_quotient_plus", "characters", "gch_quotient_plus"),
    ("characters.minus_quotient_reps", "characters", "minus_quotient_reps"),
    ("characters.weyl_character", "characters", "weyl_character"),
    ("characters.mul", "characters.GradedCharacter", "__mul__"),
)

# spans whose distinct argument tuples are counted
DISTINCT = ("weyl.bruhat_leq", "peterson.si_covers", "qls.eta_kappa")

LAYERS = ("cartan", "weyl", "peterson", "sils", "qls", "characters")

# Every per-layer metric the traced run reports: (name, unit, end-to-end
# metric and workload a change to that layer should move).
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("cartan.build.calls", "count", "setup_s, all workloads"),
    ("cartan.build.self_s", "s", "setup_s, all workloads"),
    ("weyl.self_s", "s", "wall_s and max_op_s on macdonald; wall_s on quotient"),
    ("weyl.mul.calls", "count", "wall_s and max_op_s on macdonald; wall_s on quotient"),
    ("weyl.weyl_group.calls", "count", "wall_s on verify and quotient; absent on macdonald"),
    ("weyl.weyl_group.self_s", "s", "wall_s on verify and quotient; absent on macdonald"),
    ("weyl.weyl_group.size", "count", "wall_s on verify and quotient; absent on macdonald"),
    ("weyl.bruhat_leq.calls", "count", "wall_s on quotient only"),
    ("weyl.bruhat_leq.self_s", "s", "wall_s on quotient only"),
    ("weyl.bruhat_leq.distinct_frac", "ratio", "wall_s on quotient only"),
    ("peterson.self_s", "s", "si_covers: wall_s on verify; project: macdonald"),
    ("peterson.si_covers.calls", "count", "wall_s on verify"),
    ("peterson.si_covers.distinct_frac", "ratio", "wall_s on verify"),
    ("peterson.project.calls", "count", "wall_s on macdonald"),
    ("peterson.for_weight.calls", "count", "peak_rss_mb"),
    ("sils.self_s", "s", "root ops: wall_s/max_op_s on macdonald; enumeration: wall_s on verify"),
    ("sils.root_op.calls", "count", "wall_s and max_op_s on macdonald"),
    ("sils.root_op.null_frac", "ratio", "wall_s and max_op_s on macdonald"),
    ("sils.apply.calls", "count", "wall_s and max_op_s on macdonald"),
    ("sils.enumerate.calls", "count", "wall_s on verify"),
    ("sils.enumerate.self_s", "s", "wall_s on verify"),
    ("sils.enumerate.paths", "count", "wall_s on verify"),
    ("qls.self_s", "s", "wall_s, max_op_s and peak_rss_mb on macdonald; wall_s on quotient"),
    ("qls.table.self_s", "s", "wall_s, max_op_s and peak_rss_mb on macdonald; wall_s on quotient"),
    ("qls.table.size", "count", "peak_rss_mb on macdonald"),
    ("qls.eta_kappa.calls", "count", "wall_s and max_op_s on macdonald; wall_s on quotient"),
    ("qls.eta_kappa.distinct_frac", "ratio", "wall_s on quotient"),
    ("qls.eta_iota.calls", "count", "wall_s on quotient"),
    ("qls.eta_iota.self_s", "s", "wall_s on quotient"),
    ("characters.self_s", "s", "wall_s on verify"),
    ("characters.weyl_character.calls", "count", "wall_s on verify"),
    ("characters.weyl_character.self_s", "s", "wall_s on verify (the Laurent division)"),
    ("characters.mul.calls", "count", "wall_s on verify"),
    ("trace.overhead", "ratio", "none; traced wall_s over untraced wall_s"),
)

OP_SPAN = "bench.op"
SETUP_OP = -1


class Tracer:
    """Records spans for the calls into the wrapped silspath functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per finished span, in finishing order
        self.sid = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.self_s = array("d")
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_sid = 0
        self.current_op = SETUP_OP
        self.nulls: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        self.distinct: dict[str, set] = {n: set() for n in DISTINCT}
        self._weyl_group_sizes: dict = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, result_hook=None, key_set=None):
        """Return `fn` wrapped so that each call records one span."""
        nid = self._name_id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [self._next_sid, perf_counter(), 0.0]
            self._next_sid += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                self.sid.append(frame[0])
                self.name.append(nid)
                self.start.append(frame[1])
                self.end.append(end)
                self.parent.append(parent)
                self.op.append(self.current_op)
                self.self_s.append(dur - frame[2])
            if key_set is not None:
                key_set.add((args, tuple(sorted(kwargs.items()))))
            if result_hook is not None:
                result_hook(args, result)
            return result

        return wrapper

    # -- installing and removing the wrappers ------------------------------------

    def _hooks(self, name: str):
        if name in ("sils.root_e", "sils.root_f"):
            def count_null(_args, result):
                if result is None:
                    self.nulls["sils.root_op"] = self.nulls.get("sils.root_op", 0) + 1
            return count_null
        if name in ("qls.table", "sils.enumerate"):
            def add_size(_args, result):
                self.sizes[name] = self.sizes.get(name, 0) + len(result)
            return add_size
        if name == "weyl.weyl_group":
            def record_size(args, result):
                self._weyl_group_sizes[args] = len(result)
            return record_size
        return None

    def install(self, package) -> None:
        """Wrap every target of `TARGETS` in the imported `silspath` package."""
        modules = [m for k, m in sys.modules.items() if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for name, owner, attr in TARGETS:
            mod_name, _, cls_name = owner.partition(".")
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            hook, keys = self._hooks(name), self.distinct.get(name)
            if not cls_name:
                original = getattr(mod, attr)
                wrapped = self.span(name, original, hook, keys)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is original:
                            self._patch(m, k, wrapped)
                continue
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(name, raw.__func__, hook, keys))
            elif isinstance(raw, functools.cached_property):
                wrapped = functools.cached_property(self.span(name, raw.func, hook, keys))
                wrapped.__set_name__(cls, attr)
            else:
                wrapped = self.span(name, raw, hook, keys)
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Put back every original; safe to call more than once."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def op_span(self, op_index: int, fn):
        """Run `fn()` as op `op_index` inside one bench.op span."""
        self.current_op = op_index
        try:
            return self.span(OP_SPAN, fn)()
        finally:
            self.current_op = SETUP_OP

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for nid, s in zip(self.name, self.self_s):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + s
        return calls, self_s

    def op_checks(self) -> list[tuple[int, float, float]]:
        """Per op: (op id, sum of layer self times, traced op wall time)."""
        op_nid = self._name_ids.get(OP_SPAN)
        layer_sum: dict[int, float] = {}
        op_wall: dict[int, float] = {}
        for nid, op, start, end, s in zip(self.name, self.op, self.start, self.end, self.self_s):
            if nid == op_nid:
                op_wall[op] = end - start
            else:
                layer_sum[op] = layer_sum.get(op, 0.0) + s
        return [(op, layer_sum.get(op, 0.0), wall) for op, wall in sorted(op_wall.items())]

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of `LAYER_METRICS` except trace.overhead."""
        calls, self_s = self.totals()

        def n(name):
            return calls.get(name, 0)

        def layer_self(layer):
            return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

        def frac(part, whole):
            return part / whole if whole else 0.0

        root_calls = n("sils.root_e") + n("sils.root_f")
        out = {
            "cartan.build.calls": n("cartan.build"),
            "cartan.build.self_s": self_s.get("cartan.build", 0.0),
            "weyl.mul.calls": n("weyl.mul"),
            "weyl.weyl_group.calls": n("weyl.weyl_group"),
            "weyl.weyl_group.self_s": self_s.get("weyl.weyl_group", 0.0),
            "weyl.weyl_group.size": sum(self._weyl_group_sizes.values()),
            "weyl.bruhat_leq.calls": n("weyl.bruhat_leq"),
            "weyl.bruhat_leq.self_s": self_s.get("weyl.bruhat_leq", 0.0),
            "weyl.bruhat_leq.distinct_frac": frac(len(self.distinct["weyl.bruhat_leq"]), n("weyl.bruhat_leq")),
            "peterson.si_covers.calls": n("peterson.si_covers"),
            "peterson.si_covers.distinct_frac": frac(len(self.distinct["peterson.si_covers"]), n("peterson.si_covers")),
            "peterson.project.calls": n("peterson.project"),
            "peterson.for_weight.calls": n("peterson.for_weight"),
            "sils.root_op.calls": root_calls,
            "sils.root_op.null_frac": frac(self.nulls.get("sils.root_op", 0), root_calls),
            "sils.apply.calls": n("sils.apply"),
            "sils.enumerate.calls": n("sils.enumerate"),
            "sils.enumerate.self_s": self_s.get("sils.enumerate", 0.0),
            "sils.enumerate.paths": self.sizes.get("sils.enumerate", 0),
            "qls.table.self_s": self_s.get("qls.table", 0.0),
            "qls.table.size": self.sizes.get("qls.table", 0),
            "qls.eta_kappa.calls": n("qls.eta_kappa"),
            "qls.eta_kappa.distinct_frac": frac(len(self.distinct["qls.eta_kappa"]), n("qls.eta_kappa")),
            "qls.eta_iota.calls": n("qls.eta_iota"),
            "qls.eta_iota.self_s": self_s.get("qls.eta_iota", 0.0),
            "characters.weyl_character.calls": n("characters.weyl_character"),
            "characters.weyl_character.self_s": self_s.get("characters.weyl_character", 0.0),
            "characters.mul.calls": n("characters.mul"),
        }
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = layer_self(layer)
        return out

    def write_spans(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt") as f:
            f.write("sid\tname\tstart\tend\tparent\top\n")
            for sid, nid, start, end, parent, op in zip(
                self.sid, self.name, self.start, self.end, self.parent, self.op
            ):
                f.write(f"{sid}\t{self.names[nid]}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
