"""Per-layer tracing installed from outside the package.

`Tracer.install()` replaces the public functions of each gapforge module
with wrappers, everywhere the package binds them (a function imported by
name into another module is replaced there too), and `uninstall()` puts
the originals back.  Three kinds of wrapper:

- span: a timed call, kept in memory as one span record;
- hot span: a timed call too frequent to keep one by one, rolled up into
  (calls, ns, self ns) per op, name and nearest kept ancestor span;
- count: a call counter only, for methods too hot to time.

Self time is a span's duration minus the time its child spans cover; a
hot span is a child like any other.  Hooks read arguments and results to
count what a layer did (no-op steps, free bits, compatible answers...).
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from reference import oracle_free_bits

# (module, attribute) -> metric name prefix; "Class.method" attributes are
# patched on the class.
SPANS = {
    ("cli", "main"): "cli.main",
    ("simulate", "pipeline"): "simulate.pipeline",
    ("simulate", "build_filter"): "simulate.build_filter",
    ("simulate", "check_tower_coherence"): "simulate.check_tower_coherence",
    ("poset_p", "p_extend"): "poset_p.p_extend",
    ("poset_p", "p_compatible_oracle"): "poset_p.p_compatible_oracle",
    ("poset_p", "p_join"): "poset_p.p_join",
    ("gaps", "special_gap_check"): "gaps.special_gap_check",
    ("gaps", "uniform_interpolation"): "gaps.uniform_interpolation",
    ("gaps", "c_hausdorff_check"): "gaps.c_hausdorff_check",
    ("gaps", "GapFragment.from_json"): "gaps.GapFragment.from_json",
    ("gaps", "excess_matrix_csv"): "gaps.excess_matrix_csv",
    ("pcc", "generate_pcc_instance"): "pcc.generate_pcc_instance",
    ("pcc", "find_compatible_pair"): "pcc.find_compatible_pair",
    ("pcc", "build_compat_matrix"): "pcc.build_compat_matrix",
    ("pcc", "max_order_rectangle"): "pcc.max_order_rectangle",
}
HOT_SPANS = {
    ("poset_p", "p_leq"): "poset_p.p_leq",
    ("poset_q", "q_leq"): "poset_q.q_leq",
    ("poset_q", "q_compatible"): "poset_q.q_compatible",
    ("gaps", "excess"): "gaps.excess",
}
COUNTS = {
    ("poset_p", "PCondition.__post_init__"): "poset_p.PCondition.constructions",
    ("ordinals", "Ordinal.__lt__"): "ordinals.Ordinal.lt.calls",
    ("ordinals", "Ladder.count_below"): "ordinals.Ladder.count_below.calls",
    ("ordinals", "Ladder.first_index_above"): "ordinals.Ladder.first_index_above.calls",
    ("poset_q", "QContext.check_condition"): "poset_q.check_condition.calls",
}
ORACLE = "poset_p.p_compatible_oracle"


class Tracer:
    def __init__(self, gf):
        self.gf = gf
        self.op = 0
        self.stack: list[list] = []  # open frames: [name, span id, anchor, start ns, child ns]
        self.next_id = 1
        self.spans: list[tuple] = []  # (op, id, parent, name, start ns, end ns, self ns)
        self.rollups: dict[tuple, list[int]] = defaultdict(lambda: [0, 0, 0])  # (op, anchor, name)
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.active: Counter = Counter()  # open frames per name
        self._patches = self._build_patches()

    # --- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, hot):
        pre, post = HOOKS.get(name, (None, None))
        perf = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args, kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            anchor = parent[2] if parent else 0
            if hot:
                frame = [name, 0, anchor, 0, 0]
            else:
                frame = [name, tracer.next_id, tracer.next_id, 0, 0]
                tracer.next_id += 1
            tracer.active[name] += 1
            stack.append(frame)
            frame[3] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.active[name] -= 1
                dur = end - frame[3]
                own = dur - frame[4]
                tracer.calls[name] += 1
                tracer.self_ns[name] += own
                if parent is not None:
                    parent[4] += dur
                if hot:
                    roll = tracer.rollups[(tracer.op, anchor, name)]
                    roll[0] += 1
                    roll[1] += dur
                    roll[2] += own
                else:
                    tracer.spans.append((tracer.op, frame[1], anchor, name, frame[3], end, own))
            if post is not None:
                post(tracer, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _build_patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        modules = list(vars(self.gf).values())
        patches = []
        for table, kind in ((SPANS, "span"), (HOT_SPANS, "hot"), (COUNTS, "count")):
            for (mod, attr), name in table.items():
                module = getattr(self.gf, mod)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[meth]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapped = self._counted(name, fn) if kind == "count" else self._timed(name, fn, False)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(wrapped)
                    patches.append((owner, meth, raw, wrapped))
                    continue
                fn = getattr(module, attr)
                wrapped = self._timed(name, fn, kind == "hot")
                for m in modules:
                    for key, value in vars(m).items():
                        if value is fn:
                            patches.append((m, key, fn, wrapped))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # --- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for table in (SPANS, HOT_SPANS):
            for name in table.values():
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.ms"] = self.self_ns[name] / 1e6
        for name in COUNTS.values():
            out[name] = self.counts[name]
        c = self.counts
        steps = c["simulate.steps"]
        out["simulate.steps"] = steps
        out["simulate.noop_steps"] = c["simulate.noop_steps"]
        out["simulate.useful_step_ratio"] = (steps - c["simulate.noop_steps"]) / steps if steps else 0.0
        out["simulate.trace_entries"] = c["simulate.trace_entries"]
        oracles = self.calls[ORACLE]
        out["poset_p.oracle.free_bits"] = c["oracle.free_bits"] / oracles if oracles else 0.0
        out["poset_p.oracle.p_leq_calls"] = c["oracle.p_leq_calls"]
        out["poset_p.oracle.compatible_ratio"] = c["oracle.compatible"] / oracles if oracles else 0.0
        qc = self.calls["poset_q.q_compatible"]
        out["poset_q.q_compatible.compatible_ratio"] = c["q_compatible.compatible"] / qc if qc else 0.0
        rects = self.calls["pcc.max_order_rectangle"]
        out["pcc.rectangle_size"] = c["pcc.rectangle_size"] / rects if rects else 0.0
        cells = c["pcc.matrix_cells"]
        out["pcc.matrix_true_ratio"] = c["pcc.matrix_true"] / cells if cells else 0.0
        return out

    def write(self, path) -> None:
        """Write every kept span and every roll-up as JSON Lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end, own in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, "self_ns": own}) + "\n")
            for (op, parent, name), (calls, ns, own) in self.rollups.items():
                fh.write(json.dumps({"op": op, "parent": parent, "name": name,
                                     "calls": calls, "ns": ns, "self_ns": own}) + "\n")


# --- hooks: (pre(tracer, args, kwargs), post(tracer, args, result)) --------


def _after_build_filter(t, args, run):
    t.counts["simulate.steps"] += len(run.schedule)
    t.counts["simulate.noop_steps"] += sum(1 for a, b in zip(run.trace, run.trace[1:]) if a is b)
    t.counts["simulate.trace_entries"] += sum(len(getattr(c, "entries", ())) for c in run.trace)


def _before_oracle(t, args, kwargs):
    t.counts["oracle.free_bits"] += oracle_free_bits(args[0], args[1])


def _after_oracle(t, args, result):
    t.counts["oracle.compatible"] += result is not None


def _before_p_leq(t, args, kwargs):
    if t.active[ORACLE]:
        t.counts["oracle.p_leq_calls"] += 1


def _after_q_compatible(t, args, result):
    t.counts["q_compatible.compatible"] += result is not None


def _after_matrix(t, args, m):
    t.counts["pcc.matrix_cells"] += sum(len(row) for row in m.cells)
    t.counts["pcc.matrix_true"] += sum(sum(row) for row in m.cells)


def _after_rectangle(t, args, result):
    rows, cols = result
    t.counts["pcc.rectangle_size"] += len(rows) + len(cols)


HOOKS = {
    "simulate.build_filter": (None, _after_build_filter),
    ORACLE: (_before_oracle, _after_oracle),
    "poset_p.p_leq": (_before_p_leq, None),
    "poset_q.q_compatible": (None, _after_q_compatible),
    "pcc.build_compat_matrix": (None, _after_matrix),
    "pcc.max_order_rectangle": (None, _after_rectangle),
}
