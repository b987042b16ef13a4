"""The four benchmark workloads: input generators, the timed op, and the
output checks.

Every op reads one input from a table of TABLE seeds: op k of a run with
seed n uses input seed (n + k) mod TABLE, so the same seed gives the same
inputs.  A run makes whole passes over the table (BATCH ops each), so every
run times the same inputs and the seed only sets where a pass starts: the
op costs differ between inputs, and a seed-chosen subset would add to the
spread between runs.  The expected output of every table entry was recorded
once (`expected.json`, written by `record.py`); an op whose output digest
differs from the record, or whose output fails the structural checks here,
counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from pathlib import Path

from reference import ref_p_leq


class CheckFailed(Exception):
    """An op's output is wrong."""


def digest(text: str) -> str:
    """The first 16 hex digits of the SHA-256 of `text`."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Call `gapforge.cli.main` in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects flags this way
            rc = e.code if isinstance(e.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _ord_key(o) -> tuple[int, int]:
    """Ordinal JSON [q, r] or map key "q.r" as a comparable (q, r)."""
    if isinstance(o, str):
        q, r = o.split(".")
        return int(q), int(r)
    return int(o[0]), int(o[1])


class Workload:
    """One workload: `op(k)` is the timed call, `check(k, out)` runs after it."""

    name = ""
    TABLE = 1
    BATCH = 1  # ops in one pass over the table

    def __init__(self, gf, seed: int, workdir: Path, expected: dict[str, str]):
        self.gf = gf
        self.seed = seed
        self.workdir = workdir
        self.expected = expected

    def input_seed(self, k: int) -> int:
        return (self.seed + k) % self.TABLE

    def key(self, k: int) -> str:
        return str(self.input_seed(k))

    def op(self, k: int):
        raise NotImplementedError

    def digest(self, k: int, out) -> str:
        raise NotImplementedError

    def verify(self, k: int, out) -> None:
        """Structural checks that hold whatever the recorded digests say."""

    def check(self, k: int, out) -> None:
        self.verify(k, out)
        want = self.expected.get(self.key(k))
        require(want is not None, f"no recorded digest for input {self.key(k)}")
        require(self.digest(k, out) == want, f"output digest differs for input {self.key(k)}")

    def properties(self) -> dict:
        """Deterministic properties of the inputs run so far."""
        return {}


# --- forge: the full pipeline at 40 indices, height 64 ----------------------


class Forge(Workload):
    name = "forge"
    # Op costs differ by up to 1.3x between inputs.  At 40 indices and
    # height 64 an op takes 0.3-0.4 s, short enough that the calibrations
    # on either side of it see the machine speed it ran at (80 x 128 takes
    # 2-4 s, and the speed can change within one op).
    TABLE = 8
    BATCH = TABLE
    WSIZE = 10
    ARGS = ["pipeline", "--indices", "40", "--height", "64", "--wsize", str(WSIZE)]

    def __init__(self, *a):
        super().__init__(*a)
        self.argvs = [self.ARGS + ["--seed", str(s)] for s in range(self.TABLE)]

    def op(self, k):
        return run_cli(self.gf.cli, self.argvs[self.input_seed(k)])

    def digest(self, k, out):
        return digest(out[1])

    def verify(self, k, out):
        rc, text, err = out
        require(rc == 0, f"pipeline exited {rc}: {err.strip()}")
        report = json.loads(text)
        frag = report["fragment"]
        for key, members in frag["a"].items():
            require(set(members) <= set(frag["b"][key]), f"a[{key}] escapes b[{key}]")
        selected = [_ord_key(o) for o in report["W"]]
        indices = {_ord_key(o) for o in frag["I"]}
        require(len(selected) >= self.WSIZE, f"|W| = {len(selected)} < {self.WSIZE}")
        require(set(selected) <= indices, "W leaves the forged index set")
        # default partition: every block limit up to the top block, S = D
        limits = range(1, max(q for q, _ in indices) + 1)
        owed = sum(1 for d in limits for j in selected if j >= (d, 0))
        require(len(report["witnesses"]) == owed, f"{len(report['witnesses'])} witnesses for {owed} queries")
        for w in report["witnesses"]:
            require(0 <= w["k"] <= w["n_star"], f"bad witness {w}")


# --- pcc: the chain-condition lab on 120 x 120 families ---------------------


class Pcc(Workload):
    name = "pcc"
    TABLE = 16  # a pass takes 6-11 s
    BATCH = TABLE
    T = 120
    EXACT_ROWS = 12  # the rectangle search is exhaustive while 2^rows <= 4096

    def __init__(self, *a):
        super().__init__(*a)
        self.argvs = [
            ["pcc", "--t1", str(self.T), "--t2", str(self.T), "--seed", str(s)]
            for s in range(self.TABLE)
        ]
        self.paths = Counter()

    def op(self, k):
        return run_cli(self.gf.cli, self.argvs[self.input_seed(k)])

    def digest(self, k, out):
        report = json.loads(out[1])
        return digest(json.dumps([report["pair"], report["matrix_csv"]], sort_keys=True))

    def verify(self, k, out):
        rc, text, err = out
        require(rc == 0, f"pcc exited {rc}: {err.strip()}")
        report = json.loads(text)
        pair = report["pair"]
        require(_ord_key(pair["delta1"]) < _ord_key(pair["delta2"]), "pair is not order-respecting")
        lines = [ln.split(",") for ln in report["matrix_csv"].split("\n") if ln]
        cols = [_ord_key(c) for c in lines[0][1:]]
        rows = {_ord_key(ln[0]): ln[1:] for ln in lines[1:]}
        col_pos = {c: y for y, c in enumerate(cols)}
        rect_rows = [_ord_key(o) for o in report["rectangle"]["rows"]]
        rect_cols = [_ord_key(o) for o in report["rectangle"]["cols"]]
        require(set(rect_rows) <= set(rows) and set(rect_cols) <= set(col_pos), "rectangle leaves the matrix")
        for x in rect_rows:
            for y in rect_cols:
                if x < y:
                    require(rows[x][col_pos[y]] == "1", f"rectangle cell ({x}, {y}) is incompatible")
        self.paths["exact" if len(rows) <= self.EXACT_ROWS else "greedy"] += 1

    def properties(self):
        return {"rectangle_path": dict(self.paths)}


# --- compat: the exhaustive P oracle and the canonical joins -----------------

# The op kind of input seed s is fixed by s mod CYCLE, so every run holds the
# same mix: even slots are oracle queries, odd slots joins.  ORACLE_SLOTS
# gives each oracle slot its free bits and whether the pair is incompatible
# by construction; a quarter are, and each of those searches all 2^free
# candidates, so the tail of the op times is the exhaustive search.
CYCLE = 32
ORACLE_SLOTS = (
    (0, False), (2, False), (4, False), (6, False), (8, False), (10, False), (12, False), (14, False),
    (0, False), (2, True), (4, False), (6, True), (8, False), (10, True), (12, False), (14, True),
)
FREE_BITS_CAP = 14  # one 16-bit query alone takes seconds


def _ordinal_pool(ordinals):
    return [ordinals.Ordinal(q, r) for q in range(4) for r in range(6)]


def _random_words(rng, length):
    hi = [rng.random() < 0.5 for _ in range(length)]
    lo = [h and rng.random() < 0.5 for h in hi]
    return "".join("1" if b else "0" for b in lo), "".join("1" if b else "0" for b in hi)


def _extend_monotone(rng, words, start, stop):
    """Append stop - start bits to each (low, high) pair so that the bits
    added at an index reappear at every index above it in the two-sided
    order; `words` maps ordinal -> (low, high) and is not modified."""
    order = sorted(((o, s) for o in words for s in (0, 1)), key=_index_sort)
    granted: set[int] = set()
    out = {o: ["", ""] for o in words}
    for o, s in order:
        granted |= {k for k in range(start, stop) if rng.random() < 0.3}
        out[o][s] = words[o][s] + "".join("1" if k in granted else "0" for k in range(start, stop))
    return {o: tuple(pair) for o, pair in out.items()}


def _index_sort(i):
    o, s = i
    return (0, o.q, o.r) if s == 0 else (1, -o.q, -o.r)


def compat_input(gf, s: int):
    """(kind, p, q, meta) for input seed s."""
    rng = random.Random(s)
    PCondition = gf.poset_p.PCondition
    pool = _ordinal_pool(gf.ordinals)
    slot = s % CYCLE
    if slot % 2 == 0:
        free, incompatible = ORACLE_SLOTS[slot // 2]
        # free = 2 * gap * (ordinals only p carries); at most two of those
        splits = [(free // 2 // n, n) for n in (1, 2) if free and (free // 2) % n == 0]
        gap, n_own = rng.choice(splits) if splits else (rng.randint(0, 3), 0)
        n_shared = rng.randint(2, 3)
        n_qonly = rng.randint(0, 1)
        chosen = rng.sample(pool, n_shared + n_own + n_qonly)
        shared, own, qonly = chosen[:n_shared], chosen[n_shared:n_shared + n_own], chosen[n_shared + n_own:]
        h = rng.randint(2, 5)
        pw = {o: _random_words(rng, h) for o in shared + own}
        qw = _extend_monotone(rng, {o: pw[o] for o in shared}, h, h + gap)
        if incompatible:
            # a bit granted at (o1, 0) but missing at (o2, 0) above it
            o1, o2 = sorted(rng.sample(shared, 2))
            k = rng.randrange(h, h + gap)
            qw[o1] = tuple(w[:k] + "1" + w[k + 1:] for w in qw[o1])
            qw[o2] = (qw[o2][0][:k] + "0" + qw[o2][0][k + 1:], qw[o2][1])
        for o in qonly:
            qw[o] = _random_words(rng, h + gap)
        p, q = PCondition(h, pw), PCondition(h + gap, qw)
        return "oracle", p, q, {"free_bits": free, "incompatible": incompatible}
    n_p = rng.randint(3, 6)
    chosen = rng.sample(pool, n_p + 2)
    dom_p, spare = chosen[:n_p], chosen[n_p:]
    h = rng.randint(2, 6)
    gap = rng.randint(0, 4)
    pw = {o: _random_words(rng, h) for o in dom_p}
    core = rng.sample(dom_p, rng.randint(1, n_p - 1))
    qw = _extend_monotone(rng, {o: pw[o] for o in core}, h, h + gap)
    for o in spare[: rng.randint(0, 2)]:
        qw[o] = _random_words(rng, h + gap)
    kind = "join" if slot % 4 == 1 else "join_from_core"
    return kind, PCondition(h, pw), PCondition(h + gap, qw), {}


class Compat(Workload):
    name = "compat"
    # The op costs are heavy-tailed: a few exhaustive searches carry most of
    # the time.
    TABLE = 8 * CYCLE
    BATCH = TABLE

    def __init__(self, *a):
        super().__init__(*a)
        self.inputs = [compat_input(self.gf, s) for s in range(self.TABLE)]
        self.free_hist = Counter()
        self.answers = Counter()

    def op(self, k):
        kind, p, q, _ = self.inputs[self.input_seed(k)]
        poset_p = self.gf.poset_p
        if kind == "oracle":
            return poset_p.p_compatible_oracle(p, q)
        if kind == "join":
            return poset_p.p_join(p, q)
        return poset_p.p_join_from_core(q, p)

    def digest(self, k, out):
        answer = {"compatible": out is not None, "witness": out.to_json() if out is not None else None}
        return digest(json.dumps(answer, sort_keys=True))

    def verify(self, k, out):
        kind, p, q, meta = self.inputs[self.input_seed(k)]
        if kind == "oracle":
            self.free_hist[meta["free_bits"]] += 1
            self.answers["compatible" if out is not None else "incompatible"] += 1
            require((out is None) == meta["incompatible"], "compatibility differs from the construction")
            if out is not None:
                require(out.height == max(p.height, q.height), "witness height")
                require(set(out.entries) == set(p.entries) | set(q.entries), "witness domain")
                require(ref_p_leq(p, out) and ref_p_leq(q, out), "witness does not extend both inputs")
            return
        require(out is not None, "join returned nothing")
        require(ref_p_leq(p, out) and ref_p_leq(q, out), "join does not extend both inputs")
        require(out.height == q.height, "join height")
        require(all(out.entries[o] == q.entries[o] for o in q.entries), "join differs from q on dom(q)")
        require(set(out.entries) == set(p.entries) | set(q.entries), "join domain")

    def properties(self):
        asked = sum(self.answers.values())
        return {
            "oracle_free_bits_hist": dict(sorted(self.free_hist.items())),
            "oracle_incompatible_share": self.answers["incompatible"] / asked if asked else 0.0,
        }


# --- check: the gap predicates over saved diagrams --------------------------


BLOCK = 24
INDICES = 96
UNIVERSE = 192
PREDICATES = ("special", "interpolate", "c-hausdorff")


def check_diagram(s: int) -> tuple[dict, int]:
    """(fragment JSON, n0) for diagram seed s.

    Seeds cycle through four shapes so that the pool holds every verdict.
    In the first three, every a-set is a high core that every b-set holds
    plus low noise below a per-index reach: a reach growing along each
    block (the ladder clause tends to hold), a random reach (it tends to
    fail), and a reach of at most 4 under n0 = 12 (uniform interpolation
    holds).  The fourth has no core and sparse random sets, so no pair is
    jointly included and the special predicate scans every pair and holds.
    """
    rng = random.Random(s)
    shape = s % 4
    core = set() if shape == 3 else {v for v in range(64, UNIVERSE) if rng.random() < 0.5}
    idx = [(k // BLOCK, k % BLOCK) for k in range(INDICES)]
    a, b = {}, {}
    for q, r in idx:
        if shape == 3:
            low = {v for v in range(UNIVERSE) if rng.random() < 0.2}
        else:
            reach = (2 * r + rng.randint(0, 8), rng.randint(0, 48), rng.randint(0, 4))[shape]
            low = {v for v in range(reach) if rng.random() < 0.5}
        a[f"{q}.{r}"] = sorted(core | low)
        b[f"{q}.{r}"] = sorted(core | low | {v for v in range(UNIVERSE) if rng.random() < 0.05})
    frag = {"universe": UNIVERSE, "I": [list(o) for o in idx], "J": [list(o) for o in idx], "a": a, "b": b}
    return frag, 12 if shape == 2 else rng.randint(0, 12)


class Check(Workload):
    name = "check"
    TABLE = 8  # diagrams, each asked every predicate in a pass
    BATCH = TABLE * len(PREDICATES)

    def __init__(self, *a):
        super().__init__(*a)
        self.workdir.mkdir(parents=True, exist_ok=True)
        limits = [[q, 0] for q in range(1, INDICES // BLOCK)]
        (self.workdir / "ladder.json").write_text(json.dumps({"mode": "canonical"}))
        (self.workdir / "partition.json").write_text(json.dumps({"S": limits, "T": [], "D": limits}))
        self.argvs = []
        for ds in range(self.TABLE):
            frag, n0 = check_diagram(ds)
            gap = self.workdir / f"gap-{ds}.json"
            manifest = self.workdir / f"manifest-{ds}.json"
            gap.write_text(json.dumps(frag))
            manifest.write_text(json.dumps({"gap": gap.name, "ladder": "ladder.json", "partition": "partition.json"}))
            self.argvs.append({
                "special": ["check", "special", "--gap", str(gap), "--n0", str(n0)],
                "interpolate": ["check", "interpolate", "--gap", str(gap), "--n0", str(n0)],
                "c-hausdorff": ["check", "c-hausdorff", "--manifest", str(manifest)],
            })
        self.n_star = set()

    def _pick(self, k):
        return self.input_seed(k), PREDICATES[(k // self.TABLE) % len(PREDICATES)]

    def key(self, k):
        return "{}:{}".format(*self._pick(k))

    def op(self, k):
        i, pred = self._pick(k)
        return run_cli(self.gf.cli, self.argvs[i][pred])

    def digest(self, k, out):
        return digest(f"{out[0]}\n{out[1]}")

    def verify(self, k, out):
        rc, text, err = out
        require(rc in (0, 1), f"check exited {rc}: {err.strip()}")
        report = json.loads(text)
        _, pred = self._pick(k)
        require(report["predicate"] == pred, "wrong predicate in the report")
        if pred == "c-hausdorff":
            require(report["holds"] == (rc == 0) == (not report["failures"]), "verdict and exit code disagree")
            self.n_star.update(w["n_star"] for w in report["witnesses"])
        elif pred == "special":
            require(report["holds"] == (rc == 0), "verdict and exit code disagree")
        else:
            require((report["witness"] is not None) == (rc == 0), "verdict and exit code disagree")

    def properties(self):
        if not self.n_star:
            return {}
        return {"n_star_min": min(self.n_star), "n_star_max": max(self.n_star)}


WORKLOADS = {w.name: w for w in (Forge, Pcc, Compat, Check)}

