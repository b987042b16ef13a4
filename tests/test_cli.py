import hashlib
import io
import json
import random
import subprocess
import sys

import pytest

from gapforge import (
    GapFragment,
    InvariantViolation,
    Ladder,
    Ordinal,
    PCondition,
    QContext,
    SPartition,
    cli,
    gaps,
    simulate,
)
from gapforge.cli import build_parser, main
from gapforge.gaps import MAX_INDICES, MAX_UNIVERSE, Failures, Witnesses
from gapforge.pcc import MAX_FAMILY
from gaps_reference import report_default
from helpers import fin, mask, traced_peak, word_from_bits


def _write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_simulate_p_trivial(tmp_path):
    out = tmp_path / "frag.json"
    assert main(["simulate-p", "--indices", "0", "--height", "0", "--out", str(out)]) == 0
    frag = GapFragment.from_json(json.loads(out.read_text()))
    assert frag.universe == 0 and frag.I == ()


def test_simulate_p_missing_out_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate-p", "--indices", "2", "--height", "4"])
    assert exc.value.code == 2


def test_simulate_p_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["simulate-p", "--indices", "20", "--height", "64", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    frag = GapFragment.from_json(json.loads(a.read_text()))
    assert len(frag.I) == 20 and frag.universe == 64


def test_seed_env_var(tmp_path, monkeypatch):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    monkeypatch.setenv("GAPFORGE_SEED", "11")
    assert main(["simulate-p", "--indices", "6", "--height", "8", "--out", str(a)]) == 0
    monkeypatch.delenv("GAPFORGE_SEED")
    assert main(["simulate-p", "--indices", "6", "--height", "8", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.setenv("GAPFORGE_SEED", "12")
    # the flag wins over the environment
    assert main(["simulate-p", "--indices", "6", "--height", "8", "--seed", "11", "--out", str(c)]) == 0
    assert c.read_bytes() == a.read_bytes()


def _tiny_special_fragment():
    return GapFragment(
        4,
        {fin(0): mask({0}), fin(1): mask({1})},
        {fin(0): mask({0}), fin(1): mask({1})},
    )


def test_check_special(tmp_path):
    gap = _write(tmp_path / "gap.json", _tiny_special_fragment().to_json())
    assert main(["check", "special", "--gap", gap, "--n0", "0"]) == 0
    bad = GapFragment(
        4,
        {fin(0): mask({0}), fin(1): mask({1})},
        {fin(0): mask({0, 1}), fin(1): mask({0, 1})},
    )
    gap2 = _write(tmp_path / "gap2.json", bad.to_json())
    assert main(["check", "special", "--gap", gap2, "--n0", "0"]) == 1


def test_a_decoder_rebound_after_import_is_the_one_loading_calls(tmp_path, monkeypatch):
    """The loader looks `from_json` up on the class at each load, so a wrapper
    installed after the CLI is imported (as a tracer installs one) sees it."""
    gap = _write(tmp_path / "gap.json", _tiny_special_fragment().to_json())
    original = GapFragment.from_json.__func__
    calls = []

    def counted(cls, data):
        calls.append(data)
        return original(cls, data)

    monkeypatch.setattr(GapFragment, "from_json", classmethod(counted))
    assert main(["check", "special", "--gap", gap]) == 0
    assert len(calls) == 1


def test_check_interpolate(tmp_path):
    gap = _write(tmp_path / "gap.json", _tiny_special_fragment().to_json())
    # max excess is 2 (the element 1 escapes b_0), so n0 below that fails
    assert main(["check", "interpolate", "--gap", gap, "--n0", "0"]) == 1
    assert main(["check", "interpolate", "--gap", gap, "--n0", "1"]) == 1
    out = tmp_path / "report.json"
    assert main(["check", "interpolate", "--gap", gap, "--n0", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["witness"] is not None


def _hausdorff_inputs(root, full_b=False):
    """gap, ladder and partition files for `check c-hausdorff` under root:
    the ladder clause holds, or with full b-sets only fails."""
    root.mkdir(parents=True, exist_ok=True)
    a = {fin(i): mask(range(i + 1)) for i in range(1, 5)}
    a[Ordinal(1, 1)] = 0
    b = {o: mask(range(8)) if full_b else 0 for o in a}
    limits = frozenset({Ordinal(1, 0)})
    return (
        _write(root / "gap.json", GapFragment(8, a, b).to_json()),
        _write(root / "ladder.json", Ladder.canonical().to_json()),
        _write(root / "part.json", SPartition(S=limits, T=frozenset(), D=limits).to_json()),
    )


def test_check_c_hausdorff_with_manifest(tmp_path):
    _hausdorff_inputs(tmp_path)
    manifest = _write(
        tmp_path / "manifest.json",
        {"gap": "gap.json", "ladder": "ladder.json", "partition": "part.json"},
    )
    out = tmp_path / "report.json"
    assert main(["check", "c-hausdorff", "--manifest", manifest, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["holds"] is True and report["witnesses"]

    # full b-sets leave only the vacuous threshold: the check reports failures
    _hausdorff_inputs(tmp_path, full_b=True)
    assert main(["check", "c-hausdorff", "--manifest", manifest]) == 1


def test_check_c_hausdorff_table_too_short(tmp_path, capsys):
    gap, _, part = _hausdorff_inputs(tmp_path)
    short = _write(
        tmp_path / "ladder.json", Ladder.explicit({Ordinal(1, 0): [fin(0), fin(1)]}).to_json()
    )
    code = main(["check", "c-hausdorff", "--gap", gap, "--ladder", short, "--partition", part])
    assert code == 2
    assert "TableTooShort" in capsys.readouterr().err


def test_check_c_hausdorff_cost_does_not_grow_with_an_index(tmp_path):
    # the canonical ladder at w needs 10**9 + 1 rungs to clear the index
    # 10**9; the check counts them, it does not list them
    far, j = fin(10**9), Ordinal(1, 1)
    frag = GapFragment(4, {far: mask({1}), j: mask({3})}, {far: mask({0}), j: mask({2})})
    limits = frozenset({Ordinal(1, 0)})
    argv = [
        "check", "c-hausdorff",
        "--gap", _write(tmp_path / "gap.json", frag.to_json()),
        "--ladder", _write(tmp_path / "ladder.json", Ladder.canonical().to_json()),
        "--partition", _write(tmp_path / "part.json", SPartition(S=limits, D=limits).to_json()),
    ]
    code, peak = traced_peak(main, argv)
    assert code in (0, 1)
    assert peak < 2**20


def test_check_rejects_a_huge_member_without_building_it(tmp_path, capsys):
    frag = _tiny_special_fragment().to_json()
    frag["a"]["0.1"] = [1, 10**9]
    gap = _write(tmp_path / "gap.json", frag)
    code, peak = traced_peak(main, ["check", "special", "--gap", gap])
    assert code == 2
    assert "1000000000" in capsys.readouterr().err
    assert peak < 16 * 2**20  # the set itself would take 119 MiB


def test_check_rejects_a_huge_universe_without_building_it(tmp_path, capsys):
    top = [10**9 - 1]
    frag = {"universe": 10**9, "I": [[0, 0]], "J": [[0, 0]], "a": {"0.0": top}, "b": {"0.0": top}}
    gap = _write(tmp_path / "gap.json", frag)
    code, peak = traced_peak(main, ["check", "special", "--gap", gap])
    assert code == 2
    assert "1000000000" in capsys.readouterr().err
    assert peak < 16 * 2**20  # either tower set would take 119 MiB


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-p", "--indices", "4", "--out", "never-written.json"],
        ["pipeline", "--indices", "4", "--wsize", "2", "--out", "never-written.json"],
    ],
    ids=["simulate-p", "pipeline"],
)
@pytest.mark.parametrize("height", [MAX_UNIVERSE + 1, 10**9])
def test_height_above_the_universe_limit_exits_2(argv, height, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, peak = traced_peak(main, argv + ["--height", str(height)])
    assert code == 2
    assert str(MAX_UNIVERSE) in capsys.readouterr().err
    assert not (tmp_path / "never-written.json").exists()
    assert peak < 2**20  # refused before a level is drawn


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-p", "--height", "1", "--out", "never-written.json"],
        ["pipeline", "--height", "1", "--wsize", "1", "--out", "never-written.json"],
    ],
    ids=["simulate-p", "pipeline"],
)
def test_indices_above_the_forge_limit_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, peak = traced_peak(main, argv + ["--indices", str(MAX_INDICES + 1)])
    assert code == 2
    assert str(MAX_INDICES) in capsys.readouterr().err
    assert not (tmp_path / "never-written.json").exists()
    assert peak < 2**20  # nothing is forged, not even the index list


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-p", "--out", "never-written.json"],
        ["pipeline", "--wsize", "1", "--out", "never-written.json"],
    ],
    ids=["simulate-p", "pipeline"],
)
def test_indices_times_height_above_the_forge_limit_exit_2(argv, tmp_path, monkeypatch, capsys):
    """Each count passes its own limit; their product, 2^27 levels to draw,
    does not."""
    monkeypatch.chdir(tmp_path)
    code, peak = traced_peak(main, argv + ["--indices", str(MAX_INDICES), "--height", str(MAX_UNIVERSE)])
    assert code == 2
    assert f"exceeds the forge limit {MAX_INDICES}^2" in capsys.readouterr().err
    assert not (tmp_path / "never-written.json").exists()
    assert peak < 2**20  # refused before a level is drawn


def test_the_forge_limit_admits_every_index_count_at_height_equal_to_it():
    for indices, height in ((MAX_INDICES, MAX_INDICES), (MAX_INDICES**2 // MAX_UNIVERSE, MAX_UNIVERSE)):
        cli._check_size(indices, height)
    with pytest.raises(ValueError, match="forge limit"):
        cli._check_size(MAX_INDICES, MAX_INDICES + 1)


def _blank_diagram(sets: int, universe: int) -> dict:
    """A diagram file of `sets` indices on each side, each set {universe - 1}."""
    idx = [o.to_json() for o in simulate.default_index_blocks(sets)]
    side = {f"{q}.{r}": [universe - 1] for q, r in idx}
    return {"universe": universe, "I": idx, "J": idx, "a": side, "b": side}


def test_every_diagram_the_forge_admits_loads_and_no_larger_side():
    """The loader's cap on sets times universe is the forge's product cap,
    read from the one constant that `cli` checks the forge against: a side
    of one more set at the cap is refused."""
    assert cli.MAX_INDICES is gaps.MAX_INDICES == MAX_INDICES
    at_cap = MAX_INDICES**2 // MAX_UNIVERSE
    for indices, height in ((MAX_INDICES, MAX_INDICES), (at_cap, MAX_UNIVERSE), (1, MAX_UNIVERSE)):
        cli._check_size(indices, height)
        g = GapFragment.from_json(_blank_diagram(indices, height))
        assert len(g.a) == len(g.b) == indices and g.a[fin(0)] == 1 << (height - 1)
        if indices * height == MAX_INDICES**2:
            with pytest.raises(ValueError, match=f"exceed the load limit {MAX_INDICES}"):
                GapFragment.from_json(_blank_diagram(indices + 1, height))


def test_a_diagram_at_the_load_limit_loads_through_check_special(tmp_path):
    """64 sets at universe 65536 on each side: 2^22 bytes of words per side."""
    data = _blank_diagram(MAX_INDICES**2 // MAX_UNIVERSE, MAX_UNIVERSE)
    assert len(data["a"]) * data["universe"] == MAX_INDICES**2
    assert main(["check", "special", "--gap", _write(tmp_path / "gap.json", data)]) == 1


@pytest.mark.parametrize("sets", [MAX_INDICES**2 // MAX_UNIVERSE + 1, 20_000], ids=["65-sets", "20000-sets"])
def test_a_diagram_over_the_load_limit_exits_2_before_reading_a_member(sets, tmp_path, capsys):
    """One more set than the cap at universe 65536, or 20,000 one-member
    sets, which the unchecked loader would write as 1.3 GB of words: refused
    before a word is written."""
    gap = _write(tmp_path / "gap.json", _blank_diagram(sets, MAX_UNIVERSE))
    code, peak = traced_peak(main, ["check", "special", "--gap", gap])
    assert code == 2
    expected = f"gapforge: ValueError: {sets} a-sets by universe {MAX_UNIVERSE} exceed the load limit {MAX_INDICES}^2\n"
    assert capsys.readouterr() == ("", expected)
    assert peak < 16 * 2**20  # 65 sets alone would take 520 KiB of masks, 20,000 sets 160 MiB


def test_two_negative_counts_are_refused_as_naturals_not_by_the_product_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate-p", "--indices", "-3000", "--height", "-3000", "--out", "x.json"]) == 2
    assert "index count must be a natural" in capsys.readouterr().err


def test_simulate_p_writes_no_diagram_that_fails_its_checks(tmp_path, monkeypatch, capsys):
    def planted(masks, entry):
        raise InvariantViolation("tower-coherence", "planted failure")

    monkeypatch.setattr(simulate, "check_tower_coherence", planted)
    out = tmp_path / "frag.json"
    assert main(["simulate-p", "--indices", "4", "--height", "8", "--out", str(out)]) == 3
    assert "planted failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-p", "--out", "never-written.json"],
        ["pipeline", "--wsize", "20", "--out", "never-written.json"],
    ],
    ids=["simulate-p", "pipeline"],
)
def test_more_indices_than_the_height_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, peak = traced_peak(main, argv + ["--indices", "80", "--height", "64"])
    assert code == 2
    assert "80 indices exceed the target height 64" in capsys.readouterr().err
    assert not (tmp_path / "never-written.json").exists()
    assert peak < 2**20  # refused before a level plan is drawn


# SHA-256 of reports written before conditions stored masks (pipeline,
# simulate-p) and before the rungs were counted once per delta (pcc); sizes
# and seeds outside the benchmark's tables
def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def _run(argv, capsys) -> tuple:
    """main(argv) in-process: (exit code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    return (code, *capsys.readouterr())


def test_the_cached_parser_answers_as_a_fresh_one(tmp_path, capsys):
    gap = _write(tmp_path / "gap.json", _tiny_special_fragment().to_json())
    argvs = [
        ["pipeline", "--indices", "8", "--height", "8", "--wsize", "2", "--seed", "1"],
        ["check", "special", "--gap", gap, "--n0", "0"],
        ["pcc", "--t1", "4", "--t2", "4", "--seed", "2"],
        ["pcc", "--t1", "four"],
    ]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(_run(argv, capsys))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2]
    # back to back, twice over, on the one parser built by the last call
    assert [_run(argv, capsys) for argv in argvs * 2] == fresh * 2


# The files the GOLDEN commands read, by name.  p.json leaves [0, 3] open
# beyond its height 2: against q-open.json (height 6) the witness has 8
# free bits there and must carry the bits q-open grants at [0, 1] up to it.
# q-clash.json agrees with p.json on every prefix but fixes a 0 at [0, 3]
# where that carry needs a 1, so the pair is incompatible.  The ladder and
# the partition are the context of `check c-hausdorff` on frag.json, the
# forged 40 x 64 diagram of seed 7, and on gap-mixed.json, a hand-made
# diagram where the check fails: at w, a_3 = {4} lies inside b_j for
# j = w+1 and w*2+1, so only the vacuous k = n_star = 4 survives, while
# w+2 keeps the witness k = 3 (excess(a_2, b_{w+2}) = 2 < t_2 = 3); at w*2,
# w*2+1 has k = 0 and n_star = 3.
GOLDEN_INPUTS = {
    "p.json": {"height": 2, "entries": [
        {"ord": [0, 1], "a_bits": "10", "b_bits": "11"},
        {"ord": [0, 3], "a_bits": "00", "b_bits": "01"},
    ]},
    "q-open.json": {"height": 6, "entries": [
        {"ord": [0, 1], "a_bits": "101011", "b_bits": "111111"},
        {"ord": [0, 2], "a_bits": "010000", "b_bits": "011001"},
    ]},
    "q-clash.json": {"height": 4, "entries": [
        {"ord": [0, 1], "a_bits": "1010", "b_bits": "1110"},
        {"ord": [0, 3], "a_bits": "0000", "b_bits": "0110"},
    ]},
    "gap-mixed.json": {
        "universe": 6,
        "I": [[0, 1], [0, 2], [0, 3], [1, 1], [1, 2], [2, 1]],
        "J": [[0, 1], [0, 2], [0, 3], [1, 1], [1, 2], [2, 1]],
        "a": {"0.1": [0], "0.2": [1], "0.3": [4], "1.1": [5], "1.2": [2, 5], "2.1": []},
        "b": {"0.1": [0, 1], "0.2": [1, 4], "0.3": [4], "1.1": [4, 5], "1.2": [5], "2.1": [4]},
    },
    "ladder.json": {"mode": "canonical"},
    "partition.json": {"S": [[1, 0], [2, 0], [4, 0]], "T": [[3, 0]], "D": [[1, 0], [2, 0], [3, 0], [4, 0]]},
}

# (argv, exit code, SHA-256 of the report)
GOLDEN = [
    (["pipeline", "--indices", "80", "--height", "128", "--wsize", "10", "--seed", "3"], 0,
     "3f0da0f30903d2766fc7b27fa35a399abe76ad891f3001fe981bca004605c783"),
    (["pipeline", "--indices", "160", "--height", "256", "--wsize", "10", "--seed", "0"], 0,
     "4f0b6910c55553f4312937fc0e19c2ea9fb5010991668e46e8e02ff880148f2c"),
    (["simulate-p", "--indices", "64", "--height", "64", "--seed", "7"], 0,
     "1383225a867d7aff4c22644674d60aa8dc943e7027efb25768c2e73896852797"),
    (["simulate-p", "--indices", "24", "--height", "4096", "--seed", "5"], 0,
     "0c5ee6e652e22c3c58a8153be700498320838c9ccb261a1947f9acddd556fd5e"),
    (["pipeline", "--indices", "256", "--height", "256", "--wsize", "64", "--seed", "1"], 0,
     "19956a9537e5a402f513d46c03e7e1f4699ea97c5675333e9008ea150b72c9b0"),
    (["pcc", "--t1", "120", "--t2", "120", "--seed", "21"], 0,
     "6561890b4ce833a180f443a0b86b48f07815e505846667248fbf47bc97442fa6"),
    (["pcc", "--t1", "30", "--t2", "8", "--seed", "1"], 0,
     "ef2da7262da1f190b0059b48a470a9755f94e06211d442ad366eac74c598edf5"),
    (["oracle", "p", "--cond1", "p.json", "--cond2", "q-open.json"], 0,
     "39d80854076497c51174e021812ebda947156cfd7f2e12822751ba40c874cee4"),
    (["oracle", "p", "--cond1", "p.json", "--cond2", "q-clash.json"], 1,
     "58a25b6d5f9918a2eab22c0260f13638109cafadea6b6897271a6e695ba75267"),
    (["check", "c-hausdorff", "--gap", "frag.json", "--ladder", "ladder.json", "--partition", "partition.json"], 0,
     "9229d779903794f4bc4266f09ba109694b38107fca1ac00d85cbe430b65d909e"),
    (["check", "c-hausdorff", "--gap", "gap-mixed.json", "--ladder", "ladder.json", "--partition", "partition.json"],
     1, "7ff4c8dbe6509ecda687af149e99a89431c1bbdc7c90ea6297093d344fb38f2f"),
]


@pytest.mark.parametrize(
    "argv, code, sha",
    GOLDEN,
    ids=[
        "pipeline-80x128", "pipeline-160x256", "simulate-p-64x64", "simulate-p-24x4096",
        "pipeline-256x256", "pcc-120x120", "pcc-30x8", "oracle-p-compatible", "oracle-p-incompatible",
        "check-c-hausdorff-40x64", "check-c-hausdorff-failing",
    ],
)
def test_reports_match_their_golden_digests(argv, code, sha, tmp_path, monkeypatch):
    """Each report has its pinned digest, and is the text json.dumps gives
    for the object the command emitted, with its fragment and witnesses in
    their reference dict forms."""
    monkeypatch.chdir(tmp_path)
    for name, obj in GOLDEN_INPUTS.items():
        _write(tmp_path / name, obj)
    _write(tmp_path / "frag.json", simulate.forge(simulate.default_index_blocks(40), 64, 7).to_json())
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda obj, out: (emitted.append(obj), emit(obj, out)))
    assert main(argv + ["--out", "out.json"]) == code
    text = (tmp_path / "out.json").read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha
    assert [text] == [json.dumps(obj, sort_keys=True, indent=2, default=report_default) + "\n" for obj in emitted]


def _written(obj) -> str:
    buf = io.StringIO()
    cli._write_json(buf.write, obj, "")
    return buf.getvalue()


# keys json must escape or sort by text: quotes, backslashes, control
# characters, non-ASCII, and "10.0" before "2.0"
_KEYS = ["", "a", 'say "hi"', "back\\slash", "\x00\x1f\t\n\x7f", "na\u00efve \u2603 \U0001f600", "10.0", "2.0"]
_SCALARS = [None, True, False, 0, -1, 10**299, -(10**299) - 7, -0.0, 0.5, 1e300, -1e-300, "", 'q"\\\x01\u00e9\u2603']


def _random_value(rng: random.Random, depth: int):
    """A nested value of dicts, lists and tuples over _KEYS and _SCALARS,
    empty containers and all-int lists among them."""
    kind = rng.randrange(7 if depth else 3)
    if kind == 0:
        return rng.choice(_SCALARS)
    if kind == 1:
        return rng.randint(-(10**6), 10**6)
    if kind == 2:
        return [rng.randint(-(10**20), 10**20) for _ in range(rng.randrange(6))]
    if kind == 3:
        # an int list but for one bool, float or big int
        xs = [rng.randrange(100) for _ in range(rng.randrange(1, 5))]
        xs.insert(rng.randrange(len(xs) + 1), rng.choice([True, False, 1.0, 10**299]))
        return xs
    items = [_random_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return dict(zip(rng.sample(_KEYS, len(items)), items))


@pytest.mark.parametrize(
    "obj",
    [[1, True, 0], [True], [], {}, (), (3, 4), [[]], [{}], {"": {}, "x": []}, None, -0.0, 1e300, -1e300,
     10**299, -(10**299), [10**299, -5, 0], {k: k for k in _KEYS}, _SCALARS],
)
def test_the_writer_writes_the_bytes_of_json_dumps(obj):
    assert _written(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_the_writer_writes_the_bytes_of_json_dumps_on_random_nested_values():
    rng = random.Random(22)
    for _ in range(400):
        obj = _random_value(rng, rng.randrange(5))
        assert _written(obj) == json.dumps(obj, sort_keys=True, indent=2)


_PAIRS = [Ordinal(0, 0), Ordinal(3, 17), Ordinal(10, 0), Ordinal(2, 10**6), [0, 1], [12, 9], (7, 8)]
# pairs that are no exact-int pair, items of another length, and items that are no pair at all
_NO_PAIRS = [[True, 1], [0, False], (True, True), [1.0, 2], [3, 0.5], [1, None], ["1", 2], [[1], 2]]
_NO_ITEMS = [[1], [1, 2, 3], (4,), (), [], 7, True, {}, {"q": 1}, "ab", None]


def _pair_list(rng: random.Random):
    """A list or tuple of pairs, maybe with one odd pair or item among them,
    maybe inside a few lists, tuples and dicts."""
    items = [rng.choice(_PAIRS) for _ in range(rng.randrange(1, 6))]
    if rng.random() < 0.5:
        items.insert(rng.randrange(len(items) + 1), rng.choice(_NO_PAIRS + _NO_ITEMS))
    obj = items if rng.random() < 0.5 else tuple(items)
    for _ in range(rng.randrange(4)):
        obj = rng.choice([[obj], (obj, 1), [obj, obj], {"x": obj, "y": [obj, 2]}])
    return obj


@pytest.mark.parametrize(
    "obj, one_write",
    [
        ([Ordinal(0, 1), Ordinal(10, 0)], True),
        ((Ordinal(0, 1),), True),
        ([[0, 1], [2, 3]], True),
        (([5, 6], (7, 8), Ordinal(9, 10)), True),
        ([[10**299, -1], [-(10**20), 0]], True),
        ([[True, 1], [2, 3]], False),
        ([[1.0, 2]], False),
        ([[1, 2], [3]], False),
        ([[1, 2], [3, 4, 5]], False),
        ([[1, 2], 3], False),
        ([[1, 2], {}], False),
        ([[[1, 2], [3, 4]]], False),
    ],
)
def test_the_writer_writes_a_pair_list_in_one_write_with_the_bytes_of_json_dumps(obj, one_write):
    """A non-empty list or tuple of exact-int pairs, Ordinals or [q, r]
    lists, is one write; a bool, a float, another length or another item
    sends the list down the generic path, with the same bytes."""
    calls = []
    cli._write_json(calls.append, obj, "")
    assert "".join(calls) == json.dumps(obj, sort_keys=True, indent=2)
    assert (len(calls) == 1) == one_write


def test_the_writer_writes_pair_lists_at_every_depth_with_the_bytes_of_json_dumps():
    rng = random.Random(29)
    for _ in range(400):
        obj = _pair_list(rng)
        assert _written(obj) == json.dumps(obj, sort_keys=True, indent=2)


def _random_diagram(rng: random.Random, count: int, universe: int) -> GapFragment:
    """A fragment over the first `count` default indices, I and J each a
    random part of them, every set dense, sparse or empty."""

    def side():
        dense, sparse = rng.getrandbits(universe), rng.getrandbits(universe) & rng.getrandbits(universe) << 3
        return {o: rng.choice([0, dense, sparse & (1 << universe) - 1]) for o in indices if rng.random() < 0.8}

    indices = simulate.default_index_blocks(count)
    return GapFragment(universe, side(), side())


def test_the_writer_writes_a_fragment_as_json_dumps_writes_its_to_json():
    """Each set is joined from its mask, and the maps are keyed in the
    order sort_keys gives: from 81 indices on, "10.0" comes before "2.0"."""
    rng = random.Random(27)
    wide = _random_diagram(rng, 96, 12)
    assert {Ordinal(2, 0), Ordinal(10, 0)} <= set(wide.a) | set(wide.b)
    cases = [
        wide,
        GapFragment(0, {}, {}),
        GapFragment(0, {fin(0): 0}, {fin(0): 0, fin(1): 0}),
        GapFragment(MAX_UNIVERSE, {fin(0): 1 << (MAX_UNIVERSE - 1) | 1 << 7}, {fin(0): 1 << 40000, fin(1): 0}),
        simulate.forge(simulate.default_index_blocks(300), 300, 1),
    ]
    cases += [_random_diagram(rng, rng.choice([0, 1, 5, 81, 100]), rng.choice([0, 1, 7, 64, 300])) for _ in range(80)]
    for g in cases:
        assert _written(g) == json.dumps(g.to_json(), sort_keys=True, indent=2)
        nested = {"fragment": g, "more": [[g], {"x": g}]}  # at deeper indentations too
        assert _written(nested) == json.dumps(nested, sort_keys=True, indent=2, default=report_default)


def test_the_writer_writes_witness_rows_as_json_dumps_writes_their_dicts():
    rng = random.Random(28)
    pool = [Ordinal(q, r) for q in (0, 1, 2, 10, 123) for r in (0, 1, 9, 10, 4096)]
    for count in (0, 1, 2, 37, 500):
        rows = [(rng.choice(pool), rng.choice(pool), rng.randrange(50), rng.randrange(10**6)) for _ in range(count)]
        for obj in (Witnesses(rows), {"witnesses": Witnesses(rows), "more": [[Witnesses(rows)]]}):
            assert _written(obj) == json.dumps(obj, sort_keys=True, indent=2, default=report_default)


def test_the_writer_writes_failure_rows_as_json_dumps_writes_their_dicts():
    rng = random.Random(29)
    pool = [Ordinal(q, r) for q in (0, 1, 2, 10, 123) for r in (0, 1, 9, 10, 4096)]
    for count in (0, 1, 2, 37, 500):
        rows = [(rng.choice(pool), rng.choice(pool)) for _ in range(count)]
        for obj in (Failures(rows), {"failures": Failures(rows), "more": [[Failures(rows)]]}):
            assert _written(obj) == json.dumps(obj, sort_keys=True, indent=2, default=report_default)


def test_emitting_a_tall_diagram_builds_no_member_list(tmp_path, monkeypatch):
    """The 64 x 16384 `simulate-p` report, 25.6 MB of text, is written from
    the masks: `gaps.members` is never called, and the emission peaks under
    1 MiB plus the text of one set and the writer's table of member texts,
    one str per level (about 1 MiB here; 71 MiB of member lists before)."""
    frag = simulate.forge(simulate.default_index_blocks(64), 16384, 0)
    table = [str(k) for k in range(frag.universe)]
    largest = max(len(gaps.member_text(m, gaps.MemberTable(table, ",\n      "))) for m in [*frag.a.values(), *frag.b.values()])

    def no_lists(mask):
        raise AssertionError("a member list was built")

    monkeypatch.setattr(gaps, "members", no_lists)
    out = tmp_path / "frag.json"
    peak = traced_peak(cli._emit, frag, str(out))[1]
    assert out.stat().st_size > 25 * 10**6
    assert peak < 2**20 + largest + sys.getsizeof(table) + sum(map(sys.getsizeof, table))


def test_emitting_a_pipeline_report_holds_one_set_and_the_excess_text(tmp_path):
    """The `pipeline` report at 512 indices, height 512 and wsize 512, 6.2
    MiB of text, peaks in emission under 1 MiB plus the JSON text of its
    excess CSV (one string, 0.75 MiB), the text of its largest set and the
    writer's table of member texts."""
    ordinals = simulate.default_index_blocks(512)
    report = simulate.pipeline(ordinals, 512, 512, Ladder.canonical(), simulate.default_partition(ordinals), 0)
    frag = report["fragment"]
    table = [str(k) for k in range(frag.universe)]
    largest = max(len(gaps.member_text(m, gaps.MemberTable(table, ",\n        "))) for m in [*frag.a.values(), *frag.b.values()])
    out = tmp_path / "pipeline.json"
    peak = traced_peak(cli._emit, report, str(out))[1]
    held = len(json.dumps(report["excess_csv"])) + largest + sys.getsizeof(table) + sum(map(sys.getsizeof, table))
    assert peak < 2**20 + held < out.stat().st_size / 3


@pytest.mark.parametrize(
    "report",
    [{1: "a"}, {True: 0}, {None: 1}, {1.5: 2}, {(1, 2): 3}, {1: 2, "a": 3}, {"ok": [{"deep": {2: 1}}]}],
    ids=["int", "bool", "null", "float", "tuple", "mixed", "nested"],
)
def test_a_key_that_is_no_str_writes_the_bytes_of_json_dumps_or_exits_2(report, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "pipeline", lambda *args: report)
    out = tmp_path / "out.json"
    code = main(["pipeline", "--indices", "1", "--height", "1", "--wsize", "1", "--out", str(out)])
    if code == 0:
        assert out.read_text(encoding="utf-8") == json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        assert code == 2
        assert "TypeError" in capsys.readouterr().err


def test_simulate_p_at_the_universe_limit_reads_back(tmp_path):
    out = tmp_path / "frag.json"
    assert main(["simulate-p", "--indices", "0", "--height", str(MAX_UNIVERSE), "--out", str(out)]) == 0
    assert GapFragment.from_json(json.loads(out.read_text())).universe == MAX_UNIVERSE
    assert main(["check", "special", "--gap", str(out)]) == 0


def test_emit_streams_a_tall_diagram_within_a_mebibyte(tmp_path):
    """A forged 64 x 1024 diagram, about 1.4 MB of report text, is written
    with the bytes of json.dumps, but never held as one text: the peak
    stays below the size of the text."""
    report = simulate.forge(simulate.default_index_blocks(64), 1024, 3).to_json()
    out = tmp_path / "frag.json"
    peak = traced_peak(cli._emit, report, str(out))[1]
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert peak < 2**20 < len(text)


def test_check_malformed_gap(tmp_path):
    bad = tmp_path / "gap.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["check", "special", "--gap", str(bad)]) == 2
    assert main(["check", "special"]) == 2  # no gap supplied at all


@pytest.mark.parametrize("value", [[], 5, None], ids=["list", "int", "null"])
@pytest.mark.parametrize("side", ["a", "b"])
def test_a_diagram_map_that_is_no_object_exits_2(side, value, tmp_path, capsys):
    """Exit 1 would read as "predicate false": every command that loads the
    diagram refuses it as malformed instead."""
    _, ladder, part = _hausdorff_inputs(tmp_path)
    frag = _tiny_special_fragment().to_json()
    frag[side] = value
    gap = _write(tmp_path / "gap.json", frag)
    manifest = _write(tmp_path / "m.json", {"gap": "gap.json", "ladder": "ladder.json", "partition": "part.json"})
    q = _write(tmp_path / "q.json", {"w": [], "s": []})
    for argv in (
        ["check", "special", "--gap", gap],
        ["check", "interpolate", "--gap", gap],
        ["check", "c-hausdorff", "--gap", gap, "--ladder", ladder, "--partition", part],
        ["oracle", "q", "--cond1", q, "--cond2", q, "--manifest", manifest],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", "gapforge: ValueError: the a and b maps must be JSON objects\n")


@pytest.mark.parametrize(
    "reader",
    ["check-gap", "oracle-p-cond", "oracle-q-cond", "pipeline-ladder", "pipeline-partition", "manifest", "manifest-entry"],
)
def test_json_nested_1000_deep_exits_2(reader, tmp_path, capsys):
    """2 KB of nested brackets: the decoder's RecursionError once escaped
    as a traceback and exit 1, which reads as "predicate false".  Every
    JSON reader exits 2 instead; where the decoder gives up, the message
    names the file."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 1000 + "]" * 1000, encoding="utf-8")
    gap, ladder, part = _hausdorff_inputs(tmp_path)
    m = _write(tmp_path / "m.json", {"gap": "gap.json", "ladder": "ladder.json", "partition": "part.json"})
    named = _write(tmp_path / "named.json", {"gap": "deep.json", "ladder": "ladder.json", "partition": "part.json"})
    q = _write(tmp_path / "q.json", {"w": [], "s": []})
    p = _write(tmp_path / "p.json", PCondition(0, {}).to_json())
    pipe = ["pipeline", "--indices", "4", "--height", "4", "--wsize", "1"]
    argv = {
        "check-gap": ["check", "special", "--gap", str(deep)],
        "oracle-p-cond": ["oracle", "p", "--cond1", str(deep), "--cond2", p],
        "oracle-q-cond": ["oracle", "q", "--cond1", q, "--cond2", str(deep), "--manifest", m],
        "pipeline-ladder": pipe + ["--ladder", str(deep)],
        "pipeline-partition": pipe + ["--partition", str(deep)],
        "manifest": ["check", "c-hausdorff", "--manifest", str(deep)],
        "manifest-entry": ["check", "c-hausdorff", "--manifest", named],
    }[reader]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gapforge: ValueError: ") and not (tmp_path / "out.json").exists()
    try:
        json.loads(deep.read_text(encoding="utf-8"))
    except RecursionError:
        assert err == f"gapforge: ValueError: {deep} nests its JSON too deeply to load\n"


def test_oracle_p(tmp_path):
    cond = PCondition(1, {fin(0): ("1", "1")})
    c1 = _write(tmp_path / "c1.json", cond.to_json())
    out = tmp_path / "witness.json"
    assert main(["oracle", "p", "--cond1", c1, "--cond2", c1, "--out", str(out)]) == 0
    witness = PCondition.from_json(json.loads(out.read_text())["witness"])
    assert witness == cond
    other = _write(tmp_path / "c2.json", PCondition(1, {fin(0): ("0", "1")}).to_json())
    assert main(["oracle", "p", "--cond1", c1, "--cond2", other]) == 1


def test_oracle_p_search_too_large(tmp_path):
    w20 = word_from_bits([], 20)
    w5 = word_from_bits([], 5)
    c1 = _write(tmp_path / "c1.json", PCondition(20, {fin(0): (w20, w20)}).to_json())
    c2 = _write(tmp_path / "c2.json", PCondition(5, {fin(1): (w5, w5)}).to_json())
    assert main(["oracle", "p", "--cond1", c1, "--cond2", c2]) == 4
    assert main(["oracle", "p", "--cond1", c1, "--cond2", c2, "--max-free-bits", "30"]) == 0


@pytest.mark.parametrize("poset", ["p", "q"])
def test_oracle_negative_free_bit_cap_exits_2(poset, tmp_path, capsys):
    """A cap below 0 is a malformed flag (exit 2), not a search over it (exit 4)."""
    cond = {"height": 0, "entries": []} if poset == "p" else {"w": [], "s": []}
    c = _write(tmp_path / "c.json", cond)
    assert main(["oracle", poset, "--cond1", c, "--cond2", c, "--max-free-bits", "-1"]) == 2
    assert capsys.readouterr() == ("", "gapforge: ValueError: --max-free-bits must be a natural, got -1\n")


def test_oracle_p_counts_free_bits_before_building_them(tmp_path, capsys):
    """Two files of about 100 bytes: one entry at height 0 against an empty
    condition of the largest height, 131072 free bits whose slots would take
    about 0.5 GB."""
    c1 = _write(tmp_path / "c1.json", {"height": 0, "entries": [{"ord": [0, 1], "a_bits": "", "b_bits": ""}]})
    c2 = _write(tmp_path / "c2.json", {"height": MAX_UNIVERSE, "entries": []})
    code, peak = traced_peak(main, ["oracle", "p", "--cond1", c1, "--cond2", c2])
    assert code == 4
    assert f"{2 * MAX_UNIVERSE} free bits" in capsys.readouterr().err
    assert peak < 2**20


@pytest.mark.parametrize("height", [MAX_UNIVERSE + 1, 10**9, 2**70])
def test_oracle_p_height_above_the_universe_limit_exits_2(height, tmp_path, capsys):
    """Two files of about 50 bytes, each an empty condition: a height past
    the universe limit is refused on load, before any mask is checked
    against it."""
    c = _write(tmp_path / "c.json", {"height": height, "entries": []})
    code, peak = traced_peak(main, ["oracle", "p", "--cond1", c, "--cond2", c])
    assert code == 2
    assert str(MAX_UNIVERSE) in capsys.readouterr().err
    assert peak < 2**20


def test_oracle_q(tmp_path):
    a = {fin(5): mask(range(8)), Ordinal(1, 0): 0}
    b = {fin(5): 0, Ordinal(1, 0): mask(range(2, 8))}
    gap = _write(tmp_path / "gap.json", GapFragment(8, a, b).to_json())
    ladder = _write(tmp_path / "ladder.json", Ladder.canonical().to_json())
    limits = frozenset({Ordinal(1, 0)})
    part = _write(tmp_path / "part.json", SPartition(S=limits, T=frozenset(), D=limits).to_json())
    manifest = _write(
        tmp_path / "m.json", {"gap": "gap.json", "ladder": "ladder.json", "partition": "part.json"}
    )
    p = _write(tmp_path / "p.json", {"w": [[1, 0]], "s": [[1, 0]]})
    q = _write(tmp_path / "q.json", {"w": [[0, 5]], "s": []})
    assert main(["oracle", "q", "--cond1", p, "--cond2", q, "--manifest", manifest]) == 1
    assert main(["oracle", "q", "--cond1", p, "--cond2", p, "--manifest", manifest]) == 0
    assert main(["oracle", "q", "--cond1", p, "--cond2", q]) == 2  # manifest required


def test_inputs_come_from_the_flag_else_the_manifest_relative_to_it(tmp_path, monkeypatch):
    _hausdorff_inputs(tmp_path / "ctx", full_b=True)
    manifest = _write(tmp_path / "ctx" / "m.json", {"gap": "gap.json", "ladder": "ladder.json", "partition": "part.json"})
    good_gap, _, _ = _hausdorff_inputs(tmp_path / "other")
    monkeypatch.chdir(tmp_path / "other")  # the manifest's names resolve next to it, not here
    assert main(["check", "c-hausdorff", "--manifest", manifest]) == 1
    assert main(["check", "c-hausdorff", "--manifest", manifest, "--gap", good_gap]) == 0
    assert main(["check", "special", "--manifest", manifest]) == 1
    # a manifest that is given is read, even where every flag wins over it
    not_an_object = _write(tmp_path / "list.json", ["gap.json"])
    assert main(["check", "special", "--manifest", not_an_object, "--gap", good_gap]) == 2


@pytest.mark.parametrize(
    "manifest",
    [{"gap": "gap.json", "ladder": "ladder.json"}, ["gap.json", "ladder.json", "part.json"]],
    ids=["no-partition", "not-an-object"],
)
def test_oracle_q_reads_its_context_from_a_whole_manifest_only(manifest, tmp_path, capsys):
    _hausdorff_inputs(tmp_path)
    p = _write(tmp_path / "p.json", {"w": [[0, 1]], "s": []})
    m = _write(tmp_path / "m.json", manifest)
    assert main(["oracle", "q", "--cond1", p, "--cond2", p, "--manifest", m]) == 2
    assert "ValueError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value", [5, None, ["ladder.json"], {"file": "ladder.json"}], ids=["int", "null", "list", "dict"]
)
def test_a_manifest_entry_that_is_no_file_name_exits_2_naming_its_key(value, tmp_path, capsys):
    gap, _, part = _hausdorff_inputs(tmp_path)
    m = _write(tmp_path / "m.json", {"gap": "gap.json", "ladder": value, "partition": "part.json"})
    q = _write(tmp_path / "q.json", {"w": [], "s": []})
    for argv in (
        ["check", "c-hausdorff", "--manifest", m],
        ["check", "c-hausdorff", "--manifest", m, "--gap", gap, "--partition", part],
        ["oracle", "q", "--cond1", q, "--cond2", q, "--manifest", m],
    ):
        assert main(argv) == 2, argv
        message = f"gapforge: ValueError: manifest entry 'ladder' must be a file name, got {value!r}\n"
        assert capsys.readouterr() == ("", message)


def test_each_command_reads_its_manifest_once(tmp_path, monkeypatch):
    _hausdorff_inputs(tmp_path)
    m = _write(tmp_path / "m.json", {"gap": "gap.json", "ladder": "ladder.json", "partition": "part.json"})
    q = _write(tmp_path / "q.json", {"w": [], "s": []})
    reads = []
    real = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: reads.append(str(path)) or real(path))
    for argv, code in (
        (["check", "c-hausdorff", "--manifest", m], 0),
        (["check", "special", "--manifest", m], 1),
        (["oracle", "q", "--cond1", q, "--cond2", q, "--manifest", m], 0),
    ):
        reads.clear()
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == code, argv
        assert reads.count(m) == 1, (argv, reads)


@pytest.mark.parametrize("side", ["I", "J"])
def test_a_fragment_listing_an_index_twice_exits_2(side, tmp_path, capsys):
    """Written back, such a fragment would list the index once: the reader
    refuses it through `ordinal_set`, as the condition and partition readers
    refuse their duplicates, before it reads a member (here every one is bad)."""
    frag = _tiny_special_fragment().to_json()
    frag[side] = [frag[side][0], *frag[side]]
    for tower in "ab":
        frag[tower] = {k: ["x"] for k in frag[tower]}
    gap = _write(tmp_path / "gap.json", frag)
    assert main(["check", "special", "--gap", gap]) == 2
    assert capsys.readouterr() == ("", f"gapforge: ValueError: the {side} list names an ordinal twice\n")


@pytest.mark.parametrize("field", ["w", "s"])
def test_a_condition_listing_an_ordinal_twice_exits_2(field, tmp_path, capsys):
    """Loaded, the repeat would be dropped without a word: `oracle q`
    refuses it, as the fragment reader refuses a repeated index."""
    _hausdorff_inputs(tmp_path)
    m = _write(tmp_path / "m.json", {"gap": "gap.json", "ladder": "ladder.json", "partition": "part.json"})
    good = {"w": [[0, 1]], "s": [[1, 0]]}
    q = _write(tmp_path / "q.json", good)
    twice = _write(tmp_path / "twice.json", good | {field: good[field] * 2})
    assert main(["oracle", "q", "--cond1", q, "--cond2", q, "--manifest", m]) == 0
    capsys.readouterr()
    for cond1, cond2 in ((twice, q), (q, twice)):
        assert main(["oracle", "q", "--cond1", cond1, "--cond2", cond2, "--manifest", m]) == 2
        assert capsys.readouterr() == ("", f"gapforge: ValueError: the {field} list names an ordinal twice\n")


def test_a_p_condition_listing_an_ordinal_twice_exits_2(tmp_path, capsys):
    """Loaded, the repeat would overwrite the first entry without a word:
    `oracle p` refuses it, as `oracle q` refuses a repeated ordinal."""
    good = PCondition(1, {fin(1): ("0", "1")}).to_json()
    c = _write(tmp_path / "c.json", good)
    twice = _write(tmp_path / "twice.json", good | {"entries": good["entries"] * 2})
    assert main(["oracle", "p", "--cond1", c, "--cond2", c]) == 0
    capsys.readouterr()
    for cond1, cond2 in ((twice, c), (c, twice)):
        assert main(["oracle", "p", "--cond1", cond1, "--cond2", cond2]) == 2
        assert capsys.readouterr() == ("", "gapforge: ValueError: duplicate entry at 1\n")


@pytest.mark.parametrize("field", ["S", "T", "D"])
def test_a_partition_listing_an_ordinal_twice_exits_2(field, tmp_path, capsys):
    gap, ladder, _ = _hausdorff_inputs(tmp_path)
    part = {"S": [[1, 0]], "T": [[2, 0]], "D": [[1, 0]]}
    argv = ["check", "c-hausdorff", "--gap", gap, "--ladder", ladder, "--partition"]
    assert main(argv + [_write(tmp_path / "part.json", part)]) == 0
    capsys.readouterr()
    twice = _write(tmp_path / "twice.json", part | {field: part[field] * 2})
    assert main(argv + [twice]) == 2
    assert capsys.readouterr() == ("", f"gapforge: ValueError: the {field} list names an ordinal twice\n")


def test_every_golden_input_loads_and_reads_back():
    loaders = {"gap-mixed.json": GapFragment, "ladder.json": Ladder, "partition.json": SPartition}
    for name, obj in GOLDEN_INPUTS.items():
        assert loaders.get(name, PCondition).from_json(obj).to_json() == obj, name


@pytest.mark.parametrize("predicate", ["special", "interpolate", "c-hausdorff"])
def test_check_negative_n0_exits_2(predicate, tmp_path, capsys):
    gap, ladder, part = _hausdorff_inputs(tmp_path)
    argv = ["check", predicate, "--gap", gap, "--ladder", ladder, "--partition", part, "--n0", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "gapforge: ValueError: --n0 must be a natural, got -1\n")


def test_check_rejects_an_aliased_key(tmp_path, capsys):
    """"00.1" names the ordinal of "0.1": loading both would drop one set."""
    frag = _tiny_special_fragment().to_json()
    frag["a"]["00.1"] = [2]
    assert main(["check", "special", "--gap", _write(tmp_path / "gap.json", frag)]) == 2
    assert "bad ordinal key: '00.1'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [",0.5,0.5\n0.1,1,1\n", ",1.1\n0.2,1\n0.1,1\n"],
    ids=["repeated-column", "unordered-rows"],
)
def test_pcc_matrix_rejects_indices_that_do_not_increase(text, tmp_path, capsys):
    csv_path = tmp_path / "matrix.csv"
    csv_path.write_text(text, encoding="utf-8")
    assert main(["pcc", "--matrix", str(csv_path)]) == 2
    assert "must strictly increase" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, corner",
    [("0.1,0.3\n", "0.1"), ("x,0.3\n0.2,1\n", "x"), ("0.1,0.3\n0.2,1\n", "0.1")],
    ids=["no-rows", "word-corner", "index-corner"],
)
def test_pcc_matrix_rejects_a_header_with_a_non_empty_corner(text, corner, tmp_path, capsys):
    """The header's first field sits above the row indices and is always
    empty: read as a column, it would shift every other column by one."""
    csv_path = tmp_path / "matrix.csv"
    csv_path.write_text(text, encoding="utf-8")
    assert main(["pcc", "--matrix", str(csv_path)]) == 2
    assert f"matrix header must start with an empty field, got {corner!r}" in capsys.readouterr().err


def test_pcc_matrix_with_rows_and_no_columns_keeps_every_row(tmp_path, capsys):
    """The header line of such a matrix is empty; an empty file is no matrix."""
    csv_path = tmp_path / "matrix.csv"
    csv_path.write_text("\n0.1\n0.3\n", encoding="utf-8")
    out = tmp_path / "rect.json"
    assert main(["pcc", "--matrix", str(csv_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rectangle"] == {"rows": [[0, 1], [0, 3]], "cols": []}
    csv_path.write_text("", encoding="utf-8")
    assert main(["pcc", "--matrix", str(csv_path)]) == 2
    assert "empty matrix file" in capsys.readouterr().err


def test_pipeline_reads_its_ladder_and_partition_flags(tmp_path):
    argv = ["pipeline", "--indices", "20", "--height", "20", "--wsize", "4", "--seed", "2"]
    limits = [[1, 0], [2, 0]]  # the block limits of 20 indices, the default partition
    ladder = _write(tmp_path / "ladder.json", {"mode": "canonical"})
    part = _write(tmp_path / "part.json", {"S": limits, "T": [], "D": limits})
    outs = [tmp_path / "default.json", tmp_path / "flags.json"]
    assert main(argv + ["--out", str(outs[0])]) == 0
    assert main(argv + ["--ladder", ladder, "--partition", part, "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    bad = _write(tmp_path / "bad.json", {"mode": "spiral"})
    assert main(argv + ["--ladder", bad]) == 2
    assert main(argv + ["--partition", bad]) == 2


def test_pipeline_zero_and_default(tmp_path):
    out = tmp_path / "report.json"
    assert main(["pipeline", "--indices", "0", "--height", "0", "--wsize", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["W"] == [] and report["witnesses"] == []

    out2 = tmp_path / "report2.json"
    argv = ["pipeline", "--indices", "20", "--height", "64", "--wsize", "10", "--seed", "7"]
    assert main(argv + ["--out", str(out2)]) == 0
    report = json.loads(out2.read_text())
    assert len(report["W"]) >= 10
    out3 = tmp_path / "report3.json"
    assert main(argv + ["--out", str(out3)]) == 0
    assert out2.read_bytes() == out3.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "--indices", "3", "--height", "-2", "--wsize", "1"],
        ["pipeline", "--indices", "-4", "--height", "8", "--wsize", "1"],
        ["pipeline", "--indices", "3", "--height", "8", "--wsize", "-1"],
        ["simulate-p", "--indices", "3", "--height", "-2", "--out", "never-written.json"],
        ["simulate-p", "--indices", "-4", "--height", "8", "--out", "never-written.json"],
    ],
    ids=["pipeline-height", "pipeline-indices", "pipeline-wsize", "simulate-p-height", "simulate-p-indices"],
)
def test_negative_counts_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "ValueError" in capsys.readouterr().err
    assert not (tmp_path / "never-written.json").exists()


@pytest.mark.parametrize(
    "argv, checks",
    [
        (["pipeline", "--indices", "40", "--height", "64", "--wsize", "10", "--seed", "1"], 1),
        (["pcc", "--t1", "120", "--t2", "120", "--seed", "1"], 246),
    ],
    ids=["pipeline", "pcc"],
)
def test_each_condition_is_checked_against_the_context_once(argv, checks, tmp_path, monkeypatch):
    """The selection checks its last condition alone.  pcc checks its 240
    conditions in `PccInstance`, each family's union in the matrix, and the
    found pair's conditions and union in `q_compatible`'s two `q_leq` calls."""
    calls = []
    check = QContext.check_condition
    monkeypatch.setattr(QContext, "check_condition", lambda ctx, p: calls.append(p) or check(ctx, p))
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == checks


def test_pipeline_failure_exit_code(tmp_path):
    # asking for more selected indices than exist must fail the simulation
    assert main(["pipeline", "--indices", "4", "--height", "8", "--wsize", "9"]) == 3


@pytest.mark.parametrize("wsize", [2, 6, 12])
def test_pipeline_with_a_short_ladder_table_exits_2(wsize, tmp_path, capsys):
    """The selection wraps no error, so a ladder table too short for the
    threshold check exits 2 as TableTooShort, not 3, and writes nothing."""
    table = {Ordinal(1, 0): [fin(0), fin(1)], Ordinal(2, 0): [Ordinal(1, 0), Ordinal(1, 1)]}
    short = _write(tmp_path / "ladder.json", Ladder.explicit(table).to_json())
    out = tmp_path / "report.json"
    argv = ["pipeline", "--indices", "20", "--height", "32", "--wsize", str(wsize), "--ladder", short]
    assert main(argv + ["--out", str(out)]) == 2
    assert "TableTooShort" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_impossible_wsize_fails_before_building_its_schedule(capsys):
    code, peak = traced_peak(main, ["pipeline", "--indices", "4", "--height", "8", "--wsize", "1000000000"])
    assert code == 3
    assert "RequirementFailure" in capsys.readouterr().err
    assert peak < 2**20  # the schedule alone would hold 10**9 requirements


def _incoherent(masks, entry):
    raise InvariantViolation("tower-coherence", "planted")


def _stalled_pick(*args, key=None):
    """The builtin `min`, but a keyed call, a pick of the selection, returns
    the position before its window: the top index, then that index again."""
    return args[0].start - 1 if key else min(*args)


def _failing_pairs(sub, ladder, part):
    return [], [(Ordinal(1, 0), Ordinal(1, 3)), (Ordinal(2, 0), Ordinal(2, 1))]


@pytest.mark.parametrize(
    "name, stub, invariant, detail",
    [
        ("check_tower_coherence", _incoherent, "tower-coherence", "planted"),
        ("min", _stalled_pick, "selection-order", "pick 3 does not lie above the pick 3 before it\n"),
        ("c_hausdorff_check", _failing_pairs, "ladder-threshold-witness", "no witness for (w, w+3)\n"),
    ],
    ids=["tower-coherence", "selection-order", "ladder-threshold-witness"],
)
def test_pipeline_invariant_violation_keeps_its_fields(name, stub, invariant, detail, tmp_path, monkeypatch, capsys):
    """A failed run assertion exits 3 with its name and detail, and writes no
    report.  The selection-order stub forces a pick that does not ascend."""
    monkeypatch.setattr(simulate, name, stub, raising=name != "min")
    out = tmp_path / "report.json"
    assert main(["pipeline", "--indices", "4", "--height", "4", "--wsize", "2", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"gapforge: InvariantViolation: {invariant}: {detail}")
    assert not out.exists()


def test_pcc_generated_and_matrix_modes(tmp_path):
    out = tmp_path / "report.json"
    assert main(["pcc", "--t1", "8", "--t2", "8", "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["pair"]) == {"delta1", "delta2", "n"}
    assert report["rectangle"]["rows"] or report["rectangle"]["cols"]

    csv_path = tmp_path / "matrix.csv"
    csv_path.write_text(",1.1,3.1\n0.1,1,1\n2.1,1,1\n", encoding="utf-8")
    out2 = tmp_path / "rect.json"
    assert main(["pcc", "--matrix", str(csv_path), "--out", str(out2)]) == 0
    report2 = json.loads(out2.read_text())
    assert report2["verified"] is True
    rect = report2["rectangle"]
    assert len(rect["rows"]) == 2 and len(rect["cols"]) == 2  # all-true: full rectangle


@pytest.mark.parametrize("t1, t2, seed", [(30, 30, 3), (30, 8, 1)], ids=["30x30", "30x8"])
def test_pcc_matrix_mode_reproduces_the_generated_rectangle(t1, t2, seed, tmp_path):
    """The matrix_csv of a generated report, fed back through --matrix,
    gives that report's rectangle."""
    out = tmp_path / "pcc.json"
    assert main(["pcc", "--t1", str(t1), "--t2", str(t2), "--seed", str(seed), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    csv_path = tmp_path / "cells.csv"
    csv_path.write_text(report["matrix_csv"], encoding="utf-8")
    rect = tmp_path / "rect.json"
    assert main(["pcc", "--matrix", str(csv_path), "--out", str(rect)]) == 0
    assert json.loads(rect.read_text()) == {"rectangle": report["rectangle"], "verified": True}


def test_pcc_rejects_empty_families_and_the_budget_flag(capsys):
    assert main(["pcc", "--t1", "-3", "--t2", "5"]) == 2
    assert main(["pcc", "--t1", "0", "--t2", "5"]) == 2
    assert "ValueError" in capsys.readouterr().err
    # once a 2^40-subset search, now an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["pcc", "--budget", "1099511627776"])
    assert exc.value.code == 2


@pytest.mark.parametrize("t1, t2", [(MAX_FAMILY + 1, 1), (1, 10**9)], ids=["t1", "t2"])
def test_pcc_families_above_the_limit_exit_2(t1, t2, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, peak = traced_peak(main, ["pcc", "--t1", str(t1), "--t2", str(t2), "--seed", "0", "--out", "never-written.json"])
    assert code == 2
    assert str(MAX_FAMILY) in capsys.readouterr().err
    assert not (tmp_path / "never-written.json").exists()
    assert peak < 2**20  # no index, condition or cell is built


def test_pcc_matrix_with_an_augmenting_path_deeper_than_the_recursion_limit(tmp_path):
    """Row i conflicts with columns i and i + 1, and the last row only with
    column 0: matching the rows in order leaves the last row to an augmenting
    path through every row.  The matching is perfect, so the largest
    rectangle has n + 1 members."""
    n = max(1200, sys.getrecursionlimit() + 1)
    header = ",".join([""] + [Ordinal(1, y).key() for y in range(n + 1)])
    lines = [header]
    for x in range(n + 1):
        bad = {0} if x == n else {x, x + 1}
        lines.append(",".join([Ordinal(0, x).key()] + ["0" if y in bad else "1" for y in range(n + 1)]))
    csv_path = tmp_path / "chain.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "rect.json"
    assert main(["pcc", "--matrix", str(csv_path), "--out", str(out)]) == 0
    rect = json.loads(out.read_text())["rectangle"]
    assert len(rect["rows"]) + len(rect["cols"]) == n + 1


def test_module_entry_point(tmp_path):
    out = tmp_path / "frag.json"
    proc = subprocess.run(
        [sys.executable, "-m", "gapforge.cli", "simulate-p", "--indices", "2", "--height", "3",
         "--seed", "0", "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    GapFragment.from_json(json.loads(out.read_text()))
