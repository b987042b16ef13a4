import hashlib
import json
import subprocess
import sys
import tracemalloc

import pytest

from gapforge import (
    GapFragment,
    Ladder,
    Ordinal,
    PCondition,
    SPartition,
    fin,
    poset_p,
    simulate,
)
from gapforge.cli import build_parser, main
from gapforge.gaps import MAX_UNIVERSE
from gapforge.pcc import MAX_FAMILY
from gapforge.simulate import MAX_INDICES
from helpers import mask, word_from_bits


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
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1)
    assert peak < 2**20


def test_check_rejects_a_huge_member_without_building_it(tmp_path, capsys):
    frag = _tiny_special_fragment().to_json()
    frag["a"]["0.1"] = [1, 10**9]
    gap = _write(tmp_path / "gap.json", frag)
    tracemalloc.start()
    try:
        code = main(["check", "special", "--gap", gap])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "1000000000" in capsys.readouterr().err
    assert peak < 16 * 2**20  # the set itself would take 119 MiB


def test_check_rejects_a_huge_universe_without_building_it(tmp_path, capsys):
    top = [10**9 - 1]
    frag = {"universe": 10**9, "I": [[0, 0]], "J": [[0, 0]], "a": {"0.0": top}, "b": {"0.0": top}}
    gap = _write(tmp_path / "gap.json", frag)
    tracemalloc.start()
    try:
        code = main(["check", "special", "--gap", gap])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
    tracemalloc.start()
    try:
        code = main(argv + ["--height", str(height)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert str(MAX_UNIVERSE) in capsys.readouterr().err
    assert not (tmp_path / "never-written.json").exists()
    assert peak < 2**20  # the level plans of a 65,537-level schedule alone take 48 MiB


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
    tracemalloc.start()
    try:
        code = main(argv + ["--indices", str(MAX_INDICES + 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert str(MAX_INDICES) in capsys.readouterr().err
    assert not (tmp_path / "never-written.json").exists()
    assert peak < 2**20  # nothing is forged, not even the index list


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


GOLDEN = [
    (["pipeline", "--indices", "80", "--height", "128", "--wsize", "10", "--seed", "3"],
     "3f0da0f30903d2766fc7b27fa35a399abe76ad891f3001fe981bca004605c783"),
    (["pipeline", "--indices", "160", "--height", "256", "--wsize", "10", "--seed", "0"],
     "4f0b6910c55553f4312937fc0e19c2ea9fb5010991668e46e8e02ff880148f2c"),
    (["simulate-p", "--indices", "64", "--height", "64", "--seed", "7"],
     "1383225a867d7aff4c22644674d60aa8dc943e7027efb25768c2e73896852797"),
    (["pcc", "--t1", "120", "--t2", "120", "--seed", "21"],
     "6561890b4ce833a180f443a0b86b48f07815e505846667248fbf47bc97442fa6"),
    (["pcc", "--t1", "30", "--t2", "8", "--seed", "1"],
     "ef2da7262da1f190b0059b48a470a9755f94e06211d442ad366eac74c598edf5"),
]


@pytest.mark.parametrize(
    "argv, sha", GOLDEN, ids=["pipeline-80x128", "pipeline-160x256", "simulate-p-64x64", "pcc-120x120", "pcc-30x8"]
)
def test_reports_match_their_golden_digests(argv, sha, tmp_path):
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_simulate_p_at_the_universe_limit_reads_back(tmp_path):
    out = tmp_path / "frag.json"
    assert main(["simulate-p", "--indices", "0", "--height", str(MAX_UNIVERSE), "--out", str(out)]) == 0
    assert GapFragment.from_json(json.loads(out.read_text())).universe == MAX_UNIVERSE
    assert main(["check", "special", "--gap", str(out)]) == 0


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
    condition of height 10**6, two million free bits whose slots would take
    about 125 GB."""
    c1 = _write(tmp_path / "c1.json", {"height": 0, "entries": [{"ord": [0, 1], "a_bits": "", "b_bits": ""}]})
    c2 = _write(tmp_path / "c2.json", {"height": 10**6, "entries": []})
    tracemalloc.start()
    try:
        code = main(["oracle", "p", "--cond1", c1, "--cond2", c2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert "2000000 free bits" in capsys.readouterr().err
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


def test_pipeline_reads_its_ladder_and_partition_flags(tmp_path):
    argv = ["pipeline", "--indices", "20", "--height", "16", "--wsize", "4", "--seed", "2"]
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


def test_pipeline_failure_exit_code(tmp_path):
    # asking for more selected indices than exist must fail the simulation
    assert main(["pipeline", "--indices", "4", "--height", "8", "--wsize", "9"]) == 3


def test_pipeline_impossible_wsize_fails_before_building_its_schedule(capsys):
    tracemalloc.start()
    try:
        code = main(["pipeline", "--indices", "4", "--height", "8", "--wsize", "1000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "RequirementFailure" in capsys.readouterr().err
    assert peak < 2**20  # the schedule alone would hold 10**9 requirements


@pytest.mark.parametrize(
    "module, name, invariant",
    [(poset_p, "p_leq", "extend-order"), (simulate, "q_leq", "selection-order")],
    ids=["extend-order", "selection-order"],
)
def test_pipeline_invariant_violation_keeps_its_fields(module, name, invariant, monkeypatch, capsys):
    monkeypatch.setattr(module, name, lambda *args: False)
    assert main(["pipeline", "--indices", "4", "--height", "4", "--wsize", "2"]) == 3
    assert capsys.readouterr().err.startswith(f"gapforge: InvariantViolation: {invariant}: ")


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
    tracemalloc.start()
    try:
        code = main(["pcc", "--t1", str(t1), "--t2", str(t2), "--seed", "0", "--out", "never-written.json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
