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
from gapforge.cli import main
from gapforge.gaps import MAX_UNIVERSE
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


def test_check_c_hausdorff_with_manifest(tmp_path):
    a = {fin(i): mask(range(i + 1)) for i in range(1, 5)}
    a[Ordinal(1, 1)] = 0
    b = {o: 0 for o in a}
    gap = _write(tmp_path / "gap.json", GapFragment(8, a, b).to_json())
    ladder = _write(tmp_path / "ladder.json", Ladder.canonical().to_json())
    limits = frozenset({Ordinal(1, 0)})
    part = _write(tmp_path / "part.json", SPartition(S=limits, T=frozenset(), D=limits).to_json())
    manifest = _write(
        tmp_path / "manifest.json",
        {"gap": "gap.json", "ladder": "ladder.json", "partition": "part.json"},
    )
    out = tmp_path / "report.json"
    assert main(["check", "c-hausdorff", "--manifest", manifest, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["holds"] is True and report["witnesses"]

    # full b-sets leave only the vacuous threshold: the check reports failures
    full = GapFragment(8, a, {o: mask(range(8)) for o in a})
    gap2 = _write(tmp_path / "gap.json", full.to_json())
    assert main(["check", "c-hausdorff", "--manifest", manifest]) == 1


def test_check_c_hausdorff_table_too_short(tmp_path, capsys):
    a = {fin(i): mask(range(i + 1)) for i in range(1, 5)}
    a[Ordinal(1, 1)] = 0
    b = {o: 0 for o in a}
    gap = _write(tmp_path / "gap.json", GapFragment(8, a, b).to_json())
    short = _write(
        tmp_path / "ladder.json", Ladder.explicit({Ordinal(1, 0): [fin(0), fin(1)]}).to_json()
    )
    limits = frozenset({Ordinal(1, 0)})
    part = _write(tmp_path / "part.json", SPartition(S=limits, T=frozenset(), D=limits).to_json())
    code = main(["check", "c-hausdorff", "--gap", gap, "--ladder", short, "--partition", part])
    assert code == 2
    assert "TableTooShort" in capsys.readouterr().err


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


def test_pcc_rejects_empty_families_and_the_budget_flag(capsys):
    assert main(["pcc", "--t1", "-3", "--t2", "5"]) == 2
    assert main(["pcc", "--t1", "0", "--t2", "5"]) == 2
    assert "ValueError" in capsys.readouterr().err
    # once a 2^40-subset search, now an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["pcc", "--budget", "1099511627776"])
    assert exc.value.code == 2


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
