"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads as W  # noqa: E402
from reference import oracle_free_bits, ref_p_leq  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def gf():
    return run.load_package()


@pytest.fixture(scope="module")
def expected():
    return json.loads(run.EXPECTED.read_text(encoding="utf-8"))


def test_generators_are_deterministic_per_seed(gf, tmp_path):
    for s in (0, 1, 17, 31, 1000):
        assert W.compat_input(gf, s) == W.compat_input(gf, s)
    assert W.compat_input(gf, 3) != W.compat_input(gf, 35)
    assert W.check_diagram(5) == W.check_diagram(5)
    assert W.check_diagram(5) != W.check_diagram(6)
    for cls in (W.Forge, W.Pcc, W.Check):
        one = cls(gf, 9, tmp_path / "a", {})
        two = cls(gf, 9, tmp_path / "b", {})
        other = cls(gf, 10, tmp_path / "c", {})
        keys = [one.key(k) for k in range(30)]
        assert keys == [two.key(k) for k in range(30)]
        assert keys != [other.key(k) for k in range(30)]
    written = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert written == sorted(f.name for f in (tmp_path / "b").iterdir())
    for name in written:
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def test_check_pool_files_match_the_generator(gf, tmp_path):
    check = W.Check(gf, 62, tmp_path, {})
    for ds in range(W.Check.TABLE):
        frag, _ = W.check_diagram(ds)
        assert json.loads((tmp_path / f"gap-{ds}.json").read_text()) == frag
    assert check.key(0) == "6:special" and check.key(2) == "0:special"
    assert check.key(W.Check.TABLE) == "6:interpolate"
    assert len({check.key(k) for k in range(W.Check.BATCH)}) == W.Check.BATCH


def test_compat_free_bits_stay_under_the_cap(gf):
    slots = set()
    for s in range(W.Compat.TABLE):
        kind, p, q, meta = W.compat_input(gf, s)
        if kind != "oracle":
            continue
        assert oracle_free_bits(p, q) == meta["free_bits"] <= W.FREE_BITS_CAP
        slots.add((meta["free_bits"], meta["incompatible"]))
    assert slots == set(W.ORACLE_SLOTS)


def test_compat_free_bit_count_matches_the_oracle_cap(gf):
    oracle = gf.poset_p.p_compatible_oracle
    seen = set()
    for s in range(0, 4 * W.CYCLE, 2):
        kind, p, q, meta = W.compat_input(gf, s)
        free = meta["free_bits"]
        if free > 6:
            continue
        assert (oracle(p, q, max_free_bits=free) is None) == meta["incompatible"]
        if free:
            with pytest.raises(gf.package.SearchTooLarge):
                oracle(p, q, max_free_bits=free - 1)
        seen.add(free)
    assert seen == {0, 2, 4, 6}


def test_joins_meet_their_hypothesis(gf):
    for s in range(1, 2 * W.CYCLE, 2):
        kind, p, q, _ = W.compat_input(gf, s)
        assert kind in ("join", "join_from_core")
        core = gf.poset_p.p_restrict(p, q.entries)
        assert q.height >= p.height and ref_p_leq(core, q)


def _height_le_1_grid(gf):
    Ordinal, PCondition = gf.ordinals.Ordinal, gf.poset_p.PCondition
    ords = [Ordinal(0, 1), Ordinal(0, 2), Ordinal(1, 0)]
    words = {0: [("", "")], 1: [("0", "0"), ("0", "1"), ("1", "1")]}
    grid = []
    for height in (0, 1):
        for n in range(len(ords) + 1):
            for dom in itertools.combinations(ords, n):
                for choice in itertools.product(words[height], repeat=n):
                    grid.append(PCondition(height, dict(zip(dom, choice))))
    return grid


def test_reference_p_leq_agrees_on_the_height_le_1_grid(gf):
    grid = _height_le_1_grid(gf)
    assert len(grid) == 8 + 64
    verdicts = [(ref_p_leq(p, q), gf.poset_p.p_leq(p, q)) for p in grid for q in grid]
    assert all(ref == pkg for ref, pkg in verdicts)
    assert {ref for ref, _ in verdicts} == {True, False}


def _run_check(capsys):
    assert run.main(["--workload", "check", "--seed", "3", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ratio = next(float(ln.split()[1]) for ln in lines if ln.split()[0] == "failed_op_ratio")
    return json.loads(lines[-1]), ratio


def test_a_corrupted_digest_shows_as_a_failed_op(expected, tmp_path, capsys, monkeypatch):
    result, ratio = _run_check(capsys)
    assert result["correct"] and result["failed"] == 0 and ratio == 0
    assert result["attempted"] == W.Check.BATCH
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    corrupted = dict(expected, check={**expected["check"], "5:interpolate": "0" * 16})
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(corrupted))
    monkeypatch.setattr(run, "EXPECTED", path)
    result, ratio = _run_check(capsys)
    assert not result["correct"] and result["failed"] == 1 and ratio == pytest.approx(1 / W.Check.BATCH, rel=1e-5)


def test_tracer_restores_the_package_and_keeps_outputs(gf, expected, tmp_path):
    originals = (gf.poset_p.p_leq, gf.simulate.p_leq, gf.cli.pipeline, gf.ordinals.Ordinal.__lt__)
    tracer = Tracer(gf)
    workload = W.Check(gf, 0, tmp_path, expected["check"])
    times, scaled, traced, failed, failures, report_bytes = run.measure(workload, 0, tracer)
    assert failed == 0, failures
    assert (gf.poset_p.p_leq, gf.simulate.p_leq, gf.cli.pipeline, gf.ordinals.Ordinal.__lt__) == originals
    assert len(traced) == len(scaled) == len(times) and report_bytes > 0
    assert all(s > 0 for s in scaled)
    m = tracer.metrics()
    assert m["cli.main.calls"] == len(times)
    assert m["gaps.excess.calls"] > 0 and m["ordinals.Ladder.first_index_above.calls"] > 0


def test_self_times_add_up_to_the_root_spans(gf, expected, tmp_path):
    tracer = Tracer(gf)
    run.measure(W.Check(gf, 0, tmp_path, expected["check"]), 0, tracer)
    roots = sum(end - start for _, _, parent, _, start, end, _ in tracer.spans if parent == 0)
    total_self = sum(tracer.self_ns.values())
    assert total_self == roots
    for name, own in tracer.self_ns.items():
        assert own >= 0, name


def test_benchmark_json_names_every_metric(gf, expected, tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    tracer = Tracer(gf)
    names = set(tracer.metrics()) | {"cli.report_bytes", "trace.ops", "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == names
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m["name"]
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
