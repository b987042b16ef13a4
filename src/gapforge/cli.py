"""Command-line front door: simulate, check, oracle, pipeline, and pcc.

JSON in, JSON/CSV out, no interactive mode.  Every command is deterministic
given its flags and seed; the seed comes from --seed, else the GAPFORGE_SEED
environment variable, else 0.

Exit codes: 0 success / predicate holds; 1 predicate false or incompatible;
2 invalid flags or malformed input; 3 simulation or assertion failure;
4 search too large.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    GapforgeError,
    InvariantViolation,
    RequirementFailure,
    SearchTooLarge,
)
from .gaps import MAX_UNIVERSE, GapFragment, c_hausdorff_check, members, special_gap_check, uniform_interpolation
from .ordinals import Ladder, SPartition
from .pcc import (
    CompatMatrix,
    build_compat_matrix,
    find_compatible_pair,
    generate_pcc_instance,
    max_order_rectangle,
)
from .poset_p import PCondition, p_compatible_oracle
from .poset_q import QCondition, QContext, q_compatible
from .simulate import (
    build_filter,
    default_index_blocks,
    default_partition,
    extract_gap_fragment,
    p_standard_schedule,
    pipeline,
)


def _resolve_seed(flag: int | None) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("GAPFORGE_SEED")
    if env is not None:
        return int(env)
    return 0


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_context(manifest_path: str) -> QContext:
    data = _load_json(manifest_path)
    if not isinstance(data, dict) or not {"gap", "ladder", "partition"} <= set(data):
        raise ValueError("manifest must name gap, ladder, and partition files")
    root = Path(manifest_path).parent
    frag = GapFragment.from_json(_load_json(root / data["gap"]))
    ladder = Ladder.from_json(_load_json(root / data["ladder"]))
    part = SPartition.from_json(_load_json(root / data["partition"]))
    return QContext(frag, ladder, part)


def _check_height(height: int) -> None:
    # the height is the universe of the forged diagram, which must load again
    if height > MAX_UNIVERSE:
        raise ValueError(f"--height {height} exceeds the diagram universe limit {MAX_UNIVERSE}")


def _cmd_simulate_p(args) -> int:
    _check_height(args.height)
    seed = _resolve_seed(args.seed)
    ordinals = default_index_blocks(args.indices)
    run = build_filter(PCondition.empty(), p_standard_schedule(ordinals, args.height, seed))
    frag = extract_gap_fragment(run.result)
    _emit(frag.to_json(), args.out)
    return 0


def _cmd_check(args) -> int:
    manifest = _load_json(args.manifest) if args.manifest else {}
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    root = Path(args.manifest).parent if args.manifest else Path(".")

    def pick(flag, key):
        if flag:
            return Path(flag)
        if key in manifest:
            return root / manifest[key]
        return None

    gap_path = pick(args.gap, "gap")
    if gap_path is None:
        raise ValueError("a gap file is required (--gap or manifest)")
    g = GapFragment.from_json(_load_json(gap_path))

    if args.predicate == "special":
        holds = special_gap_check(g, args.n0)
        _emit({"predicate": "special", "n0": args.n0, "holds": holds}, args.out)
        return 0 if holds else 1

    if args.predicate == "interpolate":
        x = uniform_interpolation(g, args.n0)
        _emit(
            {"predicate": "interpolate", "n0": args.n0, "witness": members(x) if x is not None else None},
            args.out,
        )
        return 0 if x is not None else 1

    ladder_path = pick(args.ladder, "ladder")
    part_path = pick(args.partition, "partition")
    if ladder_path is None or part_path is None:
        raise ValueError("the ladder predicate needs ladder and partition files")
    ladder = Ladder.from_json(_load_json(ladder_path))
    part = SPartition.from_json(_load_json(part_path))
    result = c_hausdorff_check(g, ladder, part)
    witnesses = [wit.to_json() for _, wit in sorted(result.items()) if wit is not None]
    failures = [
        {"delta": d.to_json(), "j": j.to_json()} for (d, j), wit in sorted(result.items()) if wit is None
    ]
    _emit(
        {"predicate": "c-hausdorff", "witnesses": witnesses, "failures": failures, "holds": not failures},
        args.out,
    )
    return 0 if not failures else 1


def _cmd_oracle(args) -> int:
    if args.poset == "p":
        p = PCondition.from_json(_load_json(args.cond1))
        q = PCondition.from_json(_load_json(args.cond2))
        witness = p_compatible_oracle(p, q, args.max_free_bits)
    else:
        if not args.manifest:
            raise ValueError("the q oracle needs a context manifest")
        ctx = _load_context(args.manifest)
        p = QCondition.from_json(_load_json(args.cond1))
        q = QCondition.from_json(_load_json(args.cond2))
        witness = q_compatible(ctx, p, q)
    if witness is None:
        _emit({"compatible": False, "witness": None}, args.out)
        return 1
    _emit({"compatible": True, "witness": witness.to_json()}, args.out)
    return 0


def _cmd_pipeline(args) -> int:
    _check_height(args.height)
    seed = _resolve_seed(args.seed)
    ordinals = default_index_blocks(args.indices)
    ladder = Ladder.from_json(_load_json(args.ladder)) if args.ladder else Ladder.canonical()
    part = (
        SPartition.from_json(_load_json(args.partition))
        if args.partition
        else default_partition(ordinals)
    )
    report = pipeline(ordinals, args.height, args.wsize, ladder, part, seed)
    _emit(report, args.out)
    return 0


def _cmd_pcc(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.matrix:
        matrix = CompatMatrix.from_csv(Path(args.matrix).read_text(encoding="utf-8"))
        rows, cols = max_order_rectangle(matrix)
        report = {
            "rectangle": {
                "rows": [matrix.row_index[x].to_json() for x in rows],
                "cols": [matrix.col_index[y].to_json() for y in cols],
            },
            "verified": True,  # max_order_rectangle raises InvariantViolation otherwise
        }
        _emit(report, args.out)
        return 0
    inst = generate_pcc_instance(seed, args.t1, args.t2)
    triple = find_compatible_pair(inst)
    if triple is None:
        raise InvariantViolation("compatible-pair", "no order-respecting pair carries a witness")
    d1, d2, n = triple
    matrix = build_compat_matrix(
        inst.ctx,
        [(d, inst.fam1[d]) for d in inst.t1],
        [(d, inst.fam2[d]) for d in inst.t2],
    )
    rows, cols = max_order_rectangle(matrix)
    report = {
        "seed": seed,
        "k": inst.k,
        "pair": {"delta1": d1.to_json(), "delta2": d2.to_json(), "n": n},
        "rectangle": {
            "rows": [matrix.row_index[x].to_json() for x in rows],
            "cols": [matrix.col_index[y].to_json() for y in cols],
        },
        "matrix_csv": matrix.to_csv(),
    }
    _emit(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gapforge", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate-p", help="forge a diagram and write it as JSON")
    sim.add_argument("--indices", type=int, required=True, help="number of tower indices")
    sim.add_argument("--height", type=int, required=True, help="target height of the final condition")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", required=True, help="output fragment path")
    sim.set_defaults(func=_cmd_simulate_p)

    chk = sub.add_parser("check", help="evaluate a gap predicate on a diagram")
    chk.add_argument("predicate", choices=["c-hausdorff", "special", "interpolate"])
    chk.add_argument("--manifest", help="manifest naming gap/ladder/partition files")
    chk.add_argument("--gap", help="fragment file (overrides the manifest)")
    chk.add_argument("--ladder", help="ladder file (overrides the manifest)")
    chk.add_argument("--partition", help="partition file (overrides the manifest)")
    chk.add_argument("--n0", type=int, default=0)
    chk.add_argument("--out")
    chk.set_defaults(func=_cmd_check)

    orc = sub.add_parser("oracle", help="decide compatibility of two conditions")
    orc.add_argument("poset", choices=["p", "q"])
    orc.add_argument("--cond1", required=True)
    orc.add_argument("--cond2", required=True)
    orc.add_argument("--manifest", help="context manifest (q only)")
    orc.add_argument("--max-free-bits", type=int, default=24)
    orc.add_argument("--out")
    orc.set_defaults(func=_cmd_oracle)

    pipe = sub.add_parser("pipeline", help="run the forge-then-specialize pipeline")
    pipe.add_argument("--indices", type=int, required=True)
    pipe.add_argument("--height", type=int, required=True)
    pipe.add_argument("--wsize", type=int, required=True, help="target size of the selected index set")
    pipe.add_argument("--seed", type=int, default=None)
    pipe.add_argument("--ladder", help="ladder file (defaults to canonical)")
    pipe.add_argument("--partition", help="partition file (defaults to block limits)")
    pipe.add_argument("--out")
    pipe.set_defaults(func=_cmd_pipeline)

    pcc = sub.add_parser("pcc", help="compatibility-matrix and rectangle experiments")
    pcc.add_argument("--t1", type=int, default=30)
    pcc.add_argument("--t2", type=int, default=30)
    pcc.add_argument("--seed", type=int, default=None)
    pcc.add_argument("--matrix", help="CSV matrix file: rectangle search only")
    pcc.add_argument("--out")
    pcc.set_defaults(func=_cmd_pcc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchTooLarge as e:
        print(f"gapforge: SearchTooLarge: {e}", file=sys.stderr)
        return 4
    except (InvariantViolation, RequirementFailure) as e:
        print(f"gapforge: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except (GapforgeError, ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as e:
        print(f"gapforge: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
