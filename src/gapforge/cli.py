"""Command-line front door: simulate, check, oracle, pipeline, and pcc.

JSON in, JSON/CSV out, no interactive mode.  Every command is deterministic
given its flags and seed; the seed comes from --seed, else the GAPFORGE_SEED
environment variable, else 0.  A gap, ladder or partition input is the file
its flag names, else the file the --manifest object names (relative to the
manifest), else the command's default: `check` and `oracle q` have none,
`pipeline` takes the canonical ladder and the block-limit partition.

Exit codes: 0 success / predicate holds; 1 predicate false or incompatible;
2 invalid flags or malformed input; 3 simulation or assertion failure;
4 search too large.
"""

from __future__ import annotations

import argparse
import functools
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
    MAX_INDICES,
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


_DECODERS = {"gap": GapFragment.from_json, "ladder": Ladder.from_json, "partition": SPartition.from_json}


def _load_input(args, key: str, default=None):
    """The input `key` (gap, ladder or partition), decoded: from the file
    --<key> names, else from the file the manifest names for `key`,
    relative to the manifest, else `default`.  A manifest that is given is
    read and must be a JSON object; with nothing to load, the command
    exits 2."""
    manifest_path = getattr(args, "manifest", None)
    manifest = _load_json(manifest_path) if manifest_path else {}
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    flag = getattr(args, key, None)
    if flag:
        path = Path(flag)
    elif key in manifest:
        path = Path(manifest_path).parent / manifest[key]
    elif default is not None:
        return default
    else:
        raise ValueError(f"a {key} file is required, and no flag or manifest names one")
    return _DECODERS[key](_load_json(path))


def _check_size(indices: int, height: int) -> None:
    if indices > MAX_INDICES:
        raise ValueError(f"--indices {indices} exceeds the forge limit {MAX_INDICES}")
    # the height is the universe of the forged diagram, which must load again
    if height > MAX_UNIVERSE:
        raise ValueError(f"--height {height} exceeds the diagram universe limit {MAX_UNIVERSE}")


def _cmd_simulate_p(args) -> int:
    _check_size(args.indices, args.height)
    seed = _resolve_seed(args.seed)
    ordinals = default_index_blocks(args.indices)
    run = build_filter(PCondition.empty(), p_standard_schedule(ordinals, args.height, seed))
    frag = extract_gap_fragment(run.result)
    _emit(frag.to_json(), args.out)
    return 0


def _cmd_check(args) -> int:
    if args.n0 < 0:
        raise ValueError(f"--n0 must be a natural, got {args.n0}")
    g = _load_input(args, "gap")

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

    result = c_hausdorff_check(g, _load_input(args, "ladder"), _load_input(args, "partition"))
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
    if args.max_free_bits < 0:
        raise ValueError(f"--max-free-bits must be a natural, got {args.max_free_bits}")
    cond = PCondition if args.poset == "p" else QCondition
    p, q = (cond.from_json(_load_json(path)) for path in (args.cond1, args.cond2))
    if cond is PCondition:
        witness = p_compatible_oracle(p, q, args.max_free_bits)
    else:
        witness = q_compatible(QContext(*(_load_input(args, key) for key in ("gap", "ladder", "partition"))), p, q)
    _emit({"compatible": witness is not None, "witness": None if witness is None else witness.to_json()}, args.out)
    return 0 if witness is not None else 1


def _cmd_pipeline(args) -> int:
    _check_size(args.indices, args.height)
    seed = _resolve_seed(args.seed)
    ordinals = default_index_blocks(args.indices)
    ladder = _load_input(args, "ladder", Ladder.canonical())
    part = _load_input(args, "partition", default_partition(ordinals))
    report = pipeline(ordinals, args.height, args.wsize, ladder, part, seed)
    _emit(report, args.out)
    return 0


def _cmd_pcc(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.matrix:
        matrix = CompatMatrix.from_csv(Path(args.matrix).read_text(encoding="utf-8"))
        report = {"verified": True}  # max_order_rectangle raises InvariantViolation otherwise
    else:
        inst = generate_pcc_instance(seed, args.t1, args.t2)
        triple = find_compatible_pair(inst)
        if triple is None:
            raise InvariantViolation("compatible-pair", "no order-respecting pair carries a witness")
        d1, d2, n = triple
        matrix = build_compat_matrix(inst.ctx, inst.fam1, inst.fam2)
        report = {
            "seed": seed,
            "k": inst.k,
            "pair": {"delta1": d1.to_json(), "delta2": d2.to_json(), "n": n},
            "matrix_csv": matrix.to_csv(),
        }
    rows, cols = max_order_rectangle(matrix)
    report["rectangle"] = {
        "rows": [matrix.row_index[x].to_json() for x in rows],
        "cols": [matrix.col_index[y].to_json() for y in cols],
    }
    _emit(report, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it is most of a small command's fixed cost."""
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
    args = build_parser().parse_args(argv)
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
