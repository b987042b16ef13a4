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
import contextlib
import functools
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import (
    GapforgeError,
    InvariantViolation,
    RequirementFailure,
    SearchTooLarge,
)
from .gaps import (
    MAX_INDICES,
    MAX_UNIVERSE,
    Failures,
    GapFragment,
    MemberTable,
    Witnesses,
    c_hausdorff_check,
    member_text,
    members,
    special_gap_check,
    uniform_interpolation,
)
from .ordinals import Ladder, Ordinal, SPartition
from .pcc import (
    CompatMatrix,
    build_compat_matrix,
    find_compatible_pair,
    generate_pcc_instance,
    max_order_rectangle,
)
from .poset_p import PCondition, p_compatible_oracle
from .poset_q import QCondition, QContext, q_compatible
from .simulate import default_index_blocks, default_partition, forge, pipeline


def _resolve_seed(flag: int | None) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("GAPFORGE_SEED")
    if env is not None:
        return int(env)
    return 0


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:  # the decoder recurses once per level of nesting
        raise ValueError(f"{path} nests its JSON too deeply to load") from None


def _write_json(write, obj, pad: str) -> None:
    """Write `obj` at indentation `pad` with the bytes of json.dump(obj,
    sort_keys=True, indent=2): a key through json's own str quoting, an
    exact int (no bool) through str, a list of them in one join and a list
    of exact-int pairs (Ordinals, [q, r] lists or tuples) in one format,
    every other scalar through json.dumps; a key that is no str raises
    TypeError in the quoting, where json would convert some of them.  Of the
    report values that are no JSON, a GapFragment is written as its
    `to_json` with no dict: I and J as pair lists, each map in key-text order
    ("10.0" before "2.0"), each set one join around its `member_text` over
    one table of member texts; Witnesses and Failures as one object per row,
    one format over their KEYS."""
    inner = pad + "  "
    if isinstance(obj, GapFragment):
        at, deep = "\n" + inner + "  ", "\n" + inner + "    "
        table = MemberTable(list(map(str, range(obj.universe))), "," + deep)
        for sep, name, value in ("{\n", "I", obj.I), (",\n", "J", obj.J):
            write(f'{sep}{inner}"{name}": ')
            _write_json(write, value, inner)
        for name, side in ("a", obj.a), ("b", obj.b):
            write(f',\n{inner}"{name}": {{')
            for n, (key, mask) in enumerate(sorted([("%d.%d" % o, m) for o, m in side.items()])):  # o.key(), uncalled
                text = member_text(mask, table)
                write("".join(("," if n else "", at, '"', key, '": [', text and deep, text, text and at, "]")))
            write("\n" + inner + "}" if side else "}")
        write(f',\n{inner}"universe": {obj.universe}\n{pad}}}')
    elif isinstance(obj, (Witnesses, Failures)):
        at, deep = inner + "  ", inner + "    "
        pair = f"[\n{deep}%d,\n{deep}%d\n{at}]"
        fields = ",\n".join([f'{at}"{key}": {"%d" if n > 1 else pair}' for n, key in enumerate(obj.KEYS)])
        row = f"{inner}{{\n{fields}\n{inner}}}"
        for n, (d, j, *ints) in enumerate(obj.rows):
            write((",\n" if n else "[\n") + row % (*d, *j, *ints))
        write("\n" + pad + "]" if obj.rows else "[]")
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        sep = "{\n"
        for key, value in sorted(obj.items()):
            write(sep + inner + encode_basestring_ascii(key) + ": ")
            _write_json(write, value, inner)
            sep = ",\n"
        write("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        types = set(map(type, obj))
        if not obj:
            write("[]")
        elif types == {int}:
            write("[\n" + inner + (",\n" + inner).join(map(str, obj)) + "\n" + pad + "]")
        elif (types <= {list, tuple, Ordinal} and set(map(len, obj)) == {2}
              and set(map(type, flat := tuple(chain.from_iterable(obj)))) == {int}):
            row = f"{inner}[\n{inner}  %d,\n{inner}  %d\n{inner}]"
            write("[\n" + ",\n".join([row] * len(obj)) % flat + "\n" + pad + "]")
        else:
            sep = "[\n"
            for x in obj:
                write(sep + inner)
                _write_json(write, x, inner)
                sep = ",\n"
            write("\n" + pad + "]")
    else:
        write(str(obj) if type(obj) is int else json.dumps(obj))


def _emit(obj, out: str | None) -> None:
    """Stream the report to stdout or to the file `out`, holding at most the
    text of one list of ints or of pairs, or of one set, at a time."""
    with open(out, "w", encoding="utf-8") if out is not None else contextlib.nullcontext(sys.stdout) as fh:
        _write_json(fh.write, obj, "")
        fh.write("\n")


_DECODERS = {"gap": GapFragment, "ladder": Ladder, "partition": SPartition}  # from_json is looked up at each load


def _loader(args):
    """The loader of a command's inputs: `load(key, default=None)` decodes
    the file --<key> names (gap, ladder or partition), else the one the
    manifest names for `key` (a string, relative to the manifest), else
    returns `default`.  A given manifest is read once, here, and must be a
    JSON object; with nothing to load, the command exits 2."""
    manifest_path = getattr(args, "manifest", None)
    manifest = _load_json(manifest_path) if manifest_path else {}
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")

    def load(key: str, default=None):
        flag = getattr(args, key, None)
        if flag:
            path = Path(flag)
        elif key in manifest:
            if not isinstance(manifest[key], str):
                raise ValueError(f"manifest entry {key!r} must be a file name, got {manifest[key]!r}")
            path = Path(manifest_path).parent / manifest[key]
        elif default is not None:
            return default
        else:
            raise ValueError(f"a {key} file is required, and no flag or manifest names one")
        return _DECODERS[key].from_json(_load_json(path))

    return load


def _check_size(indices: int, height: int) -> None:
    if indices > MAX_INDICES:
        raise ValueError(f"--indices {indices} exceeds the forge limit {MAX_INDICES}")
    # the height is the universe of the forged diagram, which must load again
    if height > MAX_UNIVERSE:
        raise ValueError(f"--height {height} exceeds the diagram universe limit {MAX_UNIVERSE}")
    # every index needs a level of its own, so this admits every index count at height = indices
    if indices > 0 and indices * height > MAX_INDICES**2:
        raise ValueError(f"--indices {indices} by --height {height} exceeds the forge limit {MAX_INDICES}^2")


def _cmd_simulate_p(args) -> int:
    _check_size(args.indices, args.height)
    seed = _resolve_seed(args.seed)
    ordinals = default_index_blocks(args.indices)
    _emit(forge(ordinals, args.height, seed), args.out)
    return 0


def _cmd_check(args) -> int:
    if args.n0 < 0:
        raise ValueError(f"--n0 must be a natural, got {args.n0}")
    load = _loader(args)
    g = load("gap")

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

    rows, failures = c_hausdorff_check(g, load("ladder"), load("partition"))
    _emit(
        {
            "predicate": "c-hausdorff",
            "witnesses": Witnesses(rows),
            "failures": Failures(failures),
            "holds": not failures,
        },
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
        witness = q_compatible(QContext(*map(_loader(args), ("gap", "ladder", "partition"))), p, q)
    _emit({"compatible": witness is not None, "witness": None if witness is None else witness.to_json()}, args.out)
    return 0 if witness is not None else 1


def _cmd_pipeline(args) -> int:
    _check_size(args.indices, args.height)
    seed = _resolve_seed(args.seed)
    ordinals = default_index_blocks(args.indices)
    load = _loader(args)
    ladder = load("ladder", Ladder.canonical())
    part = load("partition", default_partition(ordinals))
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
