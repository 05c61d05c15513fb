"""Command-line front end.

Every subcommand emits a single report (JSON by default, CSV via --format csv
for the four commands with a table) that echoes the tool version, the full
configuration and the seed, so identical invocations produce byte-identical
reports apart from the timestamp field.  A JSON report has a 2-space indent
and sorted keys, byte for byte as json.dumps(report, indent=2,
sort_keys=True) prints it.

Exit codes: 0 success, 1 negative verdict (a false membership against
--expect true, or a search that found nothing), 2 usage or input error,
3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone
from itertools import chain

from . import __version__
from .exact import (
    ResourceLimitError,
    char_poly,
    format_poly,
    matrix_from_json,
    matrix_to_json,
    noncyclotomic_factor,
    poly_to_json,
)
from .engine import (
    WITNESS_MAX_BYTES,
    GrowthForm,
    UpperBoundSpec,
    preset,
    search_partially_hyperbolic,
    upper_bound_curve,
    witness_certificate,
)
from .exterior import johnson_target, relative_target, target_to_json, wedge3_map
from .mapclass import (
    TW_membership,
    evaluate,
    exponent_from_json,
    level_membership,
    preserves_lattice,
    torelli_membership,
    word_from_json,
)
from .oracle import SemidirectGroup, bfs_ball, finite_closure


def _load_json_arg(text: str):
    """Inline JSON if the argument looks like JSON, else a file path."""
    stripped = text.strip()
    try:
        if stripped.startswith(("[", "{")):
            return json.loads(stripped)
        with open(text) as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _matrix_arg(text: str):
    return matrix_from_json(_load_json_arg(text))


def _gens_arg(text: str):
    """A list of matrices, bare or as {"matrices": [...]}."""
    obj = _load_json_arg(text)
    mats = obj.get("matrices") if isinstance(obj, dict) else obj
    if not isinstance(mats, list):
        raise ValueError('generators are a list of matrices or {"matrices": [...]}')
    return [matrix_from_json(m) for m in mats]


# Reports print as json.dumps(report, indent=2, sort_keys=True) does, but the
# encoding is done by JSONEncoder.encode, which takes the C encoder whenever
# indent is None.  Its ",\n" item separator leaves a raw newline only between
# items, since ensure_ascii escapes every control character in a string; the
# indent is then put in after each newline.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n", ": "))
_NESTED = (dict, list, tuple)


def _scalars(values) -> bool:
    """Is no value a dict, list or tuple?"""
    return not any(issubclass(t, _NESTED) for t in set(map(type, values)))


def _dumps(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), with pad the newline and
    indent of obj's own line.  A container of scalars is one encode call, and
    so is a list of non-empty dicts of scalars, or of non-empty lists of
    scalars: there a close bracket, separator and open bracket mark the
    boundary of two items, since no scalar ends or starts with a bracket."""
    if not isinstance(obj, _NESTED) or not obj:
        return _ENCODER.encode(obj)
    inner = pad + "  "
    if _scalars(obj.values() if isinstance(obj, dict) else obj):
        text = _ENCODER.encode(obj)
        return text[0] + inner + text[1:-1].replace("\n", inner) + pad + text[-1]
    if isinstance(obj, dict):
        # a key that is not a string prints as the text of its JSON value
        items = [f"{_ENCODER.encode(k if isinstance(k, str) else _ENCODER.encode(k))}: {_dumps(v, inner)}"
                 for k, v in sorted(obj.items())]
        return "{" + inner + f",{inner}".join(items) + pad + "}"
    kind = set(map(type, obj))
    if all(obj) and (kind == {dict} and _scalars(chain.from_iterable(map(dict.values, obj)))
                     or kind == {list} and _scalars(chain.from_iterable(obj))):
        text = _ENCODER.encode(obj)
        deeper = inner + "  "
        start, end = text[1], text[-2]
        body = text[2:-2].replace("\n", deeper)
        body = body.replace(f"{end},{deeper}{start}", f"{inner}{end},{inner}{start}{deeper}")
        return f"[{inner}{start}{deeper}{body}{inner}{end}{pad}]"
    return "[" + inner + f",{inner}".join(_dumps(v, inner) for v in obj) + pad + "]"


def _emit(args, command: str, result: dict, csv_rows=None, csv_header=None) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
        report = {
            "tool": "distortion",
            "version": __version__,
            "command": command,
            "config": config,
            "seed": getattr(args, "seed", 0),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "result": result,
        }
        text = _dumps(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(args, message: str) -> None:
    if getattr(args, "verbose", 0):
        print(message, file=sys.stderr)


def _expect_verdict(args, verdict: bool) -> int:
    if args.expect is None:
        return 0
    return 0 if verdict == (args.expect == "true") else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_phyp(args) -> int:
    p = char_poly(_matrix_arg(args.matrix))
    r = noncyclotomic_factor(p)
    verdict = not r.is_one()
    _emit(args, "phyp", {
        "partially_hyperbolic": verdict,
        "char_poly": format_poly(p),
        "noncyclotomic_factor": format_poly(r),
    })
    return _expect_verdict(args, verdict)


def cmd_charpoly(args) -> int:
    p = char_poly(_matrix_arg(args.matrix))
    _emit(args, "charpoly", {"char_poly": format_poly(p), **poly_to_json(p)})
    return 0


def _limit_report(count: int, each: int, what: str) -> None:
    """ResourceLimitError if count items of at least `each` bytes of report
    would pass WITNESS_MAX_BYTES; callers ask before computing any item."""
    if count * each > WITNESS_MAX_BYTES:
        raise ResourceLimitError(f"{count} {what} of at least {each} bytes each would exceed the "
                                 f"{WITNESS_MAX_BYTES} bytes of report that are printed")


def cmd_wedge3(args) -> int:
    M = _matrix_arg(args.matrix)
    _limit_report(math.comb(M.rows, 3) * math.comb(M.cols, 3), 2, "minors")
    _emit(args, "wedge3", {"matrix": matrix_to_json(wedge3_map(M))})
    return 0


def cmd_target(args) -> int:
    if args.w is not None:
        target = relative_target(args.g, _matrix_arg(args.w), variant=args.variant)
    else:
        target = johnson_target(args.g, args.variant)
    _emit(args, "target", target_to_json(target))
    return 0


def cmd_membership(args) -> int:
    word = word_from_json(_load_json_arg(args.word))
    # an induced entry prints as a line of 10 spaces of indent, a quoted digit
    # at least and a newline, and a comma unless it ends its row, whose two
    # bracket lines take more than that one byte
    _limit_report((2 * word.genus) ** 2, 15, "induced entries")
    induced = evaluate(word)
    if args.kind == "torelli":
        verdict = torelli_membership(induced)
    elif args.kind == "level":
        if args.m is None:
            raise ValueError("level membership needs --m")
        verdict = level_membership(induced, args.m)
    elif args.kind == "modw":
        if args.w is None:
            raise ValueError("modw membership needs --w")
        verdict = preserves_lattice(induced, _matrix_arg(args.w))
    else:   # "tw", the last kind the parser admits
        if args.w is None:
            raise ValueError("tw membership needs --w")
        verdict = TW_membership(induced, _matrix_arg(args.w))
    _emit(args, "membership", {
        "kind": args.kind,
        "member": verdict,
        "induced": matrix_to_json(induced),
    })
    return _expect_verdict(args, verdict)


def cmd_witness(args) -> int:
    psi_table = None if args.psi_table is None else _load_json_arg(args.psi_table)
    datum = preset(args.preset, args.g, h=args.h, points=args.points, variant=args.variant,
                   psi_table=psi_table)
    shape = 'x is a list of [symbol, exponent] pairs, bare or as {"word": [...]}'
    x_obj = _load_json_arg(args.x)
    x_word = x_obj.get("word") if isinstance(x_obj, dict) else x_obj
    if not isinstance(x_word, list) or not all(isinstance(l, list) and len(l) == 2 and isinstance(l[0], str)
                                               for l in x_word):
        raise ValueError(shape)
    x_word = [(s, exponent_from_json(e)) for s, e in x_word]
    cert = witness_certificate(datum, x_word, args.y, args.n)
    result = cert.to_json()
    result["preset"] = datum.name
    result["provenance"] = datum.provenance
    _emit(args, "witness", result,
          csv_rows=[(r.n, r.extrinsic, r.intrinsic) for r in cert.rows],
          csv_header=("n", "extrinsic", "intrinsic"))
    return 0


def cmd_phyp_search(args) -> int:
    res = search_partially_hyperbolic(_gens_arg(args.gens), budget=args.budget, seed=args.seed)
    if res is None:
        _emit(args, "phyp-search", {"found": False, "budget": args.budget})
        return 1
    _emit(args, "phyp-search", {
        "found": True,
        "word": [[i, s] for i, s in res.word],
        "matrix": matrix_to_json(res.matrix),
        "noncyclotomic_factor": res.noncyclotomic_factor,
    })
    return 0


def cmd_bfs(args) -> int:
    group = SemidirectGroup(_matrix_arg(args.semidirect))
    ball = bfs_ball(group, args.radius, state_cap=args.state_cap)
    _note(args, f"ball complete: {len(ball)} states, layers {list(ball.layer_sizes)}")
    if args.out:
        # one json.dumps-style line per state, in ascending (v, t) order
        rows = ball.rows()
        line = '{"v": [' + ", ".join(["%d"] * group.rank) + '], "t": %d, "length": %d}\n'
        with open(args.out, "w") as fh:
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))
    summary_args = argparse.Namespace(**{**vars(args), "out": None})
    _emit(summary_args, "bfs", {
        "states": len(ball),
        "radius": ball.radius,
        "layer_sizes": list(ball.layer_sizes),
        "fiber_states": ball.fiber_states,
        "ball_file": args.out,
    }, csv_rows=list(enumerate(ball.layer_sizes)), csv_header=("length", "count"))
    return 0


def cmd_closure(args) -> int:
    res = finite_closure(_gens_arg(args.gens), args.mod, state_cap=args.state_cap)
    _note(args, f"closure complete: order {res.order} in {len(res.histogram)} layers")
    _emit(args, "closure", {
        "order": res.order,
        "modulus": args.mod,
        "histogram": list(res.histogram),
    }, csv_rows=list(enumerate(res.histogram)), csv_header=("length", "count"))
    return 0


def cmd_bound_curve(args) -> int:
    spec = UpperBoundSpec(
        mu_p=GrowthForm.parse(args.mu_p),
        mu_d=GrowthForm.parse(args.mu_d),
        C=args.c,
    )
    table = upper_bound_curve(spec, args.n_max)
    _emit(args, "bound-curve", {
        "mu_p": str(spec.mu_p),
        "mu_d": str(spec.mu_d),
        "C": spec.C,
        "rows": [{"n": n, "value": str(v)} for n, v in table],
    }, csv_rows=[(n, v) for n, v in table], csv_header=("n", "value"))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: main reuses it, and each
    parse_args call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="distortion",
        description="exact subgroup-distortion certificates for mapping class groups",
    )
    parser.add_argument("--version", action="version", version=f"distortion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False, table=False):
        p.add_argument("--out", help="write the report here instead of stdout")
        # CSV prints a table, which only four commands have
        p.add_argument("--format", choices=("json", "csv") if table else ("json",), default="json")
        p.add_argument("--verbose", "-v", action="count", default=0,
                       help="progress notes on stderr")
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("phyp", help="partial-hyperbolicity test for a unimodular matrix")
    p.add_argument("--matrix", required=True, help="inline JSON or a file path")
    p.add_argument("--expect", choices=("true", "false"))
    common(p)
    p.set_defaults(func=cmd_phyp)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial")
    p.add_argument("--matrix", required=True)
    common(p)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("wedge3", help="induced map on the third exterior power")
    p.add_argument("--matrix", required=True)
    common(p)
    p.set_defaults(func=cmd_wedge3)

    p = sub.add_parser("target", help="Johnson-style target module structure")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--variant", choices=("closed", "boundary"), default="closed")
    p.add_argument("--w", help="basis matrix of a primitive sublattice W for relative targets")
    common(p)
    p.set_defaults(func=cmd_target)

    p = sub.add_parser("membership", help="generalized word problem verdicts")
    p.add_argument("--kind", choices=("torelli", "level", "modw", "tw"), required=True)
    p.add_argument("--word", required=True,
                   help="word file (JSON); an exponent with |e| >= 2^63 exits 3")
    p.add_argument("--m", type=int, help="level for --kind level")
    p.add_argument("--w", help="subgroup basis matrix for modw/tw")
    p.add_argument("--expect", choices=("true", "false"))
    common(p)
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("witness", help="exponential-vs-linear certificate for x^n y x^-n")
    p.add_argument("--preset", required=True,
                   choices=("pointpush", "surface_braid", "torelli", "lagrangian", "pullback"))
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--h", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--variant", choices=("closed", "boundary"))
    p.add_argument("--psi-table", help="generator value table (JSON), replaces the closed-form values")
    p.add_argument("--x", required=True,
                   help="ambient word: file or inline JSON [['T_a1',1],...]; an exponent with |e| >= 2^63 exits 3")
    p.add_argument("--y", required=True, help="subgroup generator symbol")
    p.add_argument("--n", type=int, default=60)
    common(p, table=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("phyp-search", help="search for a partially hyperbolic word")
    p.add_argument("--gens", required=True, help="file or inline JSON list of matrices")
    p.add_argument("--budget", type=int, default=6)
    common(p, seeded=True)
    p.set_defaults(func=cmd_phyp_search)

    p = sub.add_parser("bfs", help="exact word-metric ball in Z^k x| Z")
    p.add_argument("--semidirect", required=True, help="the automorphism matrix")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--state-cap", type=int, default=10_000_000)
    common(p, table=True)
    p.set_defaults(func=cmd_bfs)

    p = sub.add_parser("closure", help="order of a finite matrix group mod L")
    p.add_argument("--gens", required=True)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--state-cap", type=int, default=10_000_000)
    common(p, table=True)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("bound-curve", help="upper-bound table mu_P(n) * C^mu_D(n)")
    p.add_argument("--mu-p", required=True, help="poly:c0,c1,... or exp:base")
    p.add_argument("--mu-d", required=True, help="poly:c0,c1,... or exp:base")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--n-max", type=int, default=10)
    common(p, table=True)
    p.set_defaults(func=cmd_bound_curve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        # str() of a KeyError quotes its message; print the message as given
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
