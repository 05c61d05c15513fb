"""Command-line front end.

Every subcommand emits a single report (JSON by default, CSV for tables via
--format csv) that echoes the tool version, the full configuration and the
seed, so identical invocations produce byte-identical reports apart from the
timestamp field.

Exit codes: 0 success, 1 negative verdict (a false membership against
--expect true, or a search that found nothing), 2 usage or input error,
3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .exact import (
    char_poly,
    cyclotomic_part,
    format_poly,
    is_partially_hyperbolic,
    matrix_from_json,
    matrix_to_json,
    poly_to_json,
)
from .engine import (
    GrowthForm,
    UpperBoundSpec,
    preset,
    search_partially_hyperbolic,
    upper_bound_curve,
    witness_certificate,
)
from .exterior import johnson_target, relative_target, target_to_json, wedge3_map
from .mapclass import TW_membership, evaluate, level_membership, modW_membership, torelli_membership, word_from_json
from .oracle import ResourceLimitError, SemidirectGroup, bfs_ball, finite_closure


def _load_json_arg(text: str):
    """Inline JSON if the argument looks like JSON, else a file path."""
    stripped = text.strip()
    if stripped.startswith(("[", "{")):
        return json.loads(stripped)
    with open(text) as fh:
        return json.load(fh)


def _matrix_arg(text: str):
    return matrix_from_json(_load_json_arg(text))


def _emit(args, command: str, result: dict, csv_rows=None, csv_header=None) -> None:
    if args.format == "csv" and csv_rows is not None:
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
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
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
    M = _matrix_arg(args.matrix)
    p = char_poly(M)
    verdict = is_partially_hyperbolic(M)
    _, r = cyclotomic_part(p)
    _emit(args, "phyp", {
        "partially_hyperbolic": verdict,
        "char_poly": format_poly(p),
        "noncyclotomic_factor": format_poly(r),
    })
    return _expect_verdict(args, verdict)


def cmd_charpoly(args) -> int:
    M = _matrix_arg(args.matrix)
    p = char_poly(M)
    _emit(args, "charpoly", {"char_poly": format_poly(p), **poly_to_json(p)})
    return 0


def cmd_wedge3(args) -> int:
    M = _matrix_arg(args.matrix)
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
    induced = evaluate(word)
    if args.kind == "torelli":
        verdict = torelli_membership(word)
    elif args.kind == "level":
        if args.m is None:
            raise ValueError("level membership needs --m")
        verdict = level_membership(word, args.m)
    elif args.kind == "modw":
        if args.w is None:
            raise ValueError("modw membership needs --w")
        verdict = modW_membership(word, _matrix_arg(args.w))
    elif args.kind == "tw":
        if args.w is None:
            raise ValueError("tw membership needs --w")
        verdict = TW_membership(word, _matrix_arg(args.w))
    else:
        raise ValueError(f"unknown membership kind {args.kind!r}")
    _emit(args, "membership", {
        "kind": args.kind,
        "member": verdict,
        "induced": matrix_to_json(induced.matrix),
    })
    return _expect_verdict(args, verdict)


def _build_preset(args):
    params = {}
    if args.h is not None:
        params["h"] = args.h
    if args.points is not None:
        params["points"] = args.points
    if args.variant is not None:
        params["variant"] = args.variant
    if args.psi_table is not None:
        params["psi_table"] = _load_json_arg(args.psi_table)
    return preset(args.preset, args.g, **params)


def cmd_witness(args) -> int:
    datum = _build_preset(args)
    x_obj = _load_json_arg(args.x)
    x_word = x_obj["word"] if isinstance(x_obj, dict) else x_obj
    cert = witness_certificate(datum, [(s, int(e)) for s, e in x_word], args.y, args.n)
    result = cert.to_json()
    result["preset"] = datum.name
    result["provenance"] = datum.provenance
    _emit(args, "witness", result,
          csv_rows=[(r.n, r.extrinsic, r.intrinsic) for r in cert.rows],
          csv_header=("n", "extrinsic", "intrinsic"))
    return 0


def cmd_phyp_search(args) -> int:
    obj = _load_json_arg(args.gens)
    mats = obj["matrices"] if isinstance(obj, dict) else obj
    gens = [matrix_from_json(m) for m in mats]
    res = search_partially_hyperbolic(gens, budget=args.budget, seed=args.seed)
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
        with open(args.out, "w") as fh:
            for (v, t), length in ball.sorted_items():
                fh.write(json.dumps({"v": list(v), "t": t, "length": length}) + "\n")
    summary_args = argparse.Namespace(**{**vars(args), "out": None})
    _emit(summary_args, "bfs", {
        "states": len(ball),
        "radius": ball.radius,
        "layer_sizes": list(ball.layer_sizes),
        "fiber_states": sum(1 for (v, t) in ball.lengths if t == 0),
        "ball_file": args.out,
    }, csv_rows=list(enumerate(ball.layer_sizes)), csv_header=("length", "count"))
    return 0


def cmd_closure(args) -> int:
    obj = _load_json_arg(args.gens)
    mats = obj["matrices"] if isinstance(obj, dict) else obj
    gens = [matrix_from_json(m) for m in mats]
    res = finite_closure(gens, args.mod, state_cap=args.state_cap)
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
        c1=args.c1,
        c2=args.c2,
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distortion",
        description="exact subgroup-distortion certificates for mapping class groups",
    )
    parser.add_argument("--version", action="version", version=f"distortion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
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
    p.add_argument("--word", required=True, help="word file (JSON)")
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
    p.add_argument("--psi-table", help="generator value table (JSON), overrides the bundled one")
    p.add_argument("--x", required=True, help="ambient word: file or inline JSON [['T_a1',1],...]")
    p.add_argument("--y", required=True, help="subgroup generator symbol")
    p.add_argument("--n", type=int, default=60)
    common(p)
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
    common(p)
    p.set_defaults(func=cmd_bfs)

    p = sub.add_parser("closure", help="order of a finite matrix group mod L")
    p.add_argument("--gens", required=True)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--state-cap", type=int, default=10_000_000)
    common(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("bound-curve", help="upper-bound table mu_P(n) * C^mu_D(n)")
    p.add_argument("--mu-p", required=True, help="poly:c0,c1,... or exp:base")
    p.add_argument("--mu-d", required=True, help="poly:c0,c1,... or exp:base")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--c1", type=int)
    p.add_argument("--c2", type=int)
    p.add_argument("--n-max", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_bound_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
