"""Command line interface.

Exit codes: 0 success, 1 domain errors (inadmissible input, out-of-scope
codimension), 2 usage errors, 3 feasibility-guard trips.  Output is
deterministic for fixed flags; --json switches every subcommand to a JSON
document on stdout (errors become JSON on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

from .errors import NotAdmissibleError, OutOfScopeError, SearchBoundError
from .hilbert_poly import GotzmannPartition, MacaulayPartition
from .monomial_ideal import MonomialIdeal, parse_monomial
from .borel import Characteristic, is_borel_fixed, is_strongly_stable
from .lex import lex_ideal, lex_ideal_from_counts
from .reeves import enumerate_strongly_stable
from .exhaustive import enumerate_borel_fixed
from . import classify as _classify


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that leaves reporting its errors to main."""

    def error(self, message):
        raise _ArgumentError(self, message)


class _ArgumentError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


def _char_type(text: str) -> Characteristic:
    try:
        return Characteristic(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _partition(args) -> GotzmannPartition:
    if args.partition is None:
        raise _UsageError("--partition is required")
    return GotzmannPartition(args.partition)


def _sorted_ideals(ideals) -> list[MonomialIdeal]:
    return sorted(ideals, key=lambda i: (i.num_vars, i.gens))


def _ideal_row(ideal: MonomialIdeal, ch: Characteristic | None = None) -> dict:
    row = {
        "num_vars": ideal.num_vars,
        "generators": [list(g) for g in ideal.gens],
        "pretty": str(ideal),
    }
    if ch is not None:
        ss = is_strongly_stable(ideal)
        row["strongly_stable"] = ss
        row["nonstandard"] = not ss
    return row


def _emit(args, payload: dict, human_lines) -> int:
    """Print payload as JSON under --json, else human_lines, which is
    iterated only then, so it may be a generator."""
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)
    return 0


def _json_arg(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{flag}: invalid JSON ({exc})")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def _parse_ideal_args(args) -> MonomialIdeal:
    if args.ideal_json:
        data = _json_arg(args.ideal_json, "--ideal-json")
        if not (
            isinstance(data, dict)
            and _is_int(data.get("num_vars"))
            and isinstance(data.get("generators"), list)
            and all(_is_int_list(g) for g in data["generators"])
        ):
            raise _UsageError(
                '--ideal-json must be {"num_vars": N, "generators": [[...], ...]}'
            )
        return MonomialIdeal.from_json_dict(data)
    if args.gens is None or args.num_vars is None:
        raise _UsageError("provide --gens with --num-vars, or --ideal-json")
    gens = [
        parse_monomial(tok, args.num_vars)
        for tok in args.gens.split(",")
        if tok.strip()
    ]
    return MonomialIdeal.from_generators(gens, args.num_vars)


def cmd_hp(args) -> int:
    if args.macaulay is not None:
        partition = MacaulayPartition(args.macaulay).to_gotzmann()
    else:
        partition = _partition(args)
    if args.op:
        for op in args.op:
            partition = getattr(partition, op)()
    r = partition.gotzmann_number
    t1 = args.eval_to if args.eval_to is not None else r + 2
    if t1 < args.eval_from:
        raise _UsageError(f"empty evaluation range {args.eval_from}..{t1}")
    values = {t: partition.evaluate(t) for t in range(args.eval_from, t1 + 1)}
    payload = {
        "partition": list(partition.parts),
        "macaulay": list(partition.to_macaulay().parts),
        "degree": partition.degree,
        "gotzmann_number": r,
        "values": {str(t): v for t, v in sorted(values.items())},
    }
    lines = [
        f"partition       {partition}",
        f"macaulay        {partition.to_macaulay()}",
        f"degree          {partition.degree}",
        f"gotzmann number {r}",
        "values          "
        + ", ".join(f"p({t})={v}" for t, v in sorted(values.items())),
    ]
    return _emit(args, payload, lines)


def cmd_lex(args) -> int:
    if args.counts is not None:
        ideal = lex_ideal_from_counts(args.counts)
    else:
        if args.n is None:
            raise _UsageError("provide --n with --partition, or --counts")
        ideal = lex_ideal(_partition(args), args.n)
    payload = _ideal_row(ideal)
    return _emit(args, payload, [str(ideal), json.dumps(payload["generators"])])


def cmd_check_ideal(args) -> int:
    ideal = _parse_ideal_args(args)
    ch = args.char
    data = ideal.hilbert_polynomial()
    ss = is_strongly_stable(ideal)
    bf = is_borel_fixed(ideal, ch)
    payload = {
        "ideal": _ideal_row(ideal),
        "char": ch.value,
        "strongly_stable": ss,
        "borel_fixed": bf,
        "nonstandard": bf and not ss,
        "saturated": ideal.saturate() == ideal,
        "hilbert_polynomial": None
        if data.polynomial is None
        else list(data.polynomial.parts),
        "stabilization_degree": data.stabilization_degree,
    }
    lines = [
        f"ideal             {ideal}",
        f"strongly stable   {ss}",
        f"borel fixed (p={ch}) {bf}",
        f"saturated         {payload['saturated']}",
        f"hilbert poly      "
        + ("0" if data.polynomial is None else str(data.polynomial)),
    ]
    return _emit(args, payload, lines)


def cmd_reeves(args) -> int:
    partition = _partition(args)
    ideals = _sorted_ideals(enumerate_strongly_stable(partition, args.n))
    rows = [_ideal_row(i) for i in ideals]
    payload = {
        "partition": list(partition.parts),
        "n": args.n,
        "count": len(rows),
        "ideals": rows,
    }
    lines = chain([f"count {len(rows)}"], (row["pretty"] for row in rows))
    return _emit(args, payload, lines)


def cmd_oracle(args) -> int:
    partition = _partition(args)
    ideals = _sorted_ideals(
        enumerate_borel_fixed(partition, args.n, args.char, force=args.force)
    )
    rows = [_ideal_row(i, args.char) for i in ideals]
    payload = {
        "partition": list(partition.parts),
        "n": args.n,
        "char": args.char.value,
        "count": len(rows),
        "ideals": rows,
    }
    lines = chain(
        [f"count {len(rows)}"],
        (
            f"{row['pretty']}  "
            + ("[nonstandard]" if row["nonstandard"] else "[strongly stable]")
            for row in rows
        ),
    )
    return _emit(args, payload, lines)


def cmd_classify(args) -> int:
    partition = _partition(args)
    coords = _classify.SchemeCoordinates(partition, args.n, args.char)
    if coords.codim <= 1:
        raise OutOfScopeError("out of scope: c <= 1")
    verdict = _classify.predict(coords)
    verified = None
    ideals = None
    if args.verify:
        verified, ideal_set = _classify.count_borel_fixed(coords)
        ideals = _sorted_ideals(ideal_set)
    payload = {
        "partition": list(partition.parts),
        "n": args.n,
        "char": args.char.value,
        "codim": coords.codim,
        "clause": verdict.matched_clause,
        "predicted": verdict.predicted_count,
        "verified": verified,
    }
    if ideals is not None:
        payload["ideals"] = [_ideal_row(i, args.char) for i in ideals]
    lines = [
        f"predicted {verdict.predicted_count}"
        + (f"  clause {verdict.matched_clause}" if verdict.matched_clause else "")
    ]
    if verified is not None:
        lines.append(f"verified  {verified}")
        lines.extend(row["pretty"] for row in payload["ideals"])
    return _emit(args, payload, lines)


def cmd_verify(args) -> int:
    if args.grid == "default":
        grid = _classify.default_grid()
    else:
        spec = _json_arg(args.grid, "--grid")
        if not isinstance(spec, list) or not all(
            isinstance(cell, dict)
            and _is_int_list(cell.get("partition"))
            and _is_int(cell.get("n"))
            and _is_int(cell.get("char", 0))
            for cell in spec
        ):
            raise _UsageError(
                '--grid must be "default" or a JSON list of '
                '{"partition": [...], "n": N, "char": p} objects ("char" optional)'
            )
        grid = [
            _classify.SchemeCoordinates(
                GotzmannPartition(tuple(cell["partition"])),
                cell["n"],
                Characteristic(cell.get("char", 0)),
            )
            for cell in spec
        ]
    report = _classify.verify_classification(grid)
    payload = report.to_json_dict()
    lines = [f"checked {len(report.cells)} cells"]
    if report.ok:
        lines.append("no discrepancies")
    else:
        lines.append(f"DISCREPANCIES: {len(report.discrepancies)}")
        lines.extend(json.dumps(d) for d in report.discrepancies)
    return _emit(args, payload, lines)


def _tree_payload(node: _classify.TreeNode) -> dict:
    return {
        "partition": list(node.coords.partition.parts),
        "n": node.coords.n,
        "predicted": node.predicted_count,
        "clause": node.matched_clause,
        "verified": node.verified_count,
        "children": [_tree_payload(c) for c in node.children],
    }


def _tree_lines(node: _classify.TreeNode, indent: int = 0):
    label = f"{node.coords.partition} n={node.coords.n} predicted={node.predicted_count}"
    if node.verified_count is not None:
        label += f" verified={node.verified_count}"
    yield "  " * indent + label
    for child in node.children:
        yield from _tree_lines(child, indent + 1)


def cmd_tree(args) -> int:
    if args.depth < 0:
        raise _UsageError("--depth must be nonnegative")
    node = _classify.explore_tree(
        args.codim,
        args.depth,
        enumerate_counts=args.enumerate,
        max_depth=args.max_depth,
        char=args.char,
    )
    return _emit(args, _tree_payload(node), _tree_lines(node))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="borelpoints",
        description="Monomial-ideal enumeration of Borel-fixed points of Hilbert schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, partition=True, char=False, n=False, n_required=False):
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        if partition:
            p.add_argument(
                "--partition", type=_int_list, help="comma-separated parts, e.g. 1,1,1,0"
            )
        if n:
            p.add_argument(
                "--n",
                type=int,
                required=n_required,
                help="ambient projective dimension",
            )
        if char:
            p.add_argument(
                "--char",
                type=_char_type,
                default=Characteristic(0),
                help="field characteristic: 0 or a prime",
            )

    p = sub.add_parser("hp", help="inspect an admissible Hilbert polynomial")
    common(p)
    p.add_argument("--macaulay", type=_int_list, help="conjugate-side input")
    p.add_argument(
        "--op",
        action="append",
        choices=["increment", "lift", "difference"],
        help="apply an operation before printing (repeatable)",
    )
    p.add_argument("--eval-from", type=int, default=0)
    p.add_argument("--eval-to", type=int, default=None)
    p.set_defaults(func=cmd_hp)

    p = sub.add_parser("lex", help="saturated lexicographic ideal")
    common(p, n=True)
    p.add_argument("--counts", type=_int_list, help="count vector a0,a1,...")
    p.set_defaults(func=cmd_lex)

    p = sub.add_parser("check-ideal", help="stability and Hilbert data of an ideal")
    common(p, partition=False, char=True)
    p.add_argument("--gens", help="comma-separated monomials, e.g. x0^2,x0*x1")
    p.add_argument("--num-vars", type=int)
    p.add_argument("--ideal-json", help='{"num_vars": N, "generators": [[...], ...]}')
    p.set_defaults(func=cmd_check_ideal)

    p = sub.add_parser(
        "reeves", help="enumerate saturated strongly stable ideals (char 0)"
    )
    common(p, n=True, n_required=True)
    p.set_defaults(func=cmd_reeves)

    p = sub.add_parser(
        "oracle", help="exhaustively enumerate saturated Borel-fixed ideals"
    )
    common(p, n=True, char=True, n_required=True)
    p.add_argument("--force", action="store_true", help="override the search guard")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("classify", help="predicted Borel-fixed point count")
    common(p, n=True, char=True, n_required=True)
    p.add_argument(
        "--verify", action="store_true", help="also enumerate and report the count"
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="replay the classification over a grid")
    common(p, partition=False)
    p.add_argument(
        "--grid",
        default="default",
        help='"default" or an inline JSON list of {partition, n, char} cells',
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tree", help="the binary tree of Hilbert schemes")
    common(p, partition=False, char=True)
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-depth", type=int, default=8, help="depth cap")
    p.add_argument(
        "--enumerate",
        action="store_true",
        help="also enumerate counts at each node (char 0 only)",
    )
    p.set_defaults(func=cmd_tree)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except _ArgumentError as exc:
        # argparse's own report is usage text; under --json (which argparse
        # also accepts abbreviated, as --j or --js) it is JSON
        if not any(len(a) > 2 and "--json".startswith(a) for a in argv):
            argparse.ArgumentParser.error(exc.parser, str(exc))
        _fail(argparse.Namespace(json=True), str(exc), 2)
        sys.exit(2)
    try:
        return args.func(args)
    except _UsageError as exc:
        _fail(args, str(exc), 2)
        return 2
    except SearchBoundError as exc:
        _fail(args, str(exc), 3)
        return 3
    except (NotAdmissibleError, OutOfScopeError, ValueError) as exc:
        _fail(args, str(exc), 1)
        return 1


def _fail(args, message: str, code: int):
    if getattr(args, "json", False):
        print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
