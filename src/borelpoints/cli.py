"""Command line interface.

Exit codes: 0 success, 1 domain errors (inadmissible input, out-of-scope
codimension) and a stdout that its reader closed early (with no
traceback), 2 usage errors, 3 feasibility-guard trips.  Output is
deterministic for fixed flags; --json switches every subcommand to a JSON
document on stdout, byte for byte json.dumps(payload, indent=2) (errors
become JSON on stderr).

Ideal lists (reeves, oracle, classify --verify) go into a payload as
_IdealRows, which renders each row from fixed key text and per-monomial
text, every distinct generator once; the rest of a payload, the one
ideal of check-ideal and lex among it, goes through json.dumps.  The
document is written to stdout row by row, and only once the enumeration,
the sort and every row's values are done, so an error leaves no partial
document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain, repeat
from operator import attrgetter

from .errors import NotAdmissibleError, OutOfScopeError, SearchBoundError
from .hilbert_poly import MAX_GOTZMANN_NUMBER, GotzmannPartition, MacaulayPartition
from .monomial_ideal import (
    MonomialIdeal,
    format_ideal,
    format_monomial,
    hilbert_polynomial,
    parse_monomial,
)
from .borel import Characteristic, is_borel_fixed, is_strongly_stable
from .lex import lex_ideal, lex_ideal_from_counts
from .reeves import enumerate_strongly_stable
from .exhaustive import enumerate_borel_fixed
from . import classify as _classify


# check-ideal, lex, oracle and the walk's entry points refuse more
# variables than this before any work.  On a 2-vCPU VM `check-ideal --gens
# x0` takes 0.1 / 0.6 s in 800 / 2000 variables (the peel is quadratic in
# the degree), so the Gotzmann-number guard and the numerator bound it;
# `lex --partition 0` takes 0.02 / 0.37 s at --n 199 / 799.  Unguarded,
# `reeves --partition 0 --n 3000` takes 2.5-2.9 s and 422 MB, nearly all
# of it writing 117 MB of JSON, and `oracle --partition 0 --n 1100
# --force` ended in a RecursionError traceback.
MAX_NUM_VARS = 200

# check-ideal also refuses generators whose degrees sum above this before
# any work.  An ideal with finite-dimensional quotient has no Gotzmann
# number to bound it.  The stability tests list only the legal exchange
# amounts, so unguarded `check-ideal --gens x0,x1,x2^D --num-vars 3` takes
# 0.01 s in process at D = 10^7 on a 2-vCPU VM (5.6 s when they tried
# every amount up to the exponent).  At the bound, the 200 generators
# x_i^500 take 0.7 s in process, most of it in the Hilbert polynomial's
# binomials and 0.2 s in the saturation test, and x0^99999 in 200
# variables 0.24 s.
MAX_DEGREE_SUM = 10**5

# check-ideal stops its saturation test, run after the Hilbert polynomial,
# past this many steps (MonomialIdeal.is_saturated).  On a 2-vCPU VM a trip
# takes at most about 3.5 s: 2 500 random square-free quadrics x_i x_j in 200
# variables stay within the bound and take 3.3 s.  x_i^500 in 200 variables
# take 8 * 10^6 steps, 0.20 s in process.
MAX_SATURATION_WORK = 10**8

# check-ideal stops the Hilbert numerator's pivot loop past this many
# steps (MonomialIdeal.hilbert_numerator), 0.4-0.6 s on a 2-vCPU VM.  The
# square-free quadrics x_i x_j, i < j, need 4.0 * 10^7 steps (0.34 s) in 50
# variables, 9.9 * 10^7 (0.8 s) in 60, 2.1 * 10^8 (1.7 s) in 70 and
# 1.3 * 10^9 (8.0 s) in 100; `check-ideal` on the last trips the bound and
# exits 3 after 0.6 s.
MAX_NUMERATOR_WORK = 10**8


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


def _check_num_vars(num_vars: int) -> None:
    if num_vars > MAX_NUM_VARS:
        raise SearchBoundError(
            f"size bound exceeded: {num_vars} variables, above {MAX_NUM_VARS}"
        )


def _check_degree_sum(gens) -> None:
    total = sum(sum(g) for g in gens)
    if total > MAX_DEGREE_SUM:
        raise SearchBoundError(
            f"size bound exceeded: generator degrees sum to {total}, "
            f"above {MAX_DEGREE_SUM}"
        )


def _partition(args) -> GotzmannPartition:
    if args.partition is None:
        raise _UsageError("--partition is required")
    return GotzmannPartition(args.partition)


def _sorted_ideals(ideals) -> list[MonomialIdeal]:
    """The ideals of one ring in canonical order, by their generator
    tuples.  Every caller (reeves, oracle, classify --verify) sorts ideals
    of K[x_0, ..., x_n] for its one n, so this is the order by
    (num_vars, gens)."""
    return sorted(ideals, key=attrgetter("gens"))


class _Memo(dict):
    """fn, memoized: each missing key's value is computed once."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _IdealRows:
    """Ideals that --json renders as rows {"num_vars", "generators",
    "pretty"}, in place of a list of rows.

    Given a characteristic, each row also says whether the ideal is
    strongly stable or nonstandard; that is decided here, so an error
    leaves no partial document.  pretty() serves the human output.
    """

    def __init__(self, ideals, ch: Characteristic | None = None):
        self.ideals = ideals
        self.stable = None if ch is None else [is_strongly_stable(i) for i in ideals]
        self._name = _Memo(format_monomial).__getitem__

    def pretty(self):
        """format_ideal of each ideal, lazily, each distinct monomial
        formatted once."""
        name = self._name
        return (format_ideal(ideal.gens, name) for ideal in self.ideals)

    def pieces(self, depth: int):
        """The JSON text at depth, one piece per row.

        Each row is fixed key text around the texts of its generators and
        its "pretty" string, and each distinct generator is rendered once,
        at the rows' depth, so a list of thousands of ideals costs about
        what its distinct monomials cost.  The "pretty" string is
        format_ideal's text in quotes: a monomial's name holds only x,
        digits, ^, * and 1, and the brackets, commas and spaces around
        them, none of which JSON escapes.
        """
        if not self.ideals:
            yield "[]"
            return
        p0, p1, p2, p3 = ("\n" + "  " * (depth + 1 + i) for i in range(4))

        def vector(g):
            # a nonempty tuple of ints, which JSON renders as str does
            return f"[{p3}{(',' + p3).join(map(str, g))}{p2}]"

        text = _Memo(vector).__getitem__
        flags = {
            ss: f',{p1}"strongly_stable": {json.dumps(ss)},{p1}"nonstandard": {json.dumps(not ss)}'
            for ss in (True, False)
        }
        tails = repeat("") if self.stable is None else map(flags.get, self.stable)
        name = self._name
        sep = "," + p2
        lead = "[" + p0
        for ideal, tail in zip(self.ideals, tails):
            gens = ideal.gens
            listed = f"[{p2}{sep.join(map(text, gens))}{p1}]" if gens else "[]"
            pretty = f'"<{", ".join(map(name, gens))}>"' if gens else '"<0>"'
            yield (
                f'{lead}{{{p1}"num_vars": {ideal.num_vars},{p1}"generators": {listed},'
                f'{p1}"pretty": {pretty}{tail}{p0}}}'
            )
            lead = "," + p0
        yield "\n" + "  " * depth + "]"


def _dumps(obj, depth: int = 0) -> str:
    """json.dumps(obj, indent=2) as it reads nested at depth: JSON strings
    escape their newlines, so every raw newline is an indent.

    It renders every payload value but the ideal rows, which
    _IdealRows.pieces renders from per-monomial text: the standard
    library encodes with an indent in pure Python, value by value.
    """
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


def _json_pieces(payload):
    """json.dumps(payload, indent=2), byte for byte, in pieces: ideal rows
    from _IdealRows.pieces, every other top-level value from _dumps.  The
    payload is a nonempty dict with string keys."""
    lead = "{\n  "
    for key, value in payload.items():
        yield lead + json.dumps(key) + ": "
        if isinstance(value, _IdealRows):
            yield from value.pieces(1)
        else:
            yield _dumps(value, 1)
        lead = ",\n  "
    yield "\n}"


def _emit(args, payload, human_lines) -> int:
    """Write payload as JSON under --json, else print human_lines, which
    is iterated only then, so it may be a generator.  The JSON goes out
    in pieces, to the sys.stdout of the moment (a caller may redirect
    it), not as one string."""
    if args.json:
        out = sys.stdout
        out.writelines(_json_pieces(payload))
        out.write("\n")
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
        _check_num_vars(data["num_vars"])
        _check_degree_sum(data["generators"])
        return MonomialIdeal.from_json_dict(data)
    if args.gens is None or args.num_vars is None:
        raise _UsageError("provide --gens with --num-vars, or --ideal-json")
    _check_num_vars(args.num_vars)
    gens = []
    for tok in args.gens.split(","):
        if tok.strip():
            try:
                gens.append(parse_monomial(tok, args.num_vars))
            except ValueError as exc:
                raise _UsageError(
                    f"--gens: malformed monomial {tok.strip()!r} ({exc})"
                )
    _check_degree_sum(gens)
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
    # every value is built, and the default range has at most this many
    points = t1 - args.eval_from + 1
    if points > MAX_GOTZMANN_NUMBER + 3:
        raise SearchBoundError(
            f"size bound exceeded: {points} evaluation points, "
            f"above {MAX_GOTZMANN_NUMBER + 3}"
        )
    # the conjugate side has d + 1 parts against the r of the partition,
    # so the default range 0..r+2 costs O(r d), not O(r^2)
    macaulay = partition.to_macaulay()
    values = {t: macaulay.evaluate(t) for t in range(args.eval_from, t1 + 1)}
    payload = {
        "partition": list(partition.parts),
        "macaulay": list(macaulay.parts),
        "degree": partition.degree,
        "gotzmann_number": r,
        "values": {str(t): v for t, v in sorted(values.items())},
    }
    lines = [
        f"partition       {partition}",
        f"macaulay        {macaulay}",
        f"degree          {partition.degree}",
        f"gotzmann number {r}",
        "values          "
        + ", ".join(f"p({t})={v}" for t, v in sorted(values.items())),
    ]
    return _emit(args, payload, lines)


def cmd_lex(args) -> int:
    if args.counts is not None:
        _check_num_vars(len(args.counts) + 1)
        ideal = lex_ideal_from_counts(args.counts)
    else:
        if args.n is None:
            raise _UsageError("provide --n with --partition, or --counts")
        _check_num_vars(args.n + 1)
        ideal = lex_ideal(_partition(args), args.n)
    pretty = str(ideal)
    payload = {**ideal.to_json_dict(), "pretty": pretty}
    return _emit(args, payload, [pretty, json.dumps(ideal.gens)])


def cmd_check_ideal(args) -> int:
    ideal = _parse_ideal_args(args)
    ch = args.char
    data = hilbert_polynomial(ideal, MAX_NUMERATOR_WORK)
    ss = is_strongly_stable(ideal)
    bf = is_borel_fixed(ideal, ch)
    pretty = str(ideal)
    payload = {
        "ideal": {**ideal.to_json_dict(), "pretty": pretty},
        "char": ch.value,
        "strongly_stable": ss,
        "borel_fixed": bf,
        "nonstandard": bf and not ss,
        "saturated": ideal.is_saturated(MAX_SATURATION_WORK),
        "hilbert_polynomial": None
        if data.polynomial is None
        else list(data.polynomial.parts),
        "stabilization_degree": data.stabilization_degree,
    }
    lines = [
        f"ideal             {pretty}",
        f"strongly stable   {ss}",
        f"borel fixed (p={ch}) {bf}",
        f"saturated         {payload['saturated']}",
        f"hilbert poly      "
        + ("0" if data.polynomial is None else str(data.polynomial)),
    ]
    return _emit(args, payload, lines)


def cmd_reeves(args) -> int:
    partition = _partition(args)
    _check_num_vars(args.n + 1)
    ideals = _sorted_ideals(enumerate_strongly_stable(partition, args.n))
    rows = _IdealRows(ideals)
    payload = {
        "partition": list(partition.parts),
        "n": args.n,
        "count": len(ideals),
        "ideals": rows,
    }
    lines = chain([f"count {len(ideals)}"], rows.pretty())
    return _emit(args, payload, lines)


def cmd_oracle(args) -> int:
    partition = _partition(args)
    _check_num_vars(args.n + 1)
    ideals = _sorted_ideals(
        enumerate_borel_fixed(partition, args.n, args.char, force=args.force)
    )
    rows = _IdealRows(ideals, args.char)
    payload = {
        "partition": list(partition.parts),
        "n": args.n,
        "char": args.char.value,
        "count": len(ideals),
        "ideals": rows,
    }
    lines = chain(
        [f"count {len(ideals)}"],
        (
            f"{pretty}  " + ("[strongly stable]" if ss else "[nonstandard]")
            for pretty, ss in zip(rows.pretty(), rows.stable)
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
    rows = None
    if args.verify:
        _check_num_vars(args.n + 1)
        verified, ideal_set = _classify.count_borel_fixed(coords)
        rows = _IdealRows(_sorted_ideals(ideal_set), args.char)
    payload = {
        "partition": list(partition.parts),
        "n": args.n,
        "char": args.char.value,
        "codim": coords.codim,
        "clause": verdict.matched_clause,
        "predicted": verdict.predicted_count,
        "verified": verified,
    }
    if rows is not None:
        payload["ideals"] = rows
    lines = [
        f"predicted {verdict.predicted_count}"
        + (f"  clause {verdict.matched_clause}" if verdict.matched_clause else "")
    ]
    if verified is not None:
        lines.append(f"verified  {verified}")
        lines = chain(lines, rows.pretty())
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
    _check_num_vars(max((cell.n for cell in grid), default=0) + 1)
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
    if args.enumerate:
        _check_num_vars(args.codim + args.depth + 1)
    node = _classify.explore_tree(
        args.codim,
        args.depth,
        enumerate_counts=args.enumerate,
        char=args.char,
    )
    return _emit(args, _tree_payload(node), _tree_lines(node))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: parsing reads it and never changes it, so nothing may."""
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
        "reeves",
        help="enumerate saturated strongly stable ideals "
        "(char 0; for char p use classify --verify --char P)",
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
    p.add_argument(
        "--depth",
        type=int,
        required=True,
        help=f"tree depth, at most {_classify.MAX_TREE_DEPTH}",
    )
    p.add_argument(
        "--enumerate",
        action="store_true",
        help="also enumerate counts at each node",
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
    try:
        code = main()
        sys.stdout.flush()  # a reader gone early shows here at the latest
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit cannot fail again, and exit without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
