"""Command-line surface: tables, state construction, projection, the
equivalence map and the verification harness.

Exit codes: 0 success, 2 argument/validation error, 1 verification failure,
141 (128 + SIGPIPE) when the reader of stdout closed it early.

Only ``catalog`` loads with this module; each other command imports the
modules it runs inside its handler, so ``dim``, ``spectrum``, ``cg``, ``mult``
and ``table`` start without the exact polynomial stack.  Each command also
builds only its own subparser: ``main`` builds all of them only when the
first argument names no command (``--help``, no argument, an unknown one).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .catalog import (
    SUBGROUPS,
    IrrepLabel,
    _brief,
    cg_series,
    dim,
    induced_multiplicity,
    iy_spectrum,
    k_of,
    weight_from_iy,
)


class CliError(Exception):
    """Validation failure; maps to exit code 2."""


def _parse_scaled(text: str, scale: int, what: str) -> int:
    """Parse a half- or third-integer ("1/2", "0.5", "-1") into 2x or 3x form;
    a value past the interpreter's digit limit fails, in digits or as 1e5000,
    and so does an exponent past that limit, of either sign, before
    ``Fraction`` expands it."""
    try:
        _, e, exponent = text.lower().rpartition("e")
        # a limit of 0 is none; an exponent int() refuses, Fraction refuses too
        if e and abs(int(exponent)) > sys.get_int_max_str_digits() > 0:
            raise ValueError(exponent)
        scaled = Fraction(text) * scale
        str(scaled)  # a ValueError past the digit limit
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse {what}={_brief(text)}") from None
    if scaled.denominator != 1:
        raise CliError(f"{what}={_brief(text)} is not an integer multiple of 1/{scale}")
    return int(scaled)


def _require_at_least(*checks) -> None:
    """Each (flag, value, least) with value < least is a usage error."""
    for flag, value, least in checks:
        if value < least:
            raise CliError(f"{flag} must be at least {least}, got {value}")


def _irrep(args) -> IrrepLabel:
    """The p, q arguments as an irrep label; a negative label is a usage error."""
    try:
        return IrrepLabel(args.p, args.q)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- table rows: built once per kind, shared by the one-irrep commands --------

# the columns each table kind prints; `spectrum` adds the I and Y fractions
_COLUMNS = {
    "dims": ("p", "q", "dim", "k2"),
    "spectra": ("p", "q", "r", "s", "I2", "Y3", "size"),
    "cg": ("p", "q", "rho", "p_out", "q_out", "dim"),
    "mult": ("subgroup", "p", "q", "mult"),
}
_SPECTRUM_COLUMNS = ("p", "q", "r", "s", "I2", "Y3", "I", "Y", "size")


def _rows(kind: str, rep: IrrepLabel, subgroup: str | None = None) -> list:
    """The rows of one irrep in a table of the given kind, as dicts by column."""
    p, q = rep.p, rep.q
    if kind == "dims":
        return [{"p": p, "q": q, "dim": dim(rep), "k2": k_of(rep)}]
    if kind == "spectra":
        return [
            {"p": p, "q": q, "r": w.r, "s": w.s, "I2": w.I2, "Y3": w.Y3,
             "I": str(w.I), "Y": str(w.Y), "size": w.size}
            for w in iy_spectrum(rep)
        ]
    if kind == "cg":
        return [
            {"p": p, "q": q, "rho": rho, "p_out": out.p, "q_out": out.q, "dim": dim(out)}
            for rho, out in enumerate(cg_series(p, q))
        ]
    return [{"subgroup": subgroup, "p": p, "q": q, "mult": induced_multiplicity(subgroup, rep)}]


def _write_rows(fmt: str, columns, rows) -> None:
    """Print the given columns of rows as one compact JSON list or as CSV."""
    picked = [[row[c] for c in columns] for row in rows]
    if fmt == "json":
        print(_dump_json([dict(zip(columns, r)) for r in picked]))
    else:
        import csv

        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(columns)
        w.writerows(picked)


# -- subcommand handlers --------------------------------------------------------


def cmd_dim(args) -> int:
    print(dim(_irrep(args)))
    return 0


def cmd_spectrum(args) -> int:
    rows = _rows("spectra", _irrep(args))
    if args.format == "text":
        for r in rows:
            print(f"(r={r['r']}, s={r['s']}): I={r['I']}, Y={r['Y']}, size {r['size']}")
    else:
        _write_rows(args.format, _SPECTRUM_COLUMNS, rows)
    return 0


def cmd_cg(args) -> int:
    rows = _rows("cg", _irrep(args))
    if args.format == "text":
        terms = " + ".join(f"({r['p_out']},{r['q_out']})" for r in rows)
        print(f"({args.p},0) x (0,{args.q}) = {terms}")
    else:
        _write_rows(args.format, _COLUMNS["cg"], rows)
    return 0


def cmd_mult(args) -> int:
    print(induced_multiplicity(args.subgroup, _irrep(args)))
    return 0


MAX_LEVEL = 100  # the highest level m - k that ``state`` builds, one z.w product each


def cmd_state(args) -> int:
    from .basis import BasisKey, basis_state, state_to_dict

    rep = _irrep(args)
    I2 = _parse_scaled(args.I, 2, "I")
    M2 = _parse_scaled(args.M, 2, "M")
    Y3 = _parse_scaled(args.Y, 3, "Y")
    m2 = _parse_scaled(args.m, 2, "m")
    try:
        weight = weight_from_iy(rep, I2, Y3).replace(M2=M2)
        key = BasisKey(rep=rep, weight=weight, m2=m2)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if m2 - k_of(rep) > 2 * MAX_LEVEL:
        raise CliError(f"--m={_brief(args.m)}: the level m - k is above {MAX_LEVEL}")
    st = basis_state(key)
    if args.json:
        print(_dump_json(state_to_dict(st)))
    elif args.latex:
        print(_state_latex(st))
    else:
        print(f"|{args.p},{args.q}; I={args.I} M={args.M} Y={args.Y}; m={args.m}>")
        for m in sorted(st.poly.terms):
            c = st.poly.terms[m]
            print(f"  {c.rat}  exps={list(m)}")
        print(f"norm_sq = {st.norm_sq}")
    return 0


_VARS = ("z_1", "z_2", "z_3", "w_1", "w_2", "w_3")


def _state_latex(st) -> str:
    bits = []
    for m in sorted(st.poly.terms):
        c = st.poly.terms[m].rat
        coef = str(c.numerator) if c.denominator == 1 else \
            f"\\frac{{{c.numerator}}}{{{c.denominator}}}"
        mono = "".join(
            (f"{v}" if e == 1 else f"{v}^{{{e}}}") for v, e in zip(_VARS, m) if e
        )
        bits.append(f"{coef} {mono}".strip())
    ns = st.norm_sq
    return (
        "\\frac{1}{\\sqrt{" + f"{ns.numerator}/{ns.denominator}" + "}}\\left("
        + " + ".join(bits).replace("+ -", "- ")
        + "\\right)"
    )


def _read_poly(args):
    from .poly import PolyFormatError, poly_from_records

    source = "standard input" if args.input == "-" else args.input
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {source}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {source}: {exc}") from None
    try:
        recs = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too-long numbers, nesting
        raise CliError(f"bad polynomial JSON: {exc}") from None
    try:
        return poly_from_records(recs)
    except PolyFormatError as exc:
        raise CliError(f"bad polynomial JSON: {exc}") from None


def cmd_project(args) -> int:
    from .poly import Polynomial, poly_to_records, traceless_project

    f = _read_poly(args)
    out = Polynomial.zero()
    for part in f.bidegree_split().values():
        out = out + traceless_project(part)
    print(_dump_json(poly_to_records(out)))
    return 0


def cmd_map(args) -> int:
    from .induced import TraceConditionError, equivalence_map
    from .poly import poly_to_records, wire_rational

    f = _read_poly(args)
    try:
        sf = equivalence_map(f)
    except TraceConditionError as exc:
        raise CliError(str(exc)) from None
    channels = [{"p": p, "q": q, **wire_rational(sf.scale_sq((p, q)), "scale_sq_"),
                 "terms": poly_to_records(part)}
                for (p, q), part in sorted(sf.parts.items())]
    print(_dump_json({"channels": channels}))
    return 0


def cmd_table(args) -> int:
    _require_at_least(("--max-p", args.max_p, 0), ("--max-q", args.max_q, 0))
    rows = [row for p in range(args.max_p + 1) for q in range(args.max_q + 1)
            for row in _rows(args.kind, IrrepLabel(p, q), args.subgroup)]
    _write_rows(args.format, _COLUMNS[args.kind], rows)
    return 0


def cmd_verify(args) -> int:
    _require_at_least(
        ("--max-pq", args.max_pq, 0),
        ("--degree", args.degree, 1),
        ("--samples", args.samples, 1),
        ("--numeric-samples", args.numeric_samples, 1),
        ("--seed", args.seed, 0),
    )
    from . import verify

    start = time.perf_counter()
    # the basis states that three suites share, which no suite's seconds cover
    states = verify.build_states(args.max_pq)
    build_seconds = round(time.perf_counter() - start, 4)
    suites = verify.run_all(
        max_pq=args.max_pq,
        degree=args.degree,
        samples=args.samples,
        seed=args.seed,
        numeric_checks=args.numeric,
        numeric_samples=args.numeric_samples,
        states=states,
    )
    seconds = round(time.perf_counter() - start, 4)
    all_passed = all(s["passed"] for s in suites)
    print(_dump_json({"build_states_seconds": build_seconds, "pass": all_passed,
                      "seconds": seconds, "suites": suites}))
    return 0 if all_passed else 1


# -- parser ------------------------------------------------------------------------


def _pq(p) -> None:
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)


def _pq_format(p) -> None:
    _pq(p)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")


def _mult_args(p) -> None:
    p.add_argument("subgroup", choices=SUBGROUPS)
    _pq(p)


def _state_args(p) -> None:
    _pq(p)
    p.add_argument("--I", required=True, help="isospin, e.g. 1/2 or 0.5")
    p.add_argument("--M", required=True,
                   help="magnetic quantum number; a negative one as --M=-1/2")
    p.add_argument("--Y", required=True,
                   help="hypercharge, a third-integer fraction; a negative one as --Y=-1/3")
    p.add_argument("--m", required=True,
                   help=f"sp(2,R) weight, half-integer from k = (p+q+3)/2 to k + {MAX_LEVEL}")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--latex", action="store_true")


def _input_args(p) -> None:
    p.add_argument("--input", default="-", help="path to polynomial JSON, or - for stdin")


def _table_args(p) -> None:
    p.add_argument("kind", choices=("dims", "spectra", "cg", "mult"))
    p.add_argument("--max-p", type=int, default=3)
    p.add_argument("--max-q", type=int, default=3)
    p.add_argument("--subgroup", choices=SUBGROUPS, default="SU2")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _verify_args(p) -> None:
    p.add_argument("--max-pq", type=int, default=3)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--numeric-samples", type=int, default=20)


# every command, in help order: its help line, its arguments and its handler
_COMMANDS = {
    "dim": ("irrep dimension d(p,q)", _pq, cmd_dim),
    "spectrum": ("I-Y multiplet spectrum of (p,q)", _pq_format, cmd_spectrum),
    "cg": ("Clebsch-Gordan series (p,0) x (0,q)", _pq_format, cmd_cg),
    "mult": ("induced-representation multiplicity of (p,q)", _mult_args, cmd_mult),
    "state": ("construct a normalized basis state", _state_args, cmd_state),
    "project": ("remove traces from a polynomial (JSON in/out)", _input_args, cmd_project),
    "map": ("equivalence map to a sphere function (JSON in/out)", _input_args, cmd_map),
    "table": ("tabulate dims/spectra/cg/mult over a range", _table_args, cmd_table),
    "verify": ("run the verification harness", _verify_args, cmd_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or given a command name, the parser with that
    command's subparser only. Its usage line still lists every command, so
    the errors it reports read as the full parser's do."""
    ap = argparse.ArgumentParser(
        prog="schwinger-su3",
        description="Exact SU(3) x Sp(2,R) oscillator basis toolkit",
    )
    # one command's parser lists every command in its usage line through the
    # metavar; the full parser lists its choices itself, and given a metavar
    # its missing and invalid command errors would name the action by it
    listed = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=listed)
    for name, (help_line, add_arguments, handler) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            add_arguments(p)
            p.set_defaults(func=handler)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first argument names the command, or the full parser reports why not
    ap = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        code = args.func(args)
        # flushed here, so a closed pipe raises below, not at interpreter exit
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: what is still buffered goes to the null device
        # at exit, and the exit code is the one a SIGPIPE death gives, 128 + 13
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
