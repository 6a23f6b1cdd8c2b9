"""Command-line surface: per-field reports, verification sweeps, families,
exact spectra and Waring numbers.

A command gets its field from fields.field_of_order, which refuses a q
past the size budget before factoring it.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields

from .errors import GPGraphError, InvariantViolated
from .families import FAMILY_KINDS, FamilyDescriptor, enumerate_family
from .fields import field_of_order
from .graphs import build_graph, classify_structure, components, period
from .numbertheory import divisors
from .spectra import ValueClass, eigenvalue_count, nature_for, spectrum, srg_parameters
from .verify import run_verification
from .waring import graph_waring, witness

@dataclass(frozen=True)
class FieldReportRow:
    q: int
    p: int
    m: int
    k: int
    n: int
    structure: str
    directed: bool
    components: int
    nature: str
    mu: int
    srg: tuple[int, int, int, int] | None
    period: int
    g: int | None
    w: int | None

    def to_record(self) -> dict:
        return {name: getattr(self, name) for name in ROW_FIELDS}  # json writes srg as a list


ROW_FIELDS = tuple(f.name for f in fields(FieldReportRow))  # the report columns, in order


def build_report_rows(q: int) -> list[FieldReportRow]:
    """One row per divisor k of q - 1, ascending, from the closed forms: no spectrum is built."""
    field = field_of_order(q)
    p, m = field.p, field.m
    rows = []
    g_of = {}  # w of a directed GP(k, q) is g(k/2, q), from an earlier row
    for k in divisors(q - 1):
        graph = build_graph(field, k)
        wres = graph_waring(graph, g_of.get(k // 2))
        g_of[k] = wres.g
        rows.append(FieldReportRow(
            q=q, p=p, m=m, k=k, n=graph.n,
            structure=classify_structure(graph).render(),
            directed=graph.directed,
            components=components(graph).count,
            nature=nature_for(p, m, k).render(),
            mu=eigenvalue_count(graph),
            srg=srg_parameters(graph),
            period=period(graph),
            g=wres.g,
            w=wres.w,
        ))
    return rows


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, tuple):
        return "srg(" + ",".join(str(v) for v in value) + ")"
    return str(value)


def render_table(rows: list[FieldReportRow]) -> str:
    cells = [[_cell(getattr(row, name)) for name in ROW_FIELDS] for row in rows]
    widths = [len(name) for name in ROW_FIELDS]
    for line in cells:
        widths = [max(w, len(cell)) for w, cell in zip(widths, line)]
    lines = ["  ".join(name.ljust(w) for name, w in zip(ROW_FIELDS, widths)).rstrip()]
    for line in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_records(rows: list[FieldReportRow]) -> str:
    return "".join(json.dumps(row.to_record()) + "\n" for row in rows)


def _format_numeric(z: complex, value_class: ValueClass) -> str:
    re = 0.0 if z.real == 0 else z.real
    im = 0.0 if z.imag == 0 else z.imag
    if value_class is ValueClass.NONREAL:
        return f"{re:.6f}{im:+.6f}i"
    return f"{re:.6f}"


def _cmd_report(args) -> int:
    rows = build_report_rows(args.q)
    text = render_table(rows) if args.format == "table" else render_records(rows)
    sys.stdout.write(text)
    return 0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        return _usage_error(f"--jobs {args.jobs} must be at least 1")
    outcomes = run_verification(args.max_q, jobs=args.jobs)
    width = max(len(o.name) for o in outcomes)
    failed_any = False
    for outcome in outcomes:
        print(f"{outcome.name.ljust(width)}  {outcome.passed:6d} pass  {outcome.failed:6d} fail")
        if outcome.failed:
            failed_any = True
            print(f"{' ' * width}  first counterexample: {outcome.first_failure}")
    total_pass = sum(o.passed for o in outcomes)
    total_fail = sum(o.failed for o in outcomes)
    verdict = "FAIL" if failed_any else "OK"
    print(f"{verdict}: {len(outcomes)} check categories, "
          f"{total_pass} passed, {total_fail} failed, q <= {args.max_q}")
    return 1 if failed_any else 0


def _cmd_families(args) -> int:
    descriptor = FamilyDescriptor(kind=args.kind, p=args.p, k=args.k, d=args.d)
    lines = []
    for k, q in enumerate_family(descriptor, args.max_q):
        if args.format == "records":
            lines.append(json.dumps({"kind": args.kind, "p": args.p, "k": k, "q": q,
                                     "integral": True}))
        else:
            lines.append(f"k={k} q={q} integral=yes")
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_spectrum(args) -> int:
    if args.k < 1:
        return _usage_error(f"--k {args.k} must be positive")
    field = field_of_order(args.q)
    report = spectrum(build_graph(field, args.k))
    print(f"q={report.q} k={report.k} n={report.n} nature={report.nature.render()} "
          f"mu={report.mu} components={report.principal_multiplicity}")
    exact = [str(entry) for entry in report.entries]
    exact_width = max(map(len, exact))
    for text, entry in zip(exact, report.entries):
        numeric = _format_numeric(entry.numeric, entry.value_class)
        print(f"{text.ljust(exact_width)}  {numeric:>22}  x{entry.multiplicity}")
    return 0


def _render_witness(terms, k: int) -> str:
    if not terms:
        return "0"
    parts = []
    for i, (sign, x) in enumerate(terms):
        op = "- " if sign < 0 else ("+ " if i else "")
        parts.append(f"{op}({x})^{k}")
    return " ".join(parts)


def _cmd_waring(args) -> int:
    if args.k < 1:
        return _usage_error(f"--k {args.k} must be positive")
    field = field_of_order(args.q)
    if args.witness is not None and not 0 <= args.witness < field.q:
        return _usage_error(f"--witness {args.witness} is not an element index in [0, {field.q})")
    graph = build_graph(field, args.k)
    result = graph_waring(graph)
    if not result.exists:
        print(f"q={args.q} k={args.k}: g and w do not exist ({result.reason_if_absent})")
        return 0
    print(f"q={args.q} k={args.k}: g={result.g} w={result.w}")
    if args.witness is not None:
        target = field.element(args.witness)
        k = graph.k
        g_terms = witness(field, k, target, signed=False)
        # an undirected graph holds every -r, so signing adds no step
        w_terms = witness(field, k, target, signed=True) if graph.directed else g_terms
        for label, terms in (("g", g_terms), ("w", w_terms)):
            print(f"{label}-witness for {target} (length {len(terms)}): "
                  f"{target} = {_render_witness(terms, k)}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints "error: message" as one line, with no usage line
        raise GPGraphError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call to main rather than at import."""
    parser = _Parser(
        prog="gpgraphs",
        description="Power-residue Cayley graphs over finite fields: exact spectra, "
                    "periods, integral families and Waring numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="one row per GP-graph over GF(q)")
    p_report.add_argument("--q", type=int, required=True)
    p_report.add_argument("--format", choices=("table", "records"), default="table")
    p_report.set_defaults(fn=_cmd_report)

    p_verify = sub.add_parser("verify", help="run every structural check for all q <= max-q")
    p_verify.add_argument("--max-q", type=int, required=True)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.set_defaults(fn=_cmd_verify)

    p_fam = sub.add_parser("families", help="enumerate an integral family")
    p_fam.add_argument("--kind", choices=FAMILY_KINDS, required=True)
    p_fam.add_argument("--p", type=int, required=True)
    p_fam.add_argument("--k", type=int)
    p_fam.add_argument("--d", type=int)
    p_fam.add_argument("--max-q", type=int, default=10 ** 6)
    p_fam.add_argument("--format", choices=("table", "records"), default="table")
    p_fam.set_defaults(fn=_cmd_families)

    p_spec = sub.add_parser("spectrum", help="exact spectrum of GP(k, q)")
    p_spec.add_argument("--q", type=int, required=True)
    p_spec.add_argument("--k", type=int, required=True)
    p_spec.set_defaults(fn=_cmd_spectrum)

    p_war = sub.add_parser("waring", help="Waring numbers g and w for GP(k, q)")
    p_war.add_argument("--q", type=int, required=True)
    p_war.add_argument("--k", type=int, required=True)
    p_war.add_argument("--witness", type=int, default=None,
                       help="element index to decompose into k-th powers")
    p_war.set_defaults(fn=_cmd_waring)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; every call parses with the one cached parser."""
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "max_q", 2) < 2:  # verify and families
            return _usage_error(f"--max-q {args.max_q} must be at least 2")
        return args.fn(args)
    except InvariantViolated as exc:  # a law failed on computed data: not the caller's error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GPGraphError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
