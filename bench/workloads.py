"""The benchmark's four workloads: inputs made from a seed, ops run in-process.

An op is one CLI command, run through ``cli.main`` with stdout captured, or
one public library call. ``run`` executes it untraced and returns its output
text. ``run_traced`` makes the op's public calls itself, one span around
each, and returns the text that the reference holds for the traced form.
Every op universe is finite, so the reference covers every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

from gpgraphs import (build_field, build_graph, classify_structure, components, period,
                      spectrum, srg_parameters, verify_field, run_verification, waring_result,
                      witness)
from gpgraphs import cli
from gpgraphs.numbertheory import divisors, prime_power


@dataclass(frozen=True)
class Op:
    key: str                  # reference key; the CLI command for CLI ops
    q: int
    k: int | None = None
    target: int | None = None

    def label(self) -> dict:
        return {"q": self.q, "k": self.k}


class ExitCodeError(Exception):
    """A CLI op exited nonzero where it should have succeeded."""


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise ExitCodeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


class Workload:
    """Defaults: the seed orders the op universe, and an op is a CLI command."""

    one_pass = False  # True when a second pass would not measure the same thing

    def __init__(self):
        self.built: set[int] = set()

    def ops(self, rng: random.Random) -> list[Op]:
        ops = self.universe()
        rng.shuffle(ops)
        return ops

    def run(self, op: Op) -> str:
        return run_cli(op.key.split())

    def traced_field(self, tracer, q: int):
        """build_field under a span that counts the elements of fields built cold."""
        p, m = prime_power(q)
        elements = 0 if q in self.built else q
        self.built.add(q)
        with tracer.span("fields.build_field", elements=elements):
            return build_field(p, m)


def render_spectrum(tracer, report) -> str:
    """Each eigenvalue exactly, numerically and by class, as `gpgraphs spectrum` prints it."""
    with tracer.span("cyclotomic.render"):
        values = []
        for value, mult in report.eigenvalues:
            z = value.embed()
            values.append([str(value), f"{z.real:.6f}", f"{z.imag:.6f}", value.classify().name, mult])
        return json.dumps([report.q, report.k, report.n, report.nature.render(), report.mu,
                           report.principal_multiplicity, values])


def traced_spectrum(tracer, field, k: int):
    with tracer.span("graphs.build_graph"):
        graph = build_graph(field, k)
    with tracer.span("spectra.spectrum") as span:
        report = spectrum(graph)
        span.update(eigenvalue_rows=report.mu, period_terms=field.q - 1)
    return graph, report


class ReportLadder(Workload):
    """`report --q Q --format records` over a fixed ladder; the seed only orders it."""

    name = "report_ladder"
    LADDER = (729, 1024, 2399, 2401)

    def universe(self) -> list[Op]:
        return [Op(f"report --q {q} --format records", q) for q in self.LADDER]

    def run_traced(self, op: Op, tracer) -> str:
        """build_report_rows' per-k call sequence, then render_records."""
        q = op.q
        field = self.traced_field(tracer, q)
        rows = []
        for k in divisors(q - 1):
            graph, report = traced_spectrum(tracer, field, k)
            with tracer.span("waring.waring_result"):
                wres = waring_result(field, k)
            with tracer.span("graphs.classify_structure"):
                structure = classify_structure(graph).render()
            with tracer.span("graphs.components", traversal_arcs=q * graph.n):
                count = components(graph).count
            with tracer.span("spectra.srg_parameters"):
                srg = srg_parameters(graph)
            with tracer.span("graphs.period", traversal_arcs=q * graph.n):
                graph_period = period(graph)
            rows.append(cli.FieldReportRow(
                q=q, p=field.p, m=field.m, k=k, n=graph.n, structure=structure,
                directed=graph.directed, components=count, nature=report.nature.render(),
                mu=report.mu, srg=srg, period=graph_period, g=wres.g, w=wres.w))
        with tracer.span("cli.render"):
            return cli.render_records(rows)


class SpectrumSweep(Workload):
    """`spectrum --q Q --k K` for every K | q - 1 on a fixed set of odd q; the seed orders the ops."""

    name = "spectrum_sweep"
    # 2399 is prime: length-p periods, and k = p - 1 gives p - 1 distinct
    # eigenvalues. 2187 = 3^7, 2209 = 47^2 and 2401 = 7^4 have disconnected
    # graphs, which take spectrum's per-character branch.
    FIELDS = (2187, 2209, 2399, 2401)

    def universe(self) -> list[Op]:
        return [Op(f"spectrum --q {q} --k {k}", q, k)
                for q in self.FIELDS for k in divisors(q - 1)]

    def run_traced(self, op: Op, tracer) -> str:
        field = self.traced_field(tracer, op.q)
        _, report = traced_spectrum(tracer, field, op.k)
        return render_spectrum(tracer, report)


class VerifySweep(Workload):
    """run_verification(max_q=343, jobs=1); the seed has nothing to choose."""

    name = "verify_sweep"
    MAX_Q = 343

    def universe(self) -> list[Op]:
        return [Op(f"run_verification --max-q {self.MAX_Q} --jobs 1", self.MAX_Q)]

    @staticmethod
    def outcomes_text(outcomes) -> str:
        return json.dumps([[o.name, o.passed, o.failed, o.first_failure] for o in outcomes])

    def run(self, op: Op) -> str:
        return self.outcomes_text(run_verification(op.q, jobs=1))

    def run_traced(self, op: Op, tracer) -> str:
        per_q = []
        for q in range(2, op.q + 1):
            if prime_power(q) is None:
                continue
            with tracer.span("verify.verify_field") as span:
                outcomes = verify_field(q)
                span.update(checks_passed=sum(o.passed for o in outcomes),
                            checks_failed=sum(o.failed for o in outcomes))
            per_q.append([q, json.loads(self.outcomes_text(outcomes))])
        return json.dumps(per_q)


class CliQueries(Workload):
    """One single-graph CLI query per extension field 1024 <= q <= 19683, each on a cold field.

    Each field has one query, drawn once by a generator seeded with q:
    alternately `spectrum --q Q --k K` and `waring --q Q --k K --witness T`,
    K a divisor of q - 1 and T one of four nonzero candidates. `waring --q
    8192 --k 1` and `--q 19683 --k 1` are fixed members: they need arrays
    larger than the memory cap, so they fail until traversal memory is
    fixed. The seed orders the stream and picks each T; K stays fixed
    because it sets the cost of a query, while T barely moves it.
    """

    name = "cli_queries"
    one_pass = True  # a second pass would find every field built
    FAILING = {8192: 1, 19683: 1}
    CANDIDATES = 4

    def __init__(self):
        super().__init__()
        self.pool = []
        qs = [q for q in range(1024, 19684) if (pm := prime_power(q)) and pm[1] >= 2]
        for i, q in enumerate(qs):
            draw = random.Random(q)
            k = draw.choice(divisors(q - 1))
            if q in self.FAILING or i % 2:
                k = self.FAILING.get(q, k)
                self.pool.append([Op(f"waring --q {q} --k {k} --witness {t}", q, k, t)
                                  for t in draw.sample(range(1, q), self.CANDIDATES)])
            else:
                self.pool.append([Op(f"spectrum --q {q} --k {k}", q, k)])

    def universe(self) -> list[Op]:
        return [op for choices in self.pool for op in choices]

    def ops(self, rng: random.Random) -> list[Op]:
        ops = [rng.choice(choices) for choices in self.pool]
        rng.shuffle(ops)
        return ops

    def run_traced(self, op: Op, tracer) -> str:
        field = self.traced_field(tracer, op.q)
        if op.target is None:
            _, report = traced_spectrum(tracer, field, op.k)
            return render_spectrum(tracer, report)
        with tracer.span("waring.waring_result"):
            result = waring_result(field, op.k)
        out = [result.exists, result.g, result.w, result.reason_if_absent]
        if result.exists:
            target = field.element(op.target)
            out.append(str(target))
            for signed in (False, True):
                with tracer.span("waring.witness") as span:
                    terms = witness(field, op.k, target, signed=signed)
                    span.update(witness_terms=len(terms))
                out.append([[sign, str(x)] for sign, x in terms])
        return json.dumps(out)


WORKLOADS = {w.name: w for w in (ReportLadder, SpectrumSweep, VerifySweep, CliQueries)}
