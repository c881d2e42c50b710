"""The four workloads: seeded inputs, the operations of one round, and how
each operation's output is checked.

Every call into the program goes through a module attribute looked up at
call time (``cli.main``, ``ymax.y_certify``, ...), so that the tracer's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from hankelbound import caratheodory, cli, families, hankel, series, ymax

#: Rounds generated per run; a run cycles through them.
POOL = 32
#: Parameter values per ``sweep`` command, and ``sweep`` commands per
#: alpha x beta grid of ``spiral_grid``.
CELLS = 5
#: Triples per ``ymax-certify`` command and per ``y_certify`` batch.
TRIPLES = 100
#: Triples per batch re-checked by the independent disk maximiser.
SUBSAMPLE = 3
#: Certification tolerance, the ``ymax-certify`` default.
Y_TOL = 1e-6
#: Class members per library batch of ``coeff_crosscheck``.
MEMBERS = 32

#: Invalid-input commands of ``coeff_crosscheck``; each must exit 2 and
#: never report a pass.  Kept small: the last two run to completion today.
#: They run in the worker process, outside the measured one.
INVALID_INPUTS = (
    ("gamma", "--a2", "nan", "--a3", "inf"),
    ("verify", "--family", "spirallike", "--tol", "-1", "--coarse", "64",
     "--refine-rounds", "2"),
    ("ymax-certify", "--n", "1", "--tol", "nan"),
)


@dataclass
class Outcome:
    items: int = 0
    failed: bool = False
    problems: list[str] = field(default_factory=list)


@dataclass
class Op:
    """One operation.  ``run`` calls the program and is timed; ``check`` is
    not.  An operation with ``task=False`` counts as attempted, and failed
    unless accepted, but stays out of the task times, items and trace."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    task: bool = True


@dataclass
class Workload:
    rounds: list[list[Op]]
    warmup: list[Op]

    def round(self, index: int) -> list[Op]:
        return self.rounds[index % len(self.rounds)]


# -- running the command line in-process -------------------------------------

@dataclass
class CliRun:
    code: int
    out: str
    err: str


def call_cli(argv: list[str]) -> CliRun:
    """``hankelbound <argv>`` through ``cli.main``, with the exit code the
    installed command would give.  An exception the command raises
    propagates, and the operation counts as failed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return CliRun(code, out.getvalue(), err.getvalue())


def cli_op(argv: list[str], items: int, check_payload) -> Op:
    """A command expected to exit 0; ``check_payload`` checks its JSON.

    Another exit code is a wrong output, not a failed operation: these
    commands certify, and a certification that misses must make the run
    incorrect.  The payload is still checked where it parses.
    """
    def check(res: CliRun) -> Outcome:
        problems = [] if res.code == 0 else [f"exit code {res.code}, expected 0"]
        try:
            payload = json.loads(res.out)
        except ValueError:
            return Outcome(items, problems=[*problems, "output is not JSON"])
        return Outcome(items, problems=[*problems, *check_payload(payload)])
    return Op(" ".join(argv), lambda: call_cli(argv), check)


class Worker:
    """``cli_worker.py`` in a process of its own, started at its first
    command, which runs ``hankelbound`` commands one at a time.  Memory the
    commands take there stays out of this process's ``peak_rss_mb``."""

    SCRIPT = Path(__file__).resolve().with_name("cli_worker.py")

    def __init__(self):
        self.proc: subprocess.Popen | None = None

    def call(self, argv) -> CliRun:
        if self.proc is None:
            self.proc = subprocess.Popen([sys.executable, str(self.SCRIPT)], text=True,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.proc.stdin.write(json.dumps(list(argv)) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker ended with exit code {self.proc.wait()}")
        answer = json.loads(line)
        if "raised" in answer:
            raise RuntimeError(f"the command raised:\n{answer['raised']}")
        return CliRun(answer["code"], answer["out"], answer["err"])

    def stop(self) -> None:
        """End the worker, if it runs, and wait for it."""
        if self.proc is not None:
            with self.proc:
                self.proc.stdin.close()
                self.proc.wait()
            self.proc = None


WORKER = Worker()


def rejection_op(argv) -> Op:
    """An invalid-input command, run in the worker; it fails unless rejected."""
    def check(res: CliRun) -> Outcome:
        return Outcome(failed=not checks.check_rejected(res.code, res.out))
    return Op(" ".join(argv), lambda: WORKER.call(argv), check, task=False)


def _arg(value: Fraction | float) -> str:
    """Shortest decimal that parses back to the same double."""
    return repr(float(value))


# -- families -----------------------------------------------------------------

FAMILIES = ("spirallike", "ozaki", "robertson")


def _alphas(rng, count):
    """alpha = k/64 in [0, 15/16], all distinct."""
    return [Fraction(int(k), 64) for k in rng.choice(61, count, replace=False)]


def _betas(rng, count):
    """(cos^2(beta), beta) with cos^2(beta) = m/64 in [1/4, 1], all distinct."""
    cos2 = [Fraction(int(m), 64) for m in rng.choice(np.arange(16, 65), count, replace=False)]
    signs = rng.choice((-1.0, 1.0), count)
    return [(c, s * math.acos(math.sqrt(c))) for c, s in zip(cos2, signs)]


def _nus(rng, count):
    """nu = k/1024 in [1/16, 1], all distinct."""
    return [Fraction(int(k), 1024) for k in rng.choice(np.arange(64, 1025), count, replace=False)]


def _lambdas(rng, count):
    """lambda = 1/2 + k/2048 in [1/2, 1], all distinct."""
    return [Fraction(1, 2) + Fraction(int(k), 2048) for k in rng.choice(1025, count, replace=False)]


def _argmax_h(spec):
    """|H| at a sweep row's argmax, via c_from_params and coeffs_closed_form."""
    def at(row: dict) -> float:
        try:
            params = caratheodory.SchurParams(
                row["argmax_p1"], complex(*row["argmax_p2"]), complex(*row["argmax_p3"]))
        except ValueError:
            return math.nan
        a = families.coeffs_closed_form(spec, caratheodory.c_from_params(params))
        return abs(checks.hankel_det(a.a2, a.a3, a.a4))
    return at


def sweep_op(family: str, values, bounds, specs, extra=()) -> Op:
    argv = ["sweep", "--family", family, "--values", ",".join(map(_arg, values)), *extra]
    h_at = [_argmax_h(spec) for spec in specs]
    return cli_op(argv, len(values),
                  lambda payload: checks.check_sweep(payload, bounds, h_at))


# -- workloads ------------------------------------------------------------------

def spiral_grid(rng) -> Workload:
    """``sweep --family spirallike`` over alpha x beta grids: one command per
    beta, the same CELLS alphas in each of a grid's CELLS commands."""
    rounds = []
    for _ in range(POOL // CELLS):
        alphas = sorted(_alphas(rng, CELLS))
        for c2, beta in _betas(rng, CELLS):
            bounds = [checks.spirallike_bound(a, c2) for a in alphas]
            specs = [families.Spirallike(alpha=float(a), beta=beta) for a in alphas]
            rounds.append([sweep_op("spirallike", alphas, bounds, specs,
                                    ("--beta", _arg(beta)))])
    warm = sweep_op("spirallike", alphas[:1], bounds[:1], specs[:1], ("--beta", _arg(beta)))
    return Workload(rounds, [warm])


def curvature_sweep(rng) -> Workload:
    """``sweep --family ozaki`` and ``sweep --family robertson``; no
    parameter value occurs twice in the pool."""
    def ops(nu, lam):
        return [
            sweep_op("ozaki", nu, [checks.ozaki_bound(v) for v in nu],
                     [families.Ozaki(nu=float(v)) for v in nu]),
            sweep_op("robertson", lam, [checks.robertson_bound(v) for v in lam],
                     [families.Robertson(lam=float(v)) for v in lam]),
        ]

    nus, lams = _nus(rng, POOL * CELLS), _lambdas(rng, POOL * CELLS)
    rounds = [ops(sorted(nus[i * CELLS:(i + 1) * CELLS]), sorted(lams[i * CELLS:(i + 1) * CELLS]))
              for i in range(POOL)]
    return Workload(rounds, ops(sorted(nus[-CELLS:])[:1], sorted(lams[-CELLS:])[:1]))


def envelope_triple(family: str, param: float, p1: float) -> tuple[float, float, float]:
    """(e0, e1, e2) / e3 of the reduced functional at p1 in (0, 1).

    |H| = scale * |e0 + e1 p2 + e2 p2^2 + e3 (1 - |p2|^2) p3| after the
    rotation c1 >= 0; these are the Y-lemma inputs of the paper's second step.
    """
    q = 1.0 - p1 * p1
    if family == "spirallike":
        e = (p1**4, 2.0 * q * p1 * p1, -q * (3.0 + p1 * p1), 4.0 * p1 * q)
    elif family == "ozaki":
        e = ((8.0 - param * param - 4.0 * param) * p1**4, 4.0 * (4.0 - param) * q * p1 * p1,
             -8.0 * (2.0 + p1 * p1) * q, 24.0 * p1 * q)
    else:
        e = ((11.0 + 4.0 * param - 4.0 * param * param) * p1**4,
             4.0 * (2.0 * param + 5.0) * q * p1 * p1, -8.0 * (2.0 + p1 * p1) * q, 24.0 * p1 * q)
    return e[0] / e[3], e[1] / e[3], e[2] / e[3]


def envelope_triples(rng, count: int) -> list[tuple[float, float, float]]:
    """Triples of all three families at interior p1 in [1/64, 63/64]."""
    out = []
    for family in rng.choice(FAMILIES, count):
        # The spirallike envelope has no parameter; one is drawn all the same.
        param = float(_nus(rng, 1)[0] if family == "ozaki" else _lambdas(rng, 1)[0])
        out.append(envelope_triple(str(family), param, float(rng.uniform(1 / 64, 63 / 64))))
    return out


def _disk_problems(triples) -> list[str]:
    problems = []
    for triple in triples:
        problems += checks.check_disk(triple, ymax.y_closed_form(*triple).value, Y_TOL)
    return problems


def ymax_cli_op(seed: int, n: int, sample) -> Op:
    """``ymax-certify`` on the uniform triples it draws from ``seed``."""
    triples = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(n, 3))

    def check_payload(payload):
        row = payload["results"][0]
        if payload["summary"]["pass"] is not True or row["passed"] != n:
            return [f"ymax-certify seed {seed}: {row['passed']} of {n} passed"]
        return _disk_problems([row["worst_triple"], *triples[sample]])
    return cli_op(["ymax-certify", "--n", str(n), "--seed", str(seed)], n, check_payload)


def y_certify_op(triples, sample) -> Op:
    """``ymax.y_certify`` on a batch of envelope triples."""
    def run():
        return [ymax.y_certify(A, B, C, Y_TOL) for A, B, C in triples]

    def check(passed) -> Outcome:
        problems = _disk_problems([triples[i] for i in sample])
        if not all(passed):
            problems.append(f"y_certify: {sum(passed)} of {len(passed)} triples certified")
        return Outcome(len(triples), problems=problems)
    return Op("y_certify", run, check)


def ylemma_certify(rng) -> Workload:
    """A ``ymax-certify`` command and a ``y_certify`` batch per round, of
    equal size so that both cost about the same."""
    rounds = []
    for _ in range(POOL):
        sample = rng.choice(TRIPLES, SUBSAMPLE, replace=False)
        rounds.append([
            ymax_cli_op(int(rng.integers(2**31)), TRIPLES, sample),
            y_certify_op(envelope_triples(rng, TRIPLES), sample),
        ])
    warm = [ymax_cli_op(0, 2, [0]), y_certify_op(envelope_triples(rng, 2), [0])]
    return Workload(rounds, warm)


def _family_case(rng, family: str):
    """A family at a seeded exact parameter: (CLI flags, spec, exact bound)."""
    if family == "spirallike":
        alpha, ((c2, beta),) = _alphas(rng, 1)[0], _betas(rng, 1)
        return (["--alpha", _arg(alpha), "--beta", _arg(beta)],
                families.Spirallike(alpha=float(alpha), beta=beta),
                checks.spirallike_bound(alpha, c2))
    if family == "ozaki":
        nu = _nus(rng, 1)[0]
        return ["--nu", _arg(nu)], families.Ozaki(nu=float(nu)), checks.ozaki_bound(nu)
    lam = _lambdas(rng, 1)[0]
    return ["--lambda", _arg(lam)], families.Robertson(lam=float(lam)), checks.robertson_bound(lam)


def _member(rng):
    """A seeded class member: (spec, (p1, p2, p3), exact bound, is Ozaki)."""
    family = str(rng.choice(FAMILIES))
    _, spec, bound = _family_case(rng, family)
    p2, p3 = rng.uniform(0.0, 1.0, 2) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2))
    params = caratheodory.SchurParams(float(rng.uniform(0.0, 1.0)), complex(p2), complex(p3))
    return spec, params, bound, family == "ozaki"


def member_op(members) -> Op:
    """c_from_params -> coeffs_closed_form and coeffs_ode_oracle -> h21."""
    def run():
        out = []
        for spec, params, _, _ in members:
            c = caratheodory.c_from_params(params)
            closed = families.coeffs_closed_form(spec, c)
            ode = families.coeffs_ode_oracle(
                spec, series.PowerSeries.from_poly([1.0, c.c1, c.c2, c.c3]))
            out.append((closed, ode, hankel.h21(closed), hankel.h21_monomial(closed),
                        hankel.h21(ode)))
        return out

    def check(results) -> Outcome:
        problems = []
        for (_, _, bound, ozaki), (closed, ode, h, hm, ho) in zip(members, results):
            problems += checks.check_member(
                (closed.a2, closed.a3, closed.a4), (ode.a2, ode.a3, ode.a4),
                h, hm, ho, bound, moduli_only=ozaki)
        return Outcome(len(members), problems=problems)
    return Op("members", run, check)


def extremal_ops(rng) -> list[Op]:
    ops = []
    for family in FAMILIES:
        flags, _, bound = _family_case(rng, family)
        ops.append(cli_op(["extremal", "--family", family, *flags], 1,
                          lambda payload, bound=bound: checks.check_extremal(payload, bound)))
    return ops


def gamma_ops(rng) -> list[Op]:
    koebe = cli_op(["gamma", "--koebe"], 1, lambda payload: checks.check_gamma(
        payload, *checks.KOEBE, known=checks.KOEBE_GAMMAS))
    a = [complex(z) for z in rng.uniform(-1.0, 1.0, (3, 2)) @ np.array([1.0, 1j]) * np.arange(2, 5)]
    literal = cli_op(["gamma", *(f"--a{n}={z!r}" for n, z in zip((2, 3, 4), a))], 1,
                     lambda payload: checks.check_gamma(payload, *a))
    return [koebe, literal]


def coeff_crosscheck(rng) -> Workload:
    """Per round: a batch of class members, an ``extremal`` command per
    family, ``gamma --koebe``, ``gamma`` on seeded coefficients, and the
    invalid-input commands.  The warm-up is the first round's tasks."""
    rounds = []
    for _ in range(POOL):
        members = [_member(rng) for _ in range(MEMBERS)]
        rounds.append([member_op(members), *extremal_ops(rng), *gamma_ops(rng),
                       *map(rejection_op, INVALID_INPUTS)])
    return Workload(rounds, [op for op in rounds[0] if op.task])


WORKLOADS = {
    "spiral_grid": spiral_grid,
    "curvature_sweep": curvature_sweep,
    "ylemma_certify": ylemma_certify,
    "coeff_crosscheck": coeff_crosscheck,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](np.random.default_rng(seed))
