"""The four benchmark workloads and the checks on their outputs.

Every library call a workload makes is an *operation*: its output is
rendered to text and its sha256 compared with the golden digest captured
from the seed commit (``goldens.json``); a mismatch or an exception counts
as a failed operation and the pass carries on.  Published values from
``eiscong.reference_values`` are checked as operations of their own.

A *task* is one verdict a user waits for (one congruence, one scan, one
CLI command).  Its latency is the time spent inside its library calls,
excluding the checks; the pass time excludes them as well.

The seed only permutes independent inputs or picks sweep moduli from a
fixed list, so every seed does the same amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from time import perf_counter

import eiscong as E
import eiscong.cli
from eiscong.reference_values import (
    CONDITION_B_TABLES,
    HERMITIAN_EXAMPLE_INDICES,
    HERMITIAN_EXAMPLES,
    SIEGEL_EXAMPLE_INDICES,
    SIEGEL_EXAMPLES,
    table_value,
)

SIZES = {
    "siegel-congruence": {
        "full": {"tau_n": 80, "bound": 12},
        "smoke": {"tau_n": 12, "bound": 3},
    },
    "hermitian-congruence": {
        "full": {"bound": 7, "cc_bound": 3},
        "smoke": {"bound": 3, "cc_bound": 2},
    },
    "scalar-scan": {
        "full": {"p_max": 1000, "k_max": 16},
        "smoke": {"p_max": 100, "k_max": 8},
    },
    "cli-pipeline": {
        "full": {"siegel_bound": 8, "herm_bound": 5, "sweep": 3},
        "smoke": {"siegel_bound": 3, "herm_bound": 2, "sweep": 1},
    },
}

# Further moduli for the CLI solve sweep.  None divides a denominator of
# the expansions involved, so each solve checks every index and (on the
# seed) reports a failed congruence with exit code 1.
SWEEP_PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069)


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, v in enumerate(sieve) if v]


def irregular_candidates(p_max: int) -> int:
    """(p, m) pairs ``irregular_pairs(p_max)`` tests: p prime, m even, 1 < m < p - 2."""
    return sum(len(range(2, p - 2, 2)) for p in primes_upto(p_max))


class InjectedFault(RuntimeError):
    """Raised in place of an operation named by the self-tests."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """Checks, counters and task latencies of one workload pass.

    With ``goldens=None`` the pass records digests instead of checking
    them (golden capture).
    """

    def __init__(self, goldens, *, inject=None, pause=contextlib.nullcontext):
        self.goldens = goldens
        self.inject = inject
        self.pause = pause
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.tasks: list[tuple[str, float, float, float]] = []  # name, seconds, start, end
        self.cli_expands: list[tuple[bool, float]] = []
        self.work = 0  # units of the workload's fixed work, counted as outputs arrive
        self.check_s = 0.0  # seconds spent checking outputs
        self._task_time = None

    @property
    def failed(self) -> int:
        return len(self.failures)

    @contextlib.contextmanager
    def task(self, name):
        self._task_time = 0.0
        start = perf_counter()
        try:
            yield
        finally:
            self.tasks.append((name, self._task_time, start, perf_counter()))
            self._task_time = None

    def _fail(self, op, reason):
        self.failures.append((op, reason))

    def call(self, op, fn, render):
        """Run one library call, time it, and check ``render(result)``
        against the golden digest of ``op``.  Returns None on failure."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if op == self.inject:
                raise InjectedFault(op)
            result = fn()
        except Exception as exc:  # a failed operation must not end the pass
            self._add_time(perf_counter() - t0)
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return None
        self._add_time(perf_counter() - t0)
        with self._checking():
            try:
                text = render(result)
            except Exception as exc:
                self._fail(op, f"render {type(exc).__name__}: {exc}")
                return None
            self._compare(op, digest(text))
        return result

    def check(self, op, predicate):
        """A published-value or structural check, counted as an operation."""
        self.attempted += 1
        with self._checking():
            try:
                ok = predicate()
            except Exception as exc:
                self._fail(op, f"{type(exc).__name__}: {exc}")
                return
        if not ok:
            self._fail(op, "check failed")

    @contextlib.contextmanager
    def _checking(self):
        """The benchmark's own work on an output (rendering, digests,
        predicates): paused in the tracer and summed in ``check_s``, so
        that the pass time can leave it out as task latencies do."""
        t0 = perf_counter()
        try:
            with self.pause():
                yield
        finally:
            self.check_s += perf_counter() - t0

    def _add_time(self, dt):
        if self._task_time is not None:
            self._task_time += dt

    def _compare(self, op, got):
        if self.goldens is None:
            if op in self.digests:
                raise ValueError(f"duplicate operation id {op}")
            self.digests[op] = got
            return
        want = self.goldens.get(op)
        if want is None:
            self._fail(op, "no golden digest")
        elif want != got:
            self._fail(op, "output differs from golden")


# ---------------------------------------------------------------------------
# siegel-congruence
# ---------------------------------------------------------------------------


def _siegel_pair(run, k, bound):
    data = SIEGEL_EXAMPLES[k]
    cusp = E.igusa_x10 if k == 10 else E.igusa_x12
    with run.task(f"G{k}-X{k}"):
        g = run.call(f"G{k}", lambda: E.siegel_expansion("G", k, bound), E.exp_serialize)
        x = run.call(f"X{k}", lambda: cusp(bound), E.exp_serialize)
        report = run.call(f"solve G{k}/X{k}", lambda: E.solve_lambda(g, x, data["modulus"]),
                          E.CongruenceReport.to_text)
    run.check(f"published G{k}", lambda: [g.coefficient(t) for t in SIEGEL_EXAMPLE_INDICES]
              == data["eis"])
    run.check(f"published X{k}", lambda: [x.coefficient(t) for t in SIEGEL_EXAMPLE_INDICES]
              == data["cusp"])
    run.check(f"published lambda G{k}",
              lambda: report.verified and report.multiplier == data["lambda"])
    if report:
        run.work += report.indices_checked


def _tau_task(run, rng, n_max):
    order = list(range(1, n_max + 1))
    rng.shuffle(order)
    with run.task("tau-691"):
        for n in order:
            tau = run.call(f"tau({n})", lambda: E.ramanujan_tau(n), str)
            run.check(f"tau({n}) = sigma_11({n}) mod 691",
                      lambda: (E.divisor_power_sum(11, n) - tau) % 691 == 0)
    run.work += n_max


def siegel_congruence(run, seed, size, workdir):
    """The seed orders the tau loop only: moving whole tasks shifted the
    latency of the middle task by about 10%."""
    p = SIZES["siegel-congruence"][size]
    _tau_task(run, random.Random(seed), p["tau_n"])
    _siegel_pair(run, 10, p["bound"])
    _siegel_pair(run, 12, p["bound"])


# ---------------------------------------------------------------------------
# hermitian-congruence
# ---------------------------------------------------------------------------


def _hermitian_pair(run, disc, k, bound):
    data = HERMITIAN_EXAMPLES[(disc, k)]
    name = data["cusp_form"]
    with run.task(f"G{k}-{name}[{disc}]"):
        g = run.call(f"G{k}[{disc}]", lambda: E.hermitian_expansion("G", disc, k, bound),
                     E.exp_serialize)
        c = run.call(f"{name}[{disc}]", lambda: E.hermitian_cusp_form(name, disc, bound),
                     E.exp_serialize)
        report = run.call(f"solve G{k}/{name}[{disc}]",
                          lambda: E.solve_lambda(g, c, data["modulus"]),
                          E.CongruenceReport.to_text)
    idx = HERMITIAN_EXAMPLE_INDICES[disc]
    run.check(f"published G{k}[{disc}]", lambda: [g.coefficient(h) for h in idx] == data["eis"])
    run.check(f"published {name}[{disc}]",
              lambda: [c.coefficient(h) for h in idx] == data["cusp"])
    run.check(f"published lambda G{k}[{disc}]",
              lambda: report.verified and report.multiplier == data["lambda"])
    if report:
        run.work += report.indices_checked


def _cusp_correction_163(run, bound):
    with run.task("cusp-correct G10[-163]"):
        g = run.call("G10[-163]", lambda: E.hermitian_expansion("G", -163, 10, bound),
                     E.exp_serialize)
        r = run.call("cusp_correction G10[-163]", lambda: E.cusp_correction(g), E.exp_serialize)
    run.check("Phi(cusp_correction G10[-163]) = 0", lambda: E.phi_operator(r).is_zero())


def hermitian_congruence(run, seed, size, workdir):
    """The seed is not used: reordering the field groups shifted the
    latency of the middle task by about 10%."""
    p = SIZES["hermitian-congruence"][size]
    for disc, k in HERMITIAN_EXAMPLES:
        _hermitian_pair(run, disc, k, p["bound"])
    _cusp_correction_163(run, p["cc_bound"])


# ---------------------------------------------------------------------------
# scalar-scan
# ---------------------------------------------------------------------------


def _condition_b(run, disc, k_max):
    scanned = run.call(f"condition_b_primes({disc}, {k_max})",
                       lambda: E.condition_b_primes(disc, k_max), repr)
    run.work += len(range(4, k_max + 1, 2))
    for n in range(1, k_max, 2):
        value = run.call(f"B_{n},chi({disc})", lambda: E.generalized_bernoulli(n, disc), str)
        run.check(f"published B_{n},chi({disc})", lambda: value == table_value(disc, n))
    for k, published in CONDITION_B_TABLES[disc].items():
        if k <= k_max:
            run.check(f"published condition-B [{disc}] k={k}",
                      lambda: [q for q in scanned[k] if q < 10**7]
                      == [q for q in published if q < 10**7])


def _nontriviality(run):
    for (disc, k), data in HERMITIAN_EXAMPLES.items():
        p = data["modulus"]
        w = run.call(f"witness({disc}, {k}, {p})",
                     lambda: E.nontriviality_witness(disc, k, p), repr)
        run.check(f"witness({disc}, {k}, {p}) is a witness",
                  lambda: E.kronecker_chi(disc, w.q) == -1 and pow(w.q, k - 2, p) != 1)
        run.call(f"bruinier({k}, {p})", lambda: E.bruinier_search(k, p, 100), repr)


def scalar_scan(run, seed, size, workdir):
    """Three tasks: the irregular-prime scan, the condition-B table of the
    nine fields (one verdict, as in section 5 of the paper) and the
    non-triviality searches for the four published Hermitian congruences."""
    p = SIZES["scalar-scan"][size]
    with run.task("irregular"):
        run.call(f"irregular_pairs({p['p_max']})", lambda: E.irregular_pairs(p["p_max"]), repr)
    run.work += irregular_candidates(p["p_max"])
    discs = list(CONDITION_B_TABLES)
    random.Random(seed).shuffle(discs)
    with run.task("condition-B table"):
        for disc in discs:
            _condition_b(run, disc, p["k_max"])
    with run.task("nontriviality"):
        _nontriviality(run)


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = eiscong.cli.main(argv)
    return code, out.getvalue()


def _read(path):
    with open(path) as fh:
        return fh.read()


def cli_pipeline(run, seed, size, workdir, sweep_all=False):
    """``sweep_all`` runs every sweep modulus (golden capture)."""
    p = SIZES["cli-pipeline"][size]
    cache = os.path.join(workdir, "cache")
    os.environ[eiscong.cli.CACHE_ENV] = cache
    sb, hb = str(p["siegel_bound"]), str(p["herm_bound"])
    siegel = ["--space", "siegel", "--trace-bound", sb]
    herm = ["--space", "hermitian", "--trace-bound", hb]
    # (file tag, expand arguments)
    forms = [
        ("siegel-G10", siegel + ["--form", "G", "--weight", "10"]),
        ("siegel-X10", siegel + ["--form", "X10"]),
        ("siegel-G12", siegel + ["--form", "G", "--weight", "12"]),
        ("siegel-X12", siegel + ["--form", "X12"]),
        ("herm-4-G10", herm + ["--disc", "-4", "--form", "G", "--weight", "10"]),
        ("herm-4-F10", herm + ["--disc", "-4", "--form", "F10"]),
        ("herm-3-G12", herm + ["--disc", "-3", "--form", "G", "--weight", "12"]),
        ("herm-3-F12", herm + ["--disc", "-3", "--form", "F12"]),
    ]
    pairs = [
        ("siegel-G10", "siegel-X10", SIEGEL_EXAMPLES[10]),
        ("siegel-G12", "siegel-X12", SIEGEL_EXAMPLES[12]),
        ("herm-4-G10", "herm-4-F10", HERMITIAN_EXAMPLES[(-4, 10)]),
        ("herm-3-G12", "herm-3-F12", HERMITIAN_EXAMPLES[(-3, 12)]),
    ]

    def path(tag):
        return os.path.join(workdir, tag + ".exp")

    def command(op, argv, out_file=None):
        run.work += 1
        with run.task(op):
            return run.call(op, lambda: _cli(argv), lambda r: _show_cli(r, out_file))

    def expand(phase, tag, args):
        before = len(os.listdir(cache)) if os.path.isdir(cache) else 0
        t0 = len(run.tasks)
        command(f"{phase} expand {tag}", ["expand", *args, "--out", path(tag)], path(tag))
        after = len(os.listdir(cache)) if os.path.isdir(cache) else 0
        run.cli_expands.append((after == before, run.tasks[t0][1]))

    for phase in ("write", "read"):
        for tag, args in forms:
            expand(phase, tag, args)

    rng = random.Random(seed)
    for g, c, data in pairs:
        lhs_rhs = ["--lhs", path(g), "--rhs", path(c)]
        mod = data["modulus"]
        r = command(f"solve {g}/{c} mod {mod}",
                    ["congruence", "solve", *lhs_rhs, "--mod", str(mod)])
        run.check(f"published lambda {g}/{c}",
                  lambda: r[0] == 0 and r[1].startswith(f"lambda = {data['lambda']} "))
        sweep = SWEEP_PRIMES if sweep_all else rng.sample(SWEEP_PRIMES, p["sweep"])
        for q in sweep:
            command(f"solve {g}/{c} mod {q}", ["congruence", "solve", *lhs_rhs, "--mod", str(q)])
    for g, c, data in pairs:
        command(f"verify {g}/{c}", ["congruence", "verify", "--lhs", path(g), "--rhs", path(c),
                                    "--mod", str(data["modulus"]),
                                    "--lambda", str(data["lambda"]), "--format", "structured"])
    for g, _, _ in pairs:
        out = path(g + "-cc")
        command(f"cusp-correct {g}", ["cusp-correct", "--in", path(g), "--out", out], out)
        run.check(f"Phi(cusp-correct {g}) = 0",
                  lambda: E.phi_operator(E.exp_parse(_read(out))).is_zero())


def _show_cli(result, out_file):
    code, stdout = result
    text = f"exit {code}\n{stdout}"
    if out_file is not None:
        text += "--- out\n" + _read(out_file)
    return text


WORKLOADS = {
    "siegel-congruence": siegel_congruence,
    "hermitian-congruence": hermitian_congruence,
    "scalar-scan": scalar_scan,
    "cli-pipeline": cli_pipeline,
}

