"""Command-line front end.

Exit codes: 0 success / congruence verified, 1 congruence verification
failed, 2 usage error, 3 computation error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial
from pathlib import Path

from .arith import (
    MR_DETERMINISTIC_BOUND, bernoulli, format_rational, generalized_bernoulli,
)
from .congruence import (
    bruinier_search,
    condition_a_check,
    condition_b_factors,
    condition_b_primes,
    cusp_correction,
    irregular_pairs,
    nontriviality_witness,
    solve_lambda,
    verify_congruence,
)
from .elliptic import CUSP_FORMS, cusp_form, elliptic_eisenstein, ramanujan_tau
from . import __version__
from .errors import EiscongError, ParseError
from .expansion import ELLIPTIC, eisenstein, exp_parse, exp_serialize, lattice_for
from .hermitian import CLASS_NUMBER_ONE_DISCRIMINANTS
from .reference_values import (
    CONDITION_B_TABLES,
    GENERALIZED_BERNOULLI_TABLES,
    HERMITIAN_EXAMPLE_INDICES,
    HERMITIAN_EXAMPLES,
    SIEGEL_EXAMPLE_INDICES,
    SIEGEL_EXAMPLES,
    table_value,
)

CACHE_ENV = "EISCONG_CACHE_DIR"
# Part of every cache file name, with the library version: a file written
# under another version or layout is never read.
CACHE_FORMAT = 3


@cache  # built on the first call, once per process
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eiscong",
        description="Exact Fourier expansions of degree-2 Eisenstein series "
        "and their congruences with cusp forms.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("bernoulli", help="print a Bernoulli number")
    s.add_argument("--index", type=int, required=True)

    s = sub.add_parser("gen-bernoulli", help="print a generalized Bernoulli number")
    s.add_argument("--disc", type=int, required=True)
    s.add_argument("--index", type=int, required=True)

    s = sub.add_parser("coeff", help="print one Eisenstein coefficient")
    s.add_argument("space", choices=["siegel", "hermitian"])
    s.add_argument("--disc", type=int)
    s.add_argument("--weight", type=int, required=True)
    s.add_argument("--matrix", required=True,
                   help="a,b2,c (siegel) or a,x,y,c (hermitian)")

    s = sub.add_parser("expand", help="build an expansion file")
    s.add_argument("--space", choices=["elliptic", "siegel", "hermitian"],
                   required=True)
    s.add_argument("--disc", type=int)
    s.add_argument("--form", required=True,
                   choices=["G", "E", *dict.fromkeys(n for _, _, n in CUSP_FORMS)])
    s.add_argument("--weight", type=int)
    s.add_argument("--trace-bound", type=int, default=3)
    s.add_argument("--out")

    s = sub.add_parser("congruence", help="solve or verify a congruence")
    s.add_argument("action", choices=["solve", "verify"])
    s.add_argument("--lhs", required=True)
    s.add_argument("--rhs", required=True)
    s.add_argument("--mod", type=int, required=True)
    s.add_argument("--lambda", dest="multiplier", type=int)
    s.add_argument("--format", choices=["text", "structured"], default="text")

    s = sub.add_parser("cusp-correct", help="subtract the Eisenstein boundary part")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out")

    s = sub.add_parser("scan", help="divisibility and witness scanners")
    scan_sub = s.add_subparsers(dest="scan_command", required=True)
    t = scan_sub.add_parser("irregular")
    t.add_argument("--max-prime", type=int, required=True)
    t = scan_sub.add_parser("condition-b")
    t.add_argument("--disc", type=int, required=True)
    t.add_argument("--max-k", type=int, required=True)
    t = scan_sub.add_parser("witness")
    t.add_argument("--disc", type=int, required=True)
    t.add_argument("--weight", type=int, required=True)
    t.add_argument("--mod", type=int, required=True)
    t = scan_sub.add_parser("bruinier")
    t.add_argument("--weight", type=int, required=True)
    t.add_argument("--mod", type=int, required=True)
    t.add_argument("--max-disc", type=int, default=100)

    s = sub.add_parser("tables", help="regenerate the generalized Bernoulli table")
    s.add_argument("--disc", type=int, required=True)

    s = sub.add_parser("reproduce", help="re-run the published checks")
    s.add_argument("--section", choices=["1", "4.1", "4.2", "5"], required=True)

    return p


def _resolve(space, disc, form, weight, bound):
    """The cache tag of an expand request, named from what it builds (the
    lattice's disc, a named form's weight), and its builder; a request
    that no builder serves is a ValueError."""
    lattice = lattice_for(space, disc)
    if form not in ("G", "E"):
        key = (space, lattice.disc, form)
        if key not in CUSP_FORMS:
            over = "" if lattice.disc is None else f" over disc {disc}"
            raise ValueError(f"form {form} is not a {space} form{over}")
        expected = CUSP_FORMS[key]
        if weight is not None and weight != expected:
            raise ValueError(f"form {form} has weight {expected}")
        weight, build = expected, partial(cusp_form, key, bound)
    elif weight is None:
        raise ValueError("--weight is required for form G/E")
    elif lattice is ELLIPTIC:  # degree 1: E_k alone, not a Maass lift
        if form != "E":
            raise ValueError("elliptic supports only form E")
        build = partial(elliptic_eisenstein, weight, bound)
    else:
        build = partial(eisenstein, lattice, form, weight, bound)
    return f"{space}_{lattice.disc or 0}_{form}_{weight}_{bound}", build


def _digest_line(name: str, text: str) -> str:
    """A cache entry's first line: it binds the body to the entry's name,
    which holds the whole request, so a cut, altered or moved entry fails."""
    from hashlib import sha256  # only a cache user pays for the import

    return "sha256 " + sha256(f"{name}\n{text}".encode()).hexdigest()


def _cached_text(path: Path):
    """The cache entry's body if its digest line matches; else None."""
    try:
        entry = path.read_text()
    except (OSError, UnicodeDecodeError):
        return None
    head, _, text = entry.partition("\n")
    return text if head == _digest_line(path.name, text) else None


def _cmd_expand(args) -> int:
    tag, build = _resolve(args.space, args.disc, args.form, args.weight, args.trace_bound)
    cache_dir = os.environ.get(CACHE_ENV)
    cache_path = text = None
    if cache_dir:
        cache_path = Path(cache_dir) / f"v{__version__}.{CACHE_FORMAT}_{tag}.exp"
        text = _cached_text(cache_path)
    if text is not None:
        _emit(text, args.out)
        return 0
    text = exp_serialize(build())
    if cache_path is not None:  # a new entry, or one that failed validation
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        # rename into place: a crash or a second writer leaves no partial file
        tmp = cache_path.with_name(f"{cache_path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(f"{_digest_line(cache_path.name, text)}\n{text}")
            os.replace(tmp, cache_path)
        finally:
            tmp.unlink(missing_ok=True)
    _emit(text, args.out)
    return 0


def _emit(text: str, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_expansion(path: str):
    try:
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as exc:  # a ValueError, but the file is at fault
            raise ParseError(exc.object.count(b"\n", 0, exc.start) + 1, str(exc)) from None
        return exp_parse(text)
    except ParseError as exc:  # the file is at fault: name it
        exc.path = path
        raise


def _cmd_congruence(args) -> int:
    lhs, rhs = _read_expansion(args.lhs), _read_expansion(args.rhs)
    if args.action == "solve":
        report = solve_lambda(lhs, rhs, args.mod)
    else:
        if args.multiplier is None:
            print("congruence verify requires --lambda", file=sys.stderr)
            return 2
        report = verify_congruence(lhs, rhs, args.mod, args.multiplier)
    if args.format == "structured":
        sys.stdout.write(report.to_text())
    else:
        lam = report.multiplier
        signed = lam if lam <= report.modulus // 2 else lam - report.modulus
        status = "verified" if report.verified else "FAILED"
        print(f"lambda = {lam} (= {signed}) mod {report.modulus}: {status} "
              f"at {report.indices_checked} indices")
        if report.first_failure:
            key, l, r = report.first_failure
            print(f"first failure at {key}: {l} != {r}")
    return 0 if report.verified else 1


def _checks_result(checks) -> int:
    """Print PASS/FAIL per item, return the exit code."""
    failed = 0
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _reproduce_1():
    from .arith import divisor_power_sums

    sigma = divisor_power_sums(11, 200)
    ok = all((sigma[n] - ramanujan_tau(n)) % 691 == 0 for n in range(1, 201))
    return [("sigma_11(n) = tau(n) mod 691 for n <= 200", ok)]


def _reproduce_congruences(cases):
    """Published coefficients and multipliers of G_k = lambda * cusp form;
    a case is (the cusp form's CUSP_FORMS key, tag, indices, data)."""
    checks = []
    for key, tag, indices, data in cases:
        (space, disc, name), k = key, CUSP_FORMS[key]
        eis, cusp = eisenstein(lattice_for(space, disc), "G", k, 3), cusp_form(key, 3)
        for t, gval, cval in zip(indices, data["eis"], data["cusp"]):
            checks.append((f"a_G{k}{tag}{t} = {format_rational(gval)}",
                           eis.coefficient(t) == gval))
            checks.append((f"a_{name}{tag}{t} = {cval}", cusp.coefficient(t) == cval))
        report = solve_lambda(eis, cusp, data["modulus"])
        checks.append((f"G{k}{tag} = {data['lambda']} * {name} mod {data['modulus']}",
                       report.verified and report.multiplier == data["lambda"]))
    return checks


def _reproduce_41():
    return _reproduce_congruences(
        (("siegel", None, f"X{k}"), "", SIEGEL_EXAMPLE_INDICES, data)
        for k, data in SIEGEL_EXAMPLES.items())


def _reproduce_42():
    return _reproduce_congruences(
        (("hermitian", disc, data["cusp_form"]), f",disc={disc}",
         HERMITIAN_EXAMPLE_INDICES[disc], data)
        for (disc, _), data in HERMITIAN_EXAMPLES.items())


def _reproduce_5():
    checks = []
    for disc, rows in GENERALIZED_BERNOULLI_TABLES.items():
        for n, _, _ in rows:
            expected = table_value(disc, n)
            checks.append((
                f"B_{n},chi({disc}) = {format_rational(expected)}",
                generalized_bernoulli(n, disc) == expected,
            ))
        scanned = condition_b_primes(disc, 16)
        for k, published in CONDITION_B_TABLES[disc].items():
            small = [p for p in published if p < 10**7]
            got = [p for p in scanned.get(k, []) if p < 10**7]
            checks.append((
                f"condition-B primes < 1e7, disc {disc}, k = {k}", got == small,
            ))
    return checks


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "bernoulli":
            print(format_rational(bernoulli(args.index)))
            return 0
        if args.command == "gen-bernoulli":
            print(format_rational(generalized_bernoulli(args.index, args.disc)))
            return 0
        if args.command == "coeff":
            lattice = lattice_for(args.space, args.disc)
            t = lattice.parse_key(args.matrix)
            print(format_rational(lattice.coefficient(args.weight, t)))
            return 0
        if args.command == "expand":
            return _cmd_expand(args)
        if args.command == "congruence":
            return _cmd_congruence(args)
        if args.command == "cusp-correct":
            _emit(exp_serialize(cusp_correction(_read_expansion(args.infile))), args.out)
            return 0
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "tables":
            if args.disc not in CLASS_NUMBER_ONE_DISCRIMINANTS:
                print(f"--disc must be one of {CLASS_NUMBER_ONE_DISCRIMINANTS}",
                      file=sys.stderr)
                return 2
            print(f"disc {args.disc}: n, B_n, condition-B primes (k = n + 1)")
            rows = _condition_b_rows(args.disc, 16)
            for n in range(1, 16, 2):
                val = format_rational(generalized_bernoulli(n, args.disc))
                marks, unfactored = rows.get(n + 1, (None, ""))
                cell = "not scanned" if marks is None else ", ".join(marks) or "-"
                print(f"{n:3d}  {val}  [{cell}]{unfactored}")
            print(_CONDITION_B_LEGEND)
            print("(not scanned: k = 2, below the first weight k = 4 of the condition-B scan)")
            return 0
        # reproduce: the required subparsers leave no other command
        section = {
            "1": _reproduce_1, "4.1": _reproduce_41,
            "4.2": _reproduce_42, "5": _reproduce_5,
        }[args.section]
        return _checks_result(section())
    except ParseError as exc:  # raised through _read_expansion, which names the file
        print(f"invalid expansion file {exc.path}: {exc}", file=sys.stderr)
        return 3
    except EiscongError as exc:  # before ValueError: an error may be both
        print(f"computation error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


_CONDITION_B_LEGEND = """\
(* marks primes failing condition (A))
(? marks probable primes, above the deterministic Miller-Rabin range 3.3e24)
(unfactored: a composite cofactor with no prime factor below 1e7, or 0 when the number vanishes)"""


def _condition_b_rows(disc, k_max):
    """k -> (marked primes of condition_b_factors, " unfactored N" or "")."""
    return {k: ([f"{p}{'' if condition_a_check(disc, p) else '*'}"
                 f"{'?' if p >= MR_DETERMINISTIC_BOUND else ''}" for p in ps],
                "" if rest == 1 else f" unfactored {rest}")
            for k, (ps, rest) in condition_b_factors(disc, k_max).items()}


def _cmd_scan(args) -> int:
    if args.scan_command == "irregular":
        for p, m in irregular_pairs(args.max_prime):
            print(f"{p} {m}")
        return 0
    if args.scan_command == "condition-b":
        for k, (marks, unfactored) in _condition_b_rows(args.disc, args.max_k).items():
            print(f"k={k}: [{','.join(marks)}]{unfactored}")
        print(_CONDITION_B_LEGEND)
        return 0
    if args.scan_command == "witness":
        w = nontriviality_witness(args.disc, args.weight, args.mod)
        print(f"q = {w.q}  chi = {w.chi_value}  "
              f"q^(k-2) mod p = {w.pow_residue}  method = {w.method}")
        return 0
    # bruinier: the required subparser leaves no other choice
    d0 = bruinier_search(args.weight, args.mod, args.max_disc)
    print("none" if d0 is None else str(d0))
    return 0


def entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry()
