"""Command-line front door: load, validate, construct, verify.

Exit status 0 when all requested verifications pass, 1 on a failed
verification, 2 on malformed input (unknown subcommand, out-of-range
number, unreadable file, schema violation).  Reports are deterministic: identical inputs and flags
produce byte-identical reports except for the isolated "timings" section.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import io as dio
from .delta import SubDeltaSet, validate
from .dgred import order_tower, reduce_mod_n, uv_identities
from .homology import PRIME_LIMIT, bockstein, certify_moore, homology_of, \
    homology_table, is_prime
from .moore import MooreSystem, moore_counts
from .moves import BudgetExhausted, cone, cone_counts, cylinder_counts, \
    find_collapse_sequence, mapping_cylinder
from .products import geometric_product, smash, smash_counts

# The largest Delta-set that `dsx moore` builds is the smash power M^(/\ i),
# i the largest of --power and --coherence (P^i is its orbit set).  A run
# whose M^(/\ i), a `dsx product`, `smash`, `cone` or `cylinder` whose
# output, or a `dsx dg` whose largest complex (t(X), or the top tower
# level) is predicted to have more cells than this is refused with exit 2
# before anything is built; so is a `dsx dg reduce --uv-trials` whose
# dense random map X -> t(X) would have more entries, 2|X|^2.  At some
# 0.6 KB per cell, the budget is about 0.6 GB: `dsx moore --power 2
# --coherence 2` peaks near 100 MB at p = 5, where M /\ M has 146,000
# cells, and near 600 MB at p = 13, where it has 986,960.
MAX_CELLS = 1_000_000


class _CliError(Exception):
    def __init__(self, message, status):
        super().__init__(message)
        self.status = status


def _integer(ok, want):
    """argparse type: an integer value for which ok(value) holds."""
    def parse(text):
        value = int(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{value} is not {want}")
        return value
    parse.__name__ = "integer"
    return parse


def _at_least(least):
    return _integer(lambda v: v >= least, f">= {least}")


_prime = _integer(lambda v: v < PRIME_LIMIT and is_prime(v),
                  "a prime below 2**64")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dsx",
        description="finite Delta-sets, products, Moore constructions and "
                    "exact chain-level verification")
    ap.add_argument("--format", choices=("text", "structured"),
                    default="text", help="stdout rendering")
    ap.add_argument("--report", metavar="PATH",
                    help="also write the structured report to PATH")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized property-test sampling")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("validate", help="check a Delta-set file")
    p.add_argument("file")

    p = sub.add_parser("product", help="geometric product of two files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out", "-o", required=True)

    p = sub.add_parser("smash", help="smash product of two based files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out", "-o", required=True)

    p = sub.add_parser("cone", help="cone of a Delta-set")
    p.add_argument("file")
    p.add_argument("--out", "-o", required=True)
    p.add_argument("--certificate", metavar="PATH",
                   help="write the collapse certificate")

    p = sub.add_parser("cylinder", help="mapping cylinder of a morphism file")
    p.add_argument("morphism")
    p.add_argument("--out", "-o", required=True)
    p.add_argument("--certificate", metavar="PATH")

    p = sub.add_parser("certify",
                       help="search for an expansion certificate K -> L")
    p.add_argument("sub", help="Delta-set file of the subcomplex")
    p.add_argument("ambient", help="Delta-set file containing it")
    p.add_argument("--budget", type=_at_least(1), default=100000)
    p.add_argument("--require-pass", action="store_true",
                   help="exit 1 unless a certificate is found")
    p.add_argument("--certificate", metavar="PATH")

    p = sub.add_parser("homology", help="homology table of a file")
    p.add_argument("file")
    p.add_argument("--coeff", choices=("Z", "Q", "Fp"), default="Z")
    p.add_argument("--p", type=_prime)
    p.add_argument("--reduced", action="store_true")

    p = sub.add_parser("bockstein", help="rank of the mod-p Bockstein")
    p.add_argument("file")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--degree", type=_at_least(0), required=True)

    p = sub.add_parser("moore", help="build and certify Moore data",
                       description="refuses, with exit 2, a run whose "
                                   f"largest smash power M^i would have "
                                   f"more than {MAX_CELLS} cells")
    p.add_argument("--p", type=_at_least(2), required=True)
    p.add_argument("--power", type=_at_least(1))
    p.add_argument("--coherence", type=int)
    p.add_argument("--emit", metavar="DIR")

    p = sub.add_parser("dg", help="chain-level reductions and towers")
    dgsub = p.add_subparsers(dest="dg_command")
    q = dgsub.add_parser("reduce", help="mod-n reduction t(X)")
    q.add_argument("file")
    q.add_argument("--n", type=_at_least(1), required=True)
    q.add_argument("--uv-trials", type=_at_least(0), default=0)
    q = dgsub.add_parser("tower", help="n-order witness tower")
    q.add_argument("file")
    q.add_argument("--n", type=_at_least(1), required=True)
    q.add_argument("--k", type=_at_least(1), required=True)
    return ap


def _check(report, name, passed, **details):
    entry = {"name": name, "verdict": "PASS" if passed else "FAIL"}
    entry.update(details)
    report["checks"].append(entry)
    return passed


def _digest(data):
    # imported here: hashlib loads OpenSSL, 3.6 MB resident, and only the
    # certificate commands need it
    import hashlib
    blob = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _table(table):
    """Report tables use string keys so JSON round-trips are lossless."""
    return {str(k): v for k, v in table.items()}


def _homology_args(ns):
    if ns.coeff == "Fp":
        if ns.p is None:
            raise _CliError("--coeff Fp needs --p", 2)
        return "F", ns.p
    return ns.coeff, None


def _cmd_validate(ns, report):
    K = dio.read_delta(ns.file)  # loader refuses invalid files
    violations = validate(K)
    report["tables"]["counts"] = list(K.counts())
    return _check(report, "semisimplicial-identity", not violations,
                  violations=violations[:10])


def _refuse_past_budget(counts, what):
    cells = sum(counts)
    if cells > MAX_CELLS:
        raise _CliError(f"the {what} would have {cells} cells, past the "
                        f"budget of {MAX_CELLS}", 2)


def _cmd_product(ns, report):
    A, B = dio.read_delta(ns.a), dio.read_delta(ns.b)
    if A.based or B.based:
        raise _CliError("product expects unbased files (use smash)", 2)
    _refuse_past_budget(smash_counts(A.counts(), B.counts()), "product")
    P = geometric_product(A, B)
    dio.write_delta(P, ns.out)
    report["tables"]["counts"] = list(P.counts())
    report["outputs"] = {"delta": ns.out}
    euler_ok = P.euler_characteristic() == \
        A.euler_characteristic() * B.euler_characteristic()
    return _check(report, "euler-multiplicativity", euler_ok,
                  chi=P.euler_characteristic())


def _cmd_smash(ns, report):
    A, B = dio.read_delta(ns.a), dio.read_delta(ns.b)
    if not (A.based and B.based):
        raise _CliError("smash expects based files", 2)
    _refuse_past_budget(smash_counts(A.counts(), B.counts()), "smash")
    P = smash(A, B)
    dio.write_delta(P, ns.out)
    report["tables"]["counts"] = list(P.counts())
    report["outputs"] = {"delta": ns.out}
    return _check(report, "smash-valid", not validate(P))


def _cmd_cone(ns, report):
    K = dio.read_delta(ns.file)
    if K.based:
        raise _CliError("cone expects an unbased file", 2)
    _refuse_past_budget(cone_counts(K.counts()), "cone")
    try:
        CK, incl, cert = cone(K)
    except ValueError as exc:  # K holds a name the cone gives a new cell
        raise _CliError(str(exc), 2) from None
    dio.write_delta(CK, ns.out)
    report["outputs"] = {"delta": ns.out}
    report["tables"]["counts"] = list(CK.counts())
    ok = cert.verify() and len(cert) == K.n_cells()
    report["certificates"]["cone"] = _digest(dio.certificate_to_dict(cert))
    if ns.certificate:
        dio.write_certificate(cert, ns.certificate)
    return _check(report, "cone-certificate", ok, moves=len(cert))


def _cmd_cylinder(ns, report):
    f = dio.read_morphism(ns.morphism)
    if f.source.based:
        raise _CliError("cylinder expects an unbased morphism", 2)
    _refuse_past_budget(cylinder_counts(f.source.counts(),
                                        f.target.counts()), "cylinder")
    Mf, g, j, i0, i1, cert = mapping_cylinder(f)
    dio.write_delta(Mf, ns.out)
    report["outputs"] = {"delta": ns.out}
    report["tables"]["counts"] = list(Mf.counts())
    ok = cert.verify()
    report["certificates"]["back-inclusion"] = \
        _digest(dio.certificate_to_dict(cert))
    if ns.certificate:
        dio.write_certificate(cert, ns.certificate)
    return _check(report, "back-inclusion-expansions", ok, moves=len(cert))


def _cmd_certify(ns, report):
    K = dio.read_delta(ns.sub)
    L = dio.read_delta(ns.ambient)
    if K.based or L.based:
        raise _CliError("certify expects unbased files", 2)
    for s in K.dim_of:  # equal faces, so equal dimensions
        if L.faces.get(s) != K.faces[s]:
            raise _CliError(f"{s!r} is not a simplex of the ambient file "
                            "with the same faces", 2)
    sub = SubDeltaSet(L, list(K.dim_of))
    verdict = "UNKNOWN"
    cert = None
    try:
        cert = find_collapse_sequence(L, sub, budget=ns.budget)
    except BudgetExhausted:
        report["checks"].append({"name": "search", "verdict": "FAIL",
                                 "reason": "budget exhausted"})
    if cert is not None:
        verdict = "CERTIFIED"
        report["certificates"]["expansion"] = \
            _digest(dio.certificate_to_dict(cert))
        if ns.certificate:
            dio.write_certificate(cert, ns.certificate)
        report["tables"]["moves"] = len(cert)
    else:
        gk, gl = homology_of(K), homology_of(L)
        degrees = gk.keys() | gl.keys()
        lo, hi = min(degrees), max(degrees)
        hk = _table(homology_table(gk, lo, hi))
        hl = _table(homology_table(gl, lo, hi))
        if hk == hl:
            verdict = "HOMOLOGY-ISO"
        else:
            verdict = "OBSTRUCTED"
        report["tables"]["homology"] = {"sub": hk, "ambient": hl}
    report["tables"]["verdict"] = verdict
    if ns.require_pass:
        return _check(report, "certified", verdict == "CERTIFIED",
                      result=verdict)
    report["checks"].append({"name": "certify", "verdict": "PASS",
                             "result": verdict})
    return True


def _cmd_homology(ns, report):
    K = dio.read_delta(ns.file)
    coeff, p = _homology_args(ns)
    reduced = ns.reduced or K.based
    groups = homology_of(K, coeff=coeff, p=p, reduced=reduced)
    report["tables"]["homology"] = _table(homology_table(groups))
    report["checks"].append({"name": "homology", "verdict": "PASS"})
    return True


def _cmd_bockstein(ns, report):
    K = dio.read_delta(ns.file)
    if not K.based:
        raise _CliError("bockstein expects a based file", 2)
    entry = bockstein(K, ns.p, ns.degree)
    report["tables"]["bockstein"] = {
        key: entry[key] for key in ("rank", "source_dim", "target_dim")}
    report["checks"].append({"name": "bockstein", "verdict": "PASS"})
    return True


def _cmd_moore(ns, report):
    i = max(ns.power or 1, ns.coherence or 1)
    m = counts = moore_counts(ns.p)
    j = 1
    while j < i and sum(counts) <= MAX_CELLS:  # a smash loses no cells
        counts, j = smash_counts(counts, m), j + 1
    if sum(counts) > MAX_CELLS:
        raise _CliError(f"M^{i} at p = {ns.p} is past the budget of "
                        f"{MAX_CELLS} cells: M^{j} has {sum(counts)}", 2)
    sys_ = MooreSystem(ns.p)
    ok = _check(report, "moore-homology", True, table=_table(sys_.table))
    report["tables"]["moore"] = _table(sys_.table)
    emitted = {}
    if ns.emit:
        import os
        os.makedirs(ns.emit, exist_ok=True)
        path = f"{ns.emit}/moore_p{ns.p}.json"
        dio.write_delta(sys_.M, path)
        emitted["M"] = path
    if ns.power:
        P = sys_.power(ns.power)
        passed, table = certify_moore(P, ns.p, 2 * ns.power)
        ok = _check(report, f"symmetric-power-{ns.power}", passed,
                    table=_table(table)) and ok
        report["tables"][f"P{ns.power}"] = _table(table)
        if ns.emit:
            path = f"{ns.emit}/moore_p{ns.p}_power{ns.power}.json"
            dio.write_delta(P, path)
            emitted[f"P{ns.power}"] = path
    if ns.coherence:
        for i in range(2, ns.coherence + 1):
            _, verdict = sys_.coherence_composite(i)
            ok = _check(report, f"coherence-{i}", verdict) and ok
    if emitted:
        report["outputs"] = emitted
    return ok


def _refuse_dg_past_budget(X, k):
    """Tower level 1 is t(X), with 2|X| cells, and each level has three
    times the cells of the last: exit 2 if level k would pass MAX_CELLS,
    stopping at the first level past it."""
    cells, m = 2 * X.total_rank(), 1
    while m < k and cells <= MAX_CELLS:
        cells, m = 3 * cells, m + 1
    if cells > MAX_CELLS:
        raise _CliError(f"tower level {m} (t(X) is level 1) would have "
                        f"{cells} cells, past the budget of {MAX_CELLS}", 2)


def _cmd_dg(ns, report):
    if ns.dg_command == "reduce":
        X = dio.read_complex(ns.file)
        _refuse_dg_past_budget(X, 1)
        if ns.uv_trials:  # a trial's dense map X -> t(X): 2|X|^2 entries
            _refuse_past_budget([2 * X.total_rank() ** 2],
                                "dense map X -> t(X) of a uv trial")
        red = reduce_mod_n(X, ns.n)
        ok = _check(report, "exterior-invariants", not red.ext.check())
        if ns.uv_trials:
            res = uv_identities(red, X, trials=ns.uv_trials, seed=ns.seed)
            ok = _check(report, "uv-identities", res["pass"],
                        trials=res["trials"]) and ok
        report["tables"]["t_ranks"] = [red.complex.rank(k) for k in
                                       range(red.complex.lo,
                                             red.complex.hi + 1)]
        return ok
    if ns.dg_command == "tower":
        X = dio.read_complex(ns.file)
        _refuse_dg_past_budget(X, ns.k)
        tower = order_tower(X, ns.n, ns.k)
        ok = _check(report, "tower-invariants", tower.verify(),
                    levels=len(tower.levels))
        report["tables"]["level_ranks"] = [
            [lvl.complex.rank(k) for k in
             range(lvl.complex.lo, lvl.complex.hi + 1)]
            for lvl in tower.levels]
        return ok
    raise _CliError("dg needs a subcommand (reduce | tower)", 2)


_COMMANDS = {
    "validate": _cmd_validate,
    "product": _cmd_product,
    "smash": _cmd_smash,
    "cone": _cmd_cone,
    "cylinder": _cmd_cylinder,
    "certify": _cmd_certify,
    "homology": _cmd_homology,
    "bockstein": _cmd_bockstein,
    "moore": _cmd_moore,
    "dg": _cmd_dg,
}


def _render_text(report, stream):
    for check in report["checks"]:
        extras = {k: v for k, v in check.items()
                  if k not in ("name", "verdict")}
        line = f"[{check['verdict']}] {check['name']}"
        if extras:
            line += " " + json.dumps(extras, sort_keys=True, default=str)
        print(line, file=stream)
    for key, table in report.get("tables", {}).items():
        print(f"{key}: {json.dumps(table, sort_keys=True, default=str)}",
              file=stream)


def run(argv, stream=None):
    """Run a command; returns (exit_status, report)."""
    stream = stream or sys.stdout
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command == "moore" and ns.coherence is not None and \
                not 2 <= ns.coherence <= ns.p - 1:
            # the coherence claim is for 2 <= i <= p - 1; a level of p or
            # more would first build P^p, which is far too large
            parser.error(f"--coherence must satisfy 2 <= i <= p - 1 = "
                         f"{ns.p - 1}")
    except SystemExit as exc:
        return (0 if exc.code == 0 else 2), {"error": "argument parsing"}
    if not ns.command:
        parser.print_help(stream)
        return 2, {"error": "no subcommand"}
    report = {"command": ["dsx"] + list(argv), "checks": [],
              "tables": {}, "certificates": {}, "timings": {}}
    started = time.perf_counter()
    try:
        ok = _COMMANDS[ns.command](ns, report)
        status = 0 if ok else 1
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.status, {"error": str(exc)}
    except dio.SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2, {"error": str(exc)}
    report["timings"]["total_s"] = round(time.perf_counter() - started, 6)
    if ns.format == "structured":
        json.dump(report, stream, sort_keys=True, indent=1, default=str)
        stream.write("\n")
    else:
        _render_text(report, stream)
    if ns.report:
        with open(ns.report, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=1, default=str)
            fh.write("\n")
    return status, report


def main():
    sys.exit(run(sys.argv[1:])[0])


if __name__ == "__main__":
    main()
