"""Command-line front end: build algebras, run checkers, emit JSON.

Exit codes: 0 = command ran and produced its verdict (including negative
verdicts such as "this matrix is not an operator"), 1 = a claimed invariant
was falsified (a suite check failed or a forced invariant broke), 2 = usage
error (bad flags, malformed JSON, unknown field, cap exceeded).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import linalg as la
from .algebras import (IDENTITY_KINDS, Algebra, apex_algebra, check_identity,
                       dot_product_algebra, infinite_truncation_algebra,
                       is_apex_algebra, is_simple, upper_triangular_algebra)
from .errors import DimensionError, FalsificationError, PrelieError
from .fields import Field, FieldError, make_field
from .rota_baxter import (classify_case, enumerate_decompositions,
                          enumerate_rb_operators, is_rb_operator,
                          is_splitting, rb_index, splitting_certificate,
                          square_isotropy_check)
from .suites import SUITES, RunConfig, run_suite
from .symmetry import (automorphism_orthogonal_correspondence,
                       derivation_matrices, enumerate_automorphisms)

FAMILIES = ("in", "ex1", "un", "iinf")

USAGE_ERROR = 2
FALSIFIED = 1

# options whose value is a scalar literal, which may start with "-"
SCALAR_OPTIONS = ("--weight", "--marked")


class UsageError(Exception):
    pass


def _format_matrix(F: Field, M) -> list[list[str]]:
    return [[F.format(c) for c in row] for row in M]


def _format_subspace(W) -> dict:
    return {"ambient": W.ambient,
            "basis": _format_matrix(W.field, W.basis)}


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    print(text)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _build_algebra(args, allow_char2: bool = False) -> Algebra:
    """Assemble the algebra a command operates on: --algebra file wins,
    otherwise the family flags are used (--family defaults to "in")."""
    if args.algebra:
        data = _load_json(args.algebra)
        try:
            return Algebra.from_json(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad algebra JSON: {exc}") from exc
    family = args.family or "in"
    if not args.field:
        raise UsageError("--field is required when no algebra file is given")
    F = make_field(args.field, allow_char2=allow_char2)
    if family == "ex1":
        if not args.marked:
            raise UsageError("--marked is required for family ex1 "
                             "(comma-separated scalar literals)")
        marked = tuple(F.parse(t.strip()) for t in args.marked.split(","))
        return dot_product_algebra(F, marked)
    n = args.n
    if n is None:
        raise UsageError("--n is required when no algebra file is given")
    if family == "in":
        return apex_algebra(F, n)
    if family == "un":
        return upper_triangular_algebra(F, n).algebra
    if family == "iinf":
        return infinite_truncation_algebra(F, n)  # n is the truncation rank
    raise UsageError(f"unknown family {family!r}; choose from "
                     f"{', '.join(FAMILIES)}")


def _parse_weight(F: Field, text: str):
    try:
        return F.parse(text)
    except FieldError as exc:
        raise UsageError(f"bad weight literal {text!r}: {exc}") from exc


def _load_operator(F: Field, path: str, dim: int):
    data = _load_json(path)
    try:
        return la.matrix_from_json(F, data, dim, dim)
    except (DimensionError, FieldError, TypeError) as exc:
        raise UsageError(f"bad operator JSON: {exc}") from exc


# ----------------------------------------------------------------- commands

def cmd_build(args) -> int:
    A = _build_algebra(args)
    _emit(args, A.to_json())
    return 0


def cmd_check_identity(args) -> int:
    A = _build_algebra(args)
    rep = check_identity(A, args.kind, exhaustive=args.exhaustive,
                         cap=args.cap)
    method = rep.details.get("method", "basis")
    witness = rep.witness
    if method == "exhaustive" and witness is not None:
        witness = _format_matrix(A.field, witness)  # a tuple of vectors
    payload = {"kind": args.kind, "holds": rep.ok, "method": method,
               "witness": witness}
    _emit(args, payload)
    return 0


def cmd_simplicity(args) -> int:
    A = _build_algebra(args, allow_char2=True)
    rep = is_simple(A, cap=args.cap)
    payload = {"simple": rep.ok}
    if not rep.ok:
        if isinstance(rep.witness, la.Subspace):
            payload["witness_ideal"] = _format_subspace(rep.witness)
        else:
            payload["reason"] = str(rep.witness)
    _emit(args, payload)
    return 0


def cmd_derivations(args) -> int:
    A = _build_algebra(args)
    mats = derivation_matrices(A)
    payload = {"dim": len(mats),
               "basis": [_format_matrix(A.field, M) for M in mats]}
    _emit(args, payload)
    return 0


def cmd_automorphisms(args) -> int:
    A = _build_algebra(args)
    found = enumerate_automorphisms(A, cap=args.cap, workers=args.workers)
    payload = {"count": len(found),
               "matrices": [_format_matrix(A.field, M) for M in found]}
    exit_code = 0
    if is_apex_algebra(A):
        rep = automorphism_orthogonal_correspondence(A, found, cap=args.cap)
        payload["block_correspondence"] = {
            "holds": rep.ok,
            "automorphisms": rep.details["automorphisms"],
            "orthogonal_blocks": rep.details["orthogonal"],
        }
        if not rep.ok:
            exit_code = FALSIFIED
    _emit(args, payload)
    return exit_code


def cmd_rb_verify(args) -> int:
    A = _build_algebra(args)
    F = A.field
    w = _parse_weight(F, args.weight)
    R = _load_operator(F, args.op, A.dim)
    rep = is_rb_operator(A, R, w)
    payload = {
        "operator": _format_matrix(F, R),
        "weight": F.format(w),
        "is_rb": rep.ok,
        "splitting": is_splitting(F, R, w),
        "case": None,
        "certificate": None,
        "theorem2": None,
    }
    if not rep.ok:
        payload["witness"] = list(rep.witness)
    elif is_apex_algebra(A):
        if F.char != 2:
            case = classify_case(A, R, w)  # FalsificationError -> exit 1
            payload["case"] = case.details
        iso = square_isotropy_check(A, R, w, verify=False)
        payload["theorem2"] = {
            "r2_plus_lr_zero": iso.details["r2_plus_lr_zero"],
            "ata_zero": iso.details["ata_zero"],
            "phi_ata_zero": iso.details["phi_ata_zero"],
        }
        if not iso.ok:
            raise FalsificationError(
                "operator violates the quadratic/isotropy facts", witness=R)
        if not F.is_zero(w):
            cert = splitting_certificate(A, R, w)
            payload["certificate"] = cert.details
            if not cert.ok:
                raise FalsificationError(
                    "operator is not reproduced by its kernel splitting",
                    witness=R)
    _emit(args, payload)
    return 0


def cmd_rb_enumerate(args) -> int:
    A = _build_algebra(args)
    F = A.field
    if args.weight == "all":
        if not F.is_finite:
            raise UsageError("--weight all needs a finite field")
        weights = list(F.elements())
    else:
        weights = [_parse_weight(F, args.weight)]
    by_weight = {}
    for w in weights:
        ops = enumerate_rb_operators(A, w, cap=args.cap, workers=args.workers)
        by_weight[F.format(w)] = {
            "count": len(ops),
            "operators": [_format_matrix(F, R) for R in ops],
        }
    _emit(args, {"dim": A.dim, "field": F.descriptor(),
                 "weights": by_weight})
    return 0


def cmd_rb_index(args) -> int:
    A = _build_algebra(args)
    F = A.field
    w = _parse_weight(F, args.weight)
    ops = enumerate_rb_operators(A, w, cap=args.cap, workers=args.workers)
    idx = rb_index(A, w, ops)
    _emit(args, {"weight": F.format(w),
                 "index": "infinity" if idx is None else idx})
    return 0


def cmd_decompose(args) -> int:
    A = _build_algebra(args)
    F = A.field
    recs = enumerate_decompositions(A, cap=args.cap)
    out = []
    for rec in recs:
        out.append({
            "part1": _format_subspace(rec["part1"]),
            "part2": _format_subspace(rec["part2"]),
            "parts_apex_coordinate": list(rec["parts_apex_coordinate"]),
            "parts_contain_apex": list(rec["parts_contain_apex"]),
            "parts_lagrangian": list(rec["parts_lagrangian"]),
            "normal_form": rec["normal_form"],
        })
    _emit(args, {"count": len(out), "decompositions": out})
    return 0


def cmd_verify_theorems(args) -> int:
    config = RunConfig(
        fields=tuple(t.strip() for t in args.fields.split(",") if t.strip()),
        max_n=args.max_n,
        workers=args.workers,
        seed=args.seed,
    )
    report = run_suite(args.suite, config)
    _emit(args, report)
    return 0 if report["ok"] else FALSIFIED


# ------------------------------------------------------------------- parser

def _at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return parse


def _add_algebra_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", help="path to an algebra JSON file")
    p.add_argument("--family", choices=FAMILIES,
                   help="built-in family when no --algebra file is given: "
                        "in = the marked-vector family by dimension, "
                        "ex1 = dot-product algebra with an explicit marked "
                        "vector, un = upper triangular matrices, "
                        "iinf = truncation of the unbounded table at rank n")
    p.add_argument("--n", type=int,
                   help="dimension (family in), matrix size (un), or "
                        "truncation rank (iinf; the algebra has rank+1 "
                        "basis vectors)")
    p.add_argument("--field", help="field spec: q, qi, gfP, gfP2, or an "
                                   "algebra-file descriptor")
    p.add_argument("--marked", help="comma-separated scalar literals for "
                                    "family ex1")
    p.add_argument("--out", help="also write the JSON output to this file")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="prelie",
        description="Exact-arithmetic checks for a family of simple "
                    "left-symmetric algebras and their Rota-Baxter "
                    "operators.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="print an algebra's structure "
                                     "constants as JSON")
    _add_algebra_flags(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("check-identity", help="test a polynomial identity")
    _add_algebra_flags(p)
    p.add_argument("--kind", required=True, choices=IDENTITY_KINDS)
    p.add_argument("--exhaustive", action="store_true",
                   help="evaluate on every tuple over a finite field "
                        "instead of symbolically")
    p.set_defaults(fn=cmd_check_identity)

    p = sub.add_parser("simplicity", help="decide simplicity over a finite "
                                          "field")
    _add_algebra_flags(p)
    p.set_defaults(fn=cmd_simplicity)

    p = sub.add_parser("derivations", help="basis of the derivation algebra")
    _add_algebra_flags(p)
    p.set_defaults(fn=cmd_derivations)

    p = sub.add_parser("automorphisms", help="enumerate all automorphisms "
                                             "over a finite field")
    _add_algebra_flags(p)
    p.set_defaults(fn=cmd_automorphisms)

    p = sub.add_parser("rb-verify", help="verify one operator matrix")
    _add_algebra_flags(p)
    p.add_argument("--op", required=True, help="path to the operator "
                                               "matrix JSON")
    p.add_argument("--weight", required=True, help="weight scalar literal")
    p.set_defaults(fn=cmd_rb_verify)

    p = sub.add_parser("rb-enumerate", help="enumerate all operators of a "
                                            "weight over a finite field")
    _add_algebra_flags(p)
    p.add_argument("--weight", default="all",
                   help="weight scalar literal, or 'all' for every field "
                        "element")
    p.set_defaults(fn=cmd_rb_enumerate)

    p = sub.add_parser("rb-index", help="least uniform mixed-power "
                                        "vanishing degree")
    _add_algebra_flags(p)
    p.add_argument("--weight", required=True, help="weight scalar literal")
    p.set_defaults(fn=cmd_rb_index)

    p = sub.add_parser("decompose", help="enumerate two-part subalgebra "
                                         "decompositions")
    _add_algebra_flags(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify-theorems", help="run a named check suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    defaults = RunConfig()
    p.add_argument("--fields", default=",".join(defaults.fields),
                   help="comma-separated field specs")
    p.add_argument("--max-n", type=_at_least(2), default=defaults.max_n,
                   dest="max_n")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(fn=cmd_verify_theorems)

    scans = ("automorphisms", "rb-enumerate", "rb-index")
    for name in scans + ("check-identity", "simplicity", "decompose"):
        sub.choices[name].add_argument(
            "--cap", type=int, default=10 ** 7,
            help="abort enumerations larger than this")
    for name in scans + ("verify-theorems",):
        sub.choices[name].add_argument(
            "--workers", type=_at_least(1), default=1,
            help="processes for exhaustive scans (at least 1; capped at the "
                 "CPU count)")
    return top


def _attach_scalar_literals(argv: list[str]) -> list[str]:
    """Rewrite `--weight -1/2` as `--weight=-1/2`.

    argparse reads a token that starts with "-" as a flag unless it looks
    like a plain negative number, so a literal such as -1/2 or -3-2*r
    would leave its option without a value.  Every option here is spelled
    with "--", so a token after a scalar option that starts with a single
    "-" can only be its literal, and the `=` form passes it unambiguously.
    """
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if (token in SCALAR_OPTIONS and value.startswith("-")
                and not value.startswith("--")):
            out.append(f"{token}={value}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_scalar_literals(argv))
    try:
        return args.fn(args)
    except FalsificationError as exc:
        print(json.dumps({"falsified": str(exc),
                          "witness": repr(exc.witness)}, indent=2))
        return FALSIFIED
    except (UsageError, PrelieError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
