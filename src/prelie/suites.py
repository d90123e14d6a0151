"""Named check suites over the apex family, runnable from the CLI.

Each suite bundles checks of one flavor:

    core      construction coherence, identities, simplicity
    t1        symmetry groups (automorphisms, derivations)
    t2        operator classification (defining identity, quadratic
              relation, isotropy disjunction, case analysis)
    cor       consequences (kernel splittings, index bound, rational
              triviality)
    examples  the worked example operators and decompositions
    remarks   related structures (unital extension lifts, anticommutator
              algebra, truncations)
    all       everything above

A suite run produces a deterministic report: same config, same verdicts,
same witnesses; only the elapsed times vary between runs.  Every check
draws its randomness from a seed derived from the configured seed and the
check name, so worker counts and run order cannot change outcomes.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass

from . import linalg as la
from .algebras import (apex_algebra, check_identity, dot_product_algebra,
                       infinite_truncation_algebra, is_ideal, is_simple,
                       permute_basis, plus_algebra, rebased_first_row,
                       right_mult_matrix, unital_extension)
from .fields import Field, FieldError, make_field
from .rota_baxter import (classify_case, enumerate_decompositions,
                          enumerate_rb_operators, is_rb_operator,
                          is_splitting, is_trivial_operator,
                          isotropic_column_operator,
                          isotropic_line_decomposition, rb_index,
                          rb_residual_report, rational_triviality_check,
                          reflect_operator, skew_pairing_operator,
                          splitting_certificate, splitting_operator,
                          square_isotropy_check, totally_real_isotropy_check)
from .symmetry import (_embed, automorphism_orthogonal_correspondence,
                       automorphism_residual_report,
                       derivation_residual_report,
                       derivation_skew_correspondence, embed_orthogonal,
                       embed_skew, enumerate_orthogonal, is_automorphism,
                       is_derivation)

__all__ = ["CheckRecord", "RunConfig", "SUITES", "run_suite"]

SUITES = ("core", "t1", "t2", "cor", "examples", "remarks", "all")

ENUM_BUDGET = 10 ** 5  # matrices per exhaustive scan inside a suite


@dataclass(frozen=True)
class RunConfig:
    """Knobs for a suite run; everything else is derived from these."""

    fields: tuple[str, ...] = ("q", "qi", "gf3", "gf5")
    max_n: int = 4
    cap: int = 10 ** 7
    workers: int = 1
    seed: int = 0

    def as_dict(self) -> dict:
        return {"fields": list(self.fields), "max_n": self.max_n,
                "cap": self.cap, "workers": self.workers, "seed": self.seed}


@dataclass
class CheckRecord:
    name: str
    claim: str
    ok: bool
    witness: str | None
    elapsed: float

    def as_dict(self) -> dict:
        return {"name": self.name, "claim": self.claim, "ok": self.ok,
                "witness": self.witness, "elapsed": self.elapsed}


def _rng_for(config: RunConfig, name: str) -> random.Random:
    return random.Random(zlib.crc32(f"{config.seed}:{name}".encode()))


def _resolve_fields(config: RunConfig) -> list[Field]:
    out = []
    for spec in config.fields:
        F = make_field(spec)
        if F not in out:
            out.append(F)
    return out


def _finite_odd(fields: list[Field]) -> list[Field]:
    return [F for F in fields if F.is_finite and F.char != 2]


def _scan_pairs(fields: list[Field], max_n: int, cap: int):
    """(field, n) pairs whose full matrix space fits the scan budget."""
    budget = min(ENUM_BUDGET, cap)
    for F in _finite_odd(fields):
        for n in range(2, max_n + 1):
            if F.order ** (n * n) <= budget:
                yield F, n


def _weights(F: Field, rng: random.Random) -> list:
    if F.is_finite and F.order <= 5:
        return list(F.elements())
    return [F.zero, F.one, F.random(rng)]


# ---------------------------------------------------------------- the checks

def _check_pre_lie(config: RunConfig) -> tuple[bool, str | None]:
    for F in _resolve_fields(config):
        for n in range(1, config.max_n + 1):
            rep = check_identity(apex_algebra(F, n), "pre_lie")
            if not rep.ok:
                return False, f"{F!r} n={n} basis triple {rep.witness}"
    return True, None


def _check_construction(config: RunConfig) -> tuple[bool, str | None]:
    for F in _resolve_fields(config):
        for n in range(2, config.max_n + 1):
            A = apex_algebra(F, n)
            marked = la.basis_vector(F, n, n - 1)
            if dot_product_algebra(F, marked) != A:
                return False, f"dot-product table differs at {F!r} n={n}"
            if F.char != 2 and rebased_first_row(F, n) != A:
                return False, f"first-row re-basing differs at {F!r} n={n}"
            perm = (n - 1,) + tuple(range(n - 1))
            if permute_basis(infinite_truncation_algebra(F, n - 1), perm) != A:
                return False, f"truncation relabeling differs at {F!r} n={n}"
    return True, None


def _check_power_assoc(config: RunConfig) -> tuple[bool, str | None]:
    for F in _resolve_fields(config):
        for n in range(2, config.max_n + 1):
            A = apex_algebra(F, n)
            e1 = A.basis(0)
            left = A.multiply(A.multiply(e1, e1), e1)
            right = A.multiply(e1, A.multiply(e1, e1))
            if left != e1 or not la.is_zero_vector(F, right):
                return False, f"third-power values off at {F!r} n={n}"
            if check_identity(A, "third_power_associative").ok:
                return False, f"identity unexpectedly holds at {F!r} n={n}"
            tr = la.trace(F, right_mult_matrix(A, A.basis(n - 1)))
            if tr != F.from_int(2):
                return False, f"apex right-trace is {F.format(tr)} at n={n}"
    return True, None


def _check_simplicity(config: RunConfig) -> tuple[bool, str | None]:
    fields = [F for F in _resolve_fields(config) if F.is_finite]
    gf2 = make_field("gf2", allow_char2=True)
    if gf2 not in fields:
        fields.append(gf2)
    for F in fields:
        for n in range(2, config.max_n + 1):
            if F.order ** n > 10 ** 4:
                continue
            rep = is_simple(apex_algebra(F, n), cap=config.cap)
            if not rep.ok:
                return False, f"proper ideal over {F!r} at n={n}"
    for m in (2, 3):
        if not is_simple(infinite_truncation_algebra(make_field("gf3"), m)).ok:
            return False, f"truncation at rank {m} is not simple"
    return True, None


def _check_derivations(config: RunConfig) -> tuple[bool, str | None]:
    for F in _resolve_fields(config):
        for n in range(2, config.max_n + 1):
            rep = derivation_skew_correspondence(apex_algebra(F, n))
            if not rep.ok:
                return False, f"derivation mismatch at {F!r} n={n}: " \
                    f"{rep.details}"
    return True, None


def _check_automorphisms(config: RunConfig) -> tuple[bool, str | None]:
    ran = 0
    for F, n in _scan_pairs(_resolve_fields(config), config.max_n, config.cap):
        rep = automorphism_orthogonal_correspondence(
            apex_algebra(F, n), cap=config.cap, workers=config.workers)
        ran += 1
        if not rep.ok:
            return False, f"group mismatch at {F!r} n={n}: {rep.details}"
    return _covered(ran)


def _check_residuals_symmetry(config: RunConfig) -> tuple[bool, str | None]:
    rng = _rng_for(config, "residuals-symmetry")
    for F in _resolve_fields(config):
        for n in range(2, config.max_n + 1):
            A = apex_algebra(F, n)
            for _ in range(40):
                M = la.random_matrix(F, n, n, rng)
                mult = is_automorphism(A, M).details["multiplicative"]
                if automorphism_residual_report(A, M).ok != mult:
                    return False, f"automorphism residuals disagree at " \
                        f"{F!r} n={n}: {M}"
                if derivation_residual_report(A, M).ok != \
                        is_derivation(A, M).ok:
                    return False, f"derivation residuals disagree at " \
                        f"{F!r} n={n}: {M}"
    return True, None


def _check_residuals_rb(config: RunConfig) -> tuple[bool, str | None]:
    rng = _rng_for(config, "residuals-rb")
    for F in _resolve_fields(config):
        for n in range(2, config.max_n + 1):
            A = apex_algebra(F, n)
            for w in _weights(F, rng):
                for _ in range(25):
                    M = la.random_matrix(F, n, n, rng)
                    if rb_residual_report(A, M, w).ok != \
                            is_rb_operator(A, M, w).ok:
                        return False, f"operator residuals disagree at " \
                            f"{F!r} n={n} w={F.format(w)}: {M}"
    return True, None


def _operator_sets(config: RunConfig):
    rng = _rng_for(config, "operator-sets")
    for F, n in _scan_pairs(_resolve_fields(config), config.max_n, config.cap):
        A = apex_algebra(F, n)
        for w in _weights(F, rng):
            ops = enumerate_rb_operators(A, w, cap=config.cap,
                                         workers=config.workers)
            yield F, n, w, A, ops


class _OperatorSets:
    """The (F, n, w, A, ops) of `_operator_sets` for one suite run: scanned
    when first iterated, then shared by every check of the run that reads
    them."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._sets = None

    def __iter__(self):
        if self._sets is None:
            self._sets = list(_operator_sets(self.config))
        return iter(self._sets)


def _covered(ran: int) -> tuple[bool, str | None]:
    """The verdict of a scan-backed check that found no violation in `ran`
    cases: a check that examined nothing does not pass."""
    if ran == 0:
        return False, "no finite field small enough for the exhaustive scan"
    return True, None


def _check_quadratic_isotropy(sets: _OperatorSets) -> tuple[bool, str | None]:
    ran = 0
    for F, n, w, A, ops in sets:
        ran += 1
        opset = set(ops)
        zero = la.zero_matrix(F, n, n)
        minus = la.mat_scale(F, F.neg(w), la.identity_matrix(F, n))
        if zero not in opset or minus not in opset:
            return False, f"missing trivial operators at {F!r} n={n} " \
                f"w={F.format(w)}"
        for R in ops:
            rep = square_isotropy_check(A, R, w, verify=False)
            if not rep.ok:
                return False, f"{F!r} n={n} w={F.format(w)}: {R} fails " \
                    f"{rep.details}"
            if reflect_operator(F, R, w) not in opset:
                return False, f"reflection leaves the operator set: {R}"
    return _covered(ran)


def _check_case_analysis(sets: _OperatorSets) -> tuple[bool, str | None]:
    ran = 0
    for F, n, w, A, ops in sets:
        ran += 1
        for R in ops:
            rep = classify_case(A, R, w)  # raises on broken invariants
            if rep.details["case"] == 1 and n % 2 == 1 and not F.is_zero(w):
                return False, f"odd-dimensional case-1 operator at " \
                    f"{F!r} n={n} w={F.format(w)}: {R}"
    return _covered(ran)


def _check_splitting(sets: _OperatorSets) -> tuple[bool, str | None]:
    ran = 0
    for F, n, w, A, ops in sets:
        if F.is_zero(w):
            continue
        ran += 1
        for R in ops:
            rep = splitting_certificate(A, R, w)
            if not rep.ok:
                return False, f"certificate fails at {F!r} n={n} " \
                    f"w={F.format(w)}: {R} {rep.details}"
    return _covered(ran)


def _check_decompositions(config: RunConfig) -> tuple[bool, str | None]:
    ran = 0
    for F in _finite_odd(_resolve_fields(config)):
        if F.order > 5:
            continue
        ran += 1
        A = apex_algebra(F, 2)
        w = F.one
        for rec in enumerate_decompositions(A, cap=config.cap):
            R = splitting_operator(A, rec["part1"], rec["part2"], w)
            if not is_rb_operator(A, R, w).ok:
                return False, f"decomposition over {F!r} builds a " \
                    f"non-operator: {rec['part1'].basis} + " \
                    f"{rec['part2'].basis}"
    return _covered(ran)


def _check_index(sets: _OperatorSets) -> tuple[bool, str | None]:
    ran = 0
    for F, n, w, A, ops in sets:
        ran += 1
        idx = rb_index(A, w, ops)
        if idx is None or idx > 2:
            return False, f"index {idx} at {F!r} n={n} w={F.format(w)}"
        trivial_only = all(is_trivial_operator(F, R, w) for R in ops)
        if (idx == 1) != trivial_only:
            return False, f"index {idx} vs trivial-only={trivial_only} " \
                f"at {F!r} n={n} w={F.format(w)}"
    return _covered(ran)


def _check_rational(config: RunConfig) -> tuple[bool, str | None]:
    Fq = make_field("q")
    rng = _rng_for(config, "rational-triviality")
    n = min(config.max_n, 3)
    A = apex_algebra(Fq, n)
    w = Fq.one
    for _ in range(200):
        M = la.random_matrix(Fq, n, n, rng)
        if is_rb_operator(A, M, w).ok and not is_trivial_operator(Fq, M, w):
            return False, f"nontrivial rational operator found: {M}"
    zero = la.zero_matrix(Fq, n, n)
    minus = la.mat_scale(Fq, Fq.neg(w), la.identity_matrix(Fq, n))
    for R, expect in ((zero, "zero"), (minus, "minus_weight")):
        rep = rational_triviality_check(A, R, w)
        if not rep.ok or rep.details["resolved"] != expect:
            return False, f"trivial operator resolved as {rep.details}"
    probe = totally_real_isotropy_check(Fq, la.identity_matrix(Fq, 2))
    if not probe.ok or probe.details["gram_zero"]:
        return False, "sum-of-squares probe misread a nonzero matrix"
    return True, None


def _check_field_contrast(config: RunConfig) -> tuple[bool, str | None]:
    """Operator existence depends on quadratic solvability: x^2 = -1 has
    roots over GF(5) but not GF(3), and the dim-2 weight-1 operator sets
    differ accordingly."""
    gf3, gf5 = make_field("gf3"), make_field("gf5")
    few = enumerate_rb_operators(apex_algebra(gf3, 2), gf3.one,
                                 cap=config.cap, workers=config.workers)
    many = enumerate_rb_operators(apex_algebra(gf5, 2), gf5.one,
                                  cap=config.cap, workers=config.workers)
    if len(few) != 2 or not all(is_trivial_operator(gf3, R, gf3.one)
                                for R in few):
        return False, f"GF(3) set has {len(few)} operators"
    if len(many) != 8:
        return False, f"GF(5) set has {len(many)} operators"
    return True, None


def _check_example_column(config: RunConfig) -> tuple[bool, str | None]:
    qi = make_field("qi")
    gf5 = make_field("gf5")
    for F in (qi, gf5):
        R = isotropic_column_operator(F, 3)
        A = apex_algebra(F, 3)
        if not is_rb_operator(A, R, F.zero).ok:
            return False, f"column operator fails over {F!r}"
        if not la.is_lagrangian(la.column_space(F, R)):
            return False, f"column image is not isotropic over {F!r}"
        if classify_case(A, R, F.zero).details["case"] != 2:
            return False, f"column operator misclassified over {F!r}"
    try:
        isotropic_column_operator(make_field("gf3"), 3)
        return False, "GF(3) accepted an unsolvable coefficient equation"
    except FieldError:
        pass
    return True, None


def _check_example_skew(config: RunConfig) -> tuple[bool, str | None]:
    qi = make_field("qi")
    gf13 = make_field("gf13")
    for F in (qi, gf13):
        R = skew_pairing_operator(F)
        A = apex_algebra(F, 4)
        if not is_rb_operator(A, R, F.zero).ok:
            return False, f"pairing operator fails over {F!r}"
        rep = classify_case(A, R, F.zero)
        if rep.details["case"] != 1:
            return False, f"pairing operator misclassified over {F!r}"
        if square_isotropy_check(A, R, F.zero).details["branch"] != "both":
            return False, f"pairing operator branch wrong over {F!r}"
    try:
        skew_pairing_operator(make_field("q"))
        return False, "the rationals accepted i^2 = -1"
    except FieldError:
        pass
    return True, None


def _check_example_line(config: RunConfig) -> tuple[bool, str | None]:
    for spec in ("qi", "gf5"):
        F = make_field(spec)
        A = apex_algebra(F, 2)
        w = F.one
        for sign in (1, -1):
            line, apex_line = isotropic_line_decomposition(F, sign)
            if not la.is_lagrangian(line) or la.is_lagrangian(apex_line):
                return False, f"isotropy flags wrong over {F!r} sign {sign}"
            if not la.is_direct_sum(line, apex_line, 2):
                return False, f"parts not a direct sum over {F!r}"
            R = splitting_operator(A, line, apex_line, w)
            if not is_rb_operator(A, R, w).ok:
                return False, f"splitting operator fails over {F!r}"
            if not is_splitting(F, R, w):
                return False, f"quadratic relation fails over {F!r}"
    return True, None


def _check_unital_lifts(config: RunConfig) -> tuple[bool, str | None]:
    gf3 = make_field("gf3")
    A = apex_algebra(gf3, 3)
    U = unital_extension(A)
    if not check_identity(U, "pre_lie").ok:
        return False, "unital extension is not left-symmetric"
    for Q in enumerate_orthogonal(gf3, 2, cap=config.cap):
        phi = embed_orthogonal(gf3, Q, 3)
        lift = _embed(gf3, phi, gf3.one)
        if not is_automorphism(U, lift).ok:
            return False, f"automorphism lift fails for block {Q}"
    S = ((gf3.zero, gf3.one), (gf3.neg(gf3.one), gf3.zero))
    d = embed_skew(gf3, S, 3)
    if not is_derivation(U, _embed(gf3, d, gf3.zero)).ok:
        return False, "derivation lift fails"
    for w in gf3.elements():
        for R in enumerate_rb_operators(A, w, cap=config.cap,
                                        workers=config.workers):
            if not is_rb_operator(U, _embed(gf3, R, gf3.zero), w).ok:
                return False, f"operator lift fails at w={gf3.format(w)}: {R}"
    return True, None


def _check_anticommutator(config: RunConfig) -> tuple[bool, str | None]:
    gf9 = make_field("gf9")
    for F in _finite_odd(_resolve_fields(config)) + [gf9]:
        for n in (2, 3):
            if F.order ** n > 10 ** 4:
                continue
            B = plus_algebra(apex_algebra(F, n))
            if not check_identity(B, "commutative").ok:
                return False, f"anticommutator not commutative over {F!r}"
            if not check_identity(B, "flexible").ok:
                return False, f"anticommutator not flexible over {F!r}"
            degenerate = (n == 2 and F.char == 3
                          and F.sqrt(F.from_int(2)) is not None)
            if is_simple(B).ok == degenerate:
                return False, f"anticommutator simplicity off at {F!r} n={n}"
    t = gf9.sqrt(gf9.from_int(2))
    line = la.span(gf9, 2, [(gf9.one, t)])
    if not is_ideal(plus_algebra(apex_algebra(gf9, 2)), line).ok:
        return False, "expected degenerate ideal line is not an ideal"
    return True, None


def _check_truncations(config: RunConfig) -> tuple[bool, str | None]:
    for F in _resolve_fields(config):
        for m in range(1, config.max_n):
            T = infinite_truncation_algebra(F, m)
            perm = (m,) + tuple(range(m))
            if permute_basis(T, perm) != apex_algebra(F, m + 1):
                return False, f"truncation relabeling differs at {F!r} m={m}"
            if not check_identity(T, "pre_lie").ok:
                return False, f"truncation not left-symmetric at {F!r} m={m}"
    return True, None


# ------------------------------------------------------------------ plumbing

_CHECKS = {
    "core": [
        ("pre-lie-identity",
         "the family satisfies the left-symmetric identity",
         _check_pre_lie),
        ("construction-coherence",
         "dot-product, first-row, and truncation builders agree",
         _check_construction),
        ("power-associativity",
         "third powers split and the apex right-trace is 2",
         _check_power_assoc),
        ("simplicity",
         "no proper ideals over small finite fields",
         _check_simplicity),
    ],
    "t1": [
        ("derivation-block",
         "derivations are exactly the embedded skew blocks",
         _check_derivations),
        ("automorphism-group",
         "automorphisms are exactly the embedded orthogonal blocks",
         _check_automorphisms),
        ("symmetry-residuals",
         "residual systems match the defining equations",
         _check_residuals_symmetry),
    ],
    "t2": [
        ("operator-residuals",
         "residual systems match the defining identity",
         _check_residuals_rb),
        ("quadratic-isotropy",
         "every operator satisfies the quadratic relation and the "
         "isotropy disjunction",
         _check_quadratic_isotropy),
        ("case-analysis",
         "every operator lands in a case with its forced invariants",
         _check_case_analysis),
    ],
    "cor": [
        ("kernel-splitting",
         "nonzero-weight operators split along their two kernels",
         _check_splitting),
        ("decomposition-operators",
         "subalgebra decompositions produce operators",
         _check_decompositions),
        ("index-bound",
         "the mixed-power index is at most 2, and 1 exactly for "
         "trivial-only sets",
         _check_index),
        ("rational-triviality",
         "over the rationals only the trivial operators exist",
         _check_rational),
        ("field-contrast",
         "operator existence tracks quadratic solvability",
         _check_field_contrast),
    ],
    "examples": [
        ("isotropic-column",
         "the rank-one column operator works where its coefficient "
         "equation is solvable",
         _check_example_column),
        ("skew-pairing",
         "the skew pairing operator works where -1 is a square",
         _check_example_skew),
        ("isotropic-line",
         "the isotropic line decomposition rebuilds its operators",
         _check_example_line),
    ],
    "remarks": [
        ("unital-lifts",
         "symmetries and operators lift to the unital extension",
         _check_unital_lifts),
        ("anticommutator",
         "the anticommutator algebra is commutative, flexible, and "
         "simple off the degenerate spot",
         _check_anticommutator),
        ("truncations",
         "finite truncations relabel to the apex family",
         _check_truncations),
    ],
}


# The checks that read the run's shared operator sets, not its config.
_ON_OPERATOR_SETS = {_check_quadratic_isotropy, _check_case_analysis,
                     _check_splitting, _check_index}


def run_suite(suite: str, config: RunConfig | None = None) -> dict:
    """Run one suite (or "all") and return the report dict."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(SUITES)}")
    config = config or RunConfig()
    operator_sets = _OperatorSets(config)
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    records: list[CheckRecord] = []
    started = time.perf_counter()
    for s in names:
        for name, claim, fn in _CHECKS[s]:
            t0 = time.perf_counter()
            try:
                ok, witness = fn(operator_sets if fn in _ON_OPERATOR_SETS
                                 else config)
            except Exception as exc:  # honest red: a crash is a failure
                ok, witness = False, f"{type(exc).__name__}: {exc}"
            records.append(CheckRecord(name, claim, ok, witness,
                                       round(time.perf_counter() - t0, 6)))
    passed = sum(1 for r in records if r.ok)
    return {
        "suite": suite,
        "config": config.as_dict(),
        "checks": [r.as_dict() for r in records],
        "passed": passed,
        "failed": len(records) - passed,
        "ok": passed == len(records),
        "elapsed": round(time.perf_counter() - started, 6),
    }
