"""The residual systems as lazy streams.

`rb_residuals`, `automorphism_residuals` and `derivation_residuals`
validate their input when called and compute each (name, scalar) pair only
when the stream reaches it.  `residuals_vanish` stops at the first nonzero
residual; `full_verdict` consumes the whole stream and stays the full
oracle, so the two verdicts must agree on every input, genuine or not.
"""

import random
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from prelie import linalg as la
from prelie import suites
from prelie.algebras import (apex_algebra, unital_extension,
                             upper_triangular_algebra)
from prelie.errors import DimensionError
from prelie.fields import make_field
from prelie.rota_baxter import (_rb_equations, enumerate_rb_operators,
                                isotropic_column_operator,
                                isotropic_line_decomposition, rb_residuals,
                                reflect_operator, skew_pairing_operator,
                                splitting_operator)
from prelie.symmetry import (_leibniz_rows, _product_equations,
                             automorphism_residuals, derivation_matrices,
                             derivation_residuals, enumerate_automorphisms)

from helpers import residuals_vanish
from test_sparse_kernels import CountingField

FIELDS = {spec: make_field(spec) for spec in ("gf3", "gf5", "q", "qi")}
APEX = {(spec, n): apex_algebra(F, n)
        for spec, F in FIELDS.items() for n in range(2, 6)}


def full_verdict(F, residuals) -> bool:
    """The verdict of `residuals_vanish` with every scalar of the stream
    computed before any is tested."""
    values = [v for _, v in residuals]
    return all(F.is_zero(v) for v in values)


def _streams(A, M, w):
    """A fresh stream of each residual system for M, by name."""
    return {"rb": lambda: rb_residuals(A, M, w),
            "automorphism": lambda: automorphism_residuals(A, M),
            "derivation": lambda: derivation_residuals(A, M)}


def _verdicts(A, M, w):
    """The lazy verdict of each system, asserted equal to its full one."""
    F = A.field
    out = {}
    for kind, stream in _streams(A, M, w).items():
        lazy = residuals_vanish(F, stream())
        assert lazy == full_verdict(F, stream()), kind
        out[kind] = lazy
    return out


# ------------------------------------------------------- eager validation

@pytest.mark.parametrize("kind", ["rb", "automorphism", "derivation"])
def test_builders_raise_at_call_time(kind):
    F = FIELDS["gf3"]
    A = apex_algebra(F, 3)
    bad_inputs = [
        (A, la.identity_matrix(F, 2)),
        (A, la.identity_matrix(F, 3)[:2]),
        (upper_triangular_algebra(F, 2).algebra, la.identity_matrix(F, 3)),
        (unital_extension(apex_algebra(F, 2)), la.identity_matrix(F, 3)),
    ]
    for B, M in bad_inputs:
        with pytest.raises(DimensionError):
            _streams(B, M, F.one)[kind]()


# ------------------------------------------------- lazy vs full verdict

@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.integers(2, 5),
       st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.integers(0, 2 ** 32))
def test_lazy_verdict_equals_full_report_on_random_matrices(spec, n, density,
                                                            seed):
    F = FIELDS[spec]
    rng = random.Random(seed)
    M = tuple(tuple(F.random(rng) if rng.random() < density else F.zero
                    for _ in range(n)) for _ in range(n))
    _verdicts(APEX[spec, n], M, F.random(rng))


def test_lazy_verdict_on_every_gf3_operator_and_automorphism():
    F = FIELDS["gf3"]
    A = APEX["gf3", 3]
    for w in F.elements():
        ops = enumerate_rb_operators(A, w)
        assert ops
        for R in ops:
            assert _verdicts(A, R, w)["rb"]
    group = enumerate_automorphisms(A)
    assert group
    for phi in group:
        assert _verdicts(A, phi, F.zero)["automorphism"]


def test_lazy_verdict_on_the_rational_derivation_basis():
    F = FIELDS["q"]
    A = APEX["q", 4]
    basis = derivation_matrices(A)
    assert len(basis) == 3
    for d in basis:
        assert _verdicts(A, d, F.zero)["derivation"]


def _constructed_operators(spec, n):
    """(R, w) pairs that are operators by construction, each also reflected:
    zero, minus the weight, the isotropic column, the skew pairing and the
    isotropic line splitting, wherever the field allows them."""
    F = FIELDS[spec]
    w = F.from_int(2)
    out = [(la.zero_matrix(F, n, n), w),
           (la.mat_scale(F, F.neg(w), la.identity_matrix(F, n)), w)]
    gap = F.sub(F.from_int(2), F.from_int(n))
    if n >= 3 and not F.is_zero(gap) and F.sqrt(F.inv(gap)) is not None:
        out.append((isotropic_column_operator(F, n), F.zero))
    if F.sqrt(F.neg(F.one)) is not None:
        if n == 4:
            out.append((skew_pairing_operator(F), F.zero))
        if n == 2:
            line, apex_line = isotropic_line_decomposition(F)
            out.append((splitting_operator(APEX[spec, 2], apex_line, line, w),
                        w))
    return out + [(reflect_operator(F, R, v), v) for R, v in out]


@pytest.mark.parametrize("spec", sorted(FIELDS))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lazy_verdict_on_constructed_operators(spec, n):
    for R, w in _constructed_operators(spec, n):
        assert _verdicts(APEX[spec, n], R, w)["rb"]


# -------------------------------------------------------- the stream itself

NAMES_N2 = ["jj_v(1,1)[1]", "jj_s(1,1)", "jn_v(1)[1]", "jn_s(1)",
            "nj_v(1)[1]", "nj_s(1)", "nn_v[1]", "nn_s"]


@pytest.mark.parametrize("kind", ["rb", "automorphism"])
def test_streams_yield_n_cubed_names_in_order(kind):
    for spec, F in FIELDS.items():
        for n in range(2, 6):
            M = la.identity_matrix(F, n)
            stream = _streams(APEX[spec, n], M, F.one)[kind]
            names = [name for name, _ in stream()]
            assert len(names) == len(set(names)) == n ** 3
            if n == 2:
                assert names == NAMES_N2


# ------------------------------------------------------------- laziness

def _counted(kind, n):
    """F.mul calls of the lazy verdict and of the full one, on a matrix
    whose first residual is nonzero."""
    C = CountingField(FIELDS["q"])
    A = apex_algebra(C, n)
    M = tuple(tuple(C.from_int(i * n + j + 1) for j in range(n))
              for i in range(n))
    stream = _streams(A, M, C.one)[kind]
    C.muls = 0
    assert not residuals_vanish(C, stream())
    lazy = C.muls
    C.muls = 0
    assert not full_verdict(C, stream())
    return lazy, C.muls


@pytest.mark.parametrize("kind", ["rb", "automorphism", "derivation"])
def test_vanish_stops_at_the_first_nonzero_residual(kind):
    counts = {n: _counted(kind, n) for n in range(2, 7)}
    lazy = {c for c, _ in counts.values()}
    assert len(lazy) == 1 and max(lazy) <= 1
    for n, (_, full) in counts.items():
        assert full >= (n ** 3 if kind != "derivation" else 2 * n - 1)


# ------------------------------------------- the suite's accept side

# rank of each system on the generic matrix at n = 2..5, in every odd or
# zero characteristic tried; the derivations' is n^2 - (n-1)(n-2)/2
SPAN_RANKS = {"rb": (7, 24, 52, 95), "automorphism": (8, 26, 61, 119),
              "derivation": (4, 8, 13, 19)}


@pytest.mark.parametrize("spec", sorted(FIELDS))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_suite_spans_agree_with_the_defining_equations(spec, n):
    F = FIELDS[spec]
    A = APEX[spec, n]
    B, M = suites._generic(F, n)
    w = B.field.gen(n * n)
    leibniz = [{(u,): c for u, c in row.items()} for row in _leibniz_rows(A)]
    defining = {"rb": _rb_equations(A, None),
                "automorphism": _product_equations(A),
                "derivation": leibniz}
    for kind, stream in _streams(B, M, w).items():
        hand, other = la.keyed_spans(F, ([v for _, v in stream()],
                                         defining[kind]))
        assert hand == other, kind
        assert len(hand) == SPAN_RANKS[kind][n - 2], kind


def test_symmetry_residuals_check_compares_the_accept_side(monkeypatch):
    # A residual stream that rejects every matrix agrees with the checkers
    # on random matrices, which are rarely automorphisms; the genuine
    # samples show the disagreement whatever the draws.
    def rejecting(A, M):
        return chain(automorphism_residuals(A, M), [("extra", A.field.one)])

    config = suites.RunConfig(fields=("gf3",), max_n=2)
    assert suites._check_residuals_symmetry(suites._SuiteRun(config))[0]
    monkeypatch.setattr(suites, "automorphism_residuals", rejecting)
    ok, witness = suites._check_residuals_symmetry(suites._SuiteRun(config))
    assert not ok and "automorphism residuals disagree" in witness
