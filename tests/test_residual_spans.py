"""The residual checks of the suite as exact span comparisons.

`operator-residuals` and `symmetry-residuals` run the hand-derived residual
systems on the generic matrix over the polynomial field and compare the
span of the result with the span of the defining equations
(`linalg.keyed_spans`).  Each mutant below perturbs one named residual
over that field, as a wrapper around the real builder, and must make its
check fail with the "... residuals disagree" witness.  `keyed_spans` is
held to `rref` of the dense joint matrix.  The checks compare once per
prime field; the comparison over each extension field stays here as the
oracle that makes that exact.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from prelie import linalg as la
from prelie import suites
from prelie.fields import make_field
from prelie.rota_baxter import _rb_equations, rb_residuals
from prelie.symmetry import (_leibniz_rows, _product_equations,
                             automorphism_residuals, derivation_residuals)


def perturbed(builder, name, change):
    """`builder` with the residual `name` replaced by
    change(P, M, weight, value), P the polynomial field of the lifted
    algebra and weight the builder's weight argument, if any."""
    def wrapper(B, M, *weight):
        for label, value in builder(B, M, *weight):
            if label == name:
                value = change(B.field, M, *weight, value)
            yield label, value
    return wrapper


def apex_dot(P, M):
    """The dot product of the hyperplane part of the apex column with
    itself: the dot term of the two `nn_s` residuals."""
    a = len(M) - 1
    return la.dot(P, [M[k][a] for k in range(a)], [M[k][a] for k in range(a)])


def twice(P, x):
    return P.mul(P.from_int(2), x)


def run_check(check, fields=("q", "gf3", "gf5"), max_n=3):
    config = suites.RunConfig(fields=fields, max_n=max_n)
    return check(suites._SuiteRun(config))


def assert_disagrees(check, kind, **config):
    ok, witness = run_check(check, **config)
    assert not ok
    assert witness.startswith(f"{kind} residuals disagree at ")
    assert ", defining rank " in witness


@pytest.mark.parametrize("check", [suites._check_residuals_rb,
                                   suites._check_residuals_symmetry])
def test_the_unchanged_systems_agree(check):
    assert run_check(check) == (True, None)


# ------------------------------------------------------------- mutants

def test_operator_nn_s_dot_term_flip_fails(monkeypatch):
    # s - dot(hyp(a), hyp(a)) becomes s + dot(hyp(a), hyp(a))
    monkeypatch.setattr(suites, "rb_residuals", perturbed(
        rb_residuals, "nn_s",
        lambda P, M, w, s: P.add(s, twice(P, apex_dot(P, M)))))
    assert_disagrees(suites._check_residuals_rb, "operator")


def test_operator_nn_s_without_its_weight_term_fails(monkeypatch):
    # 2 alpha(a) (alpha(a) + w) becomes 2 alpha(a) alpha(a)
    def drop_w(P, M, w, s):
        alpha = M[-1][-1]
        return P.sub(s, twice(P, P.mul(alpha, w)))

    monkeypatch.setattr(suites, "rb_residuals",
                        perturbed(rb_residuals, "nn_s", drop_w))
    assert_disagrees(suites._check_residuals_rb, "operator")


# Two mutants of residuals that exist only when the hyperplane has two
# vectors, each with the least n at which the span shows it:
# jj_s(1,2) loses its alpha(1) alpha(2) term, and
# jj_v(1,2)[1] = (v(1,2) + v(2,1)) v(1,n) its v(2,1) v(1,n) term.  The
# second leaves the span, hence the operators, unchanged at n = 3.
HYPERPLANE_PAIR_MUTANTS = [
    ("jj_s(1,2)", lambda P, M, w, s: P.sub(s, P.mul(M[-1][0], M[-1][1])), 3),
    ("jj_v(1,2)[1]", lambda P, M, w, s: P.sub(s, P.mul(M[1][0], M[0][-1])),
     4),
]


@pytest.mark.parametrize("name, change, first_n", HYPERPLANE_PAIR_MUTANTS)
def test_operator_mutants_seen_only_from_n_3_fail(monkeypatch, name, change,
                                                  first_n):
    monkeypatch.setattr(suites, "rb_residuals",
                        perturbed(rb_residuals, name, change))
    assert run_check(suites._check_residuals_rb,
                     max_n=first_n - 1) == (True, None)
    ok, witness = run_check(suites._check_residuals_rb, max_n=first_n)
    assert not ok
    assert witness.startswith("operator residuals disagree at ")
    assert f" n={first_n}: " in witness


def test_automorphism_nn_s_dot_term_flip_fails(monkeypatch):
    # dot(hyp(a), hyp(a)) + ... becomes -dot(hyp(a), hyp(a)) + ...
    monkeypatch.setattr(suites, "automorphism_residuals", perturbed(
        automorphism_residuals, "nn_s",
        lambda P, M, s: P.sub(s, twice(P, apex_dot(P, M)))))
    assert_disagrees(suites._check_residuals_symmetry, "automorphism")


def test_changed_derivation_residual_fails(monkeypatch):
    # jj_s(1,2) = d_12 + d_21 becomes d_12 - d_21: symmetric blocks would
    # pass for derivations
    monkeypatch.setattr(suites, "derivation_residuals", perturbed(
        derivation_residuals, "jj_s(1,2)",
        lambda P, M, s: P.sub(s, twice(P, M[1][0]))))
    assert_disagrees(suites._check_residuals_symmetry, "derivation")


# --------------------------------------------- the span helper's oracle

SPAN_FIELDS = {spec: make_field(spec) for spec in ("gf3", "gf9", "q")}
MONOMIALS = [()] + [(u,) for u in range(4)] + \
    [(u, v) for u in range(4) for v in range(u, 4)]


@st.composite
def systems(draw):
    """A field and two sparse polynomial systems over it, the second
    mostly combinations of the first, so that both verdicts occur."""
    F = SPAN_FIELDS[draw(st.sampled_from(sorted(SPAN_FIELDS)))]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def scalar():
        c = F.random(rng)
        return c if not F.is_zero(c) else F.one

    def poly():
        return {mono: scalar()
                for mono in rng.sample(MONOMIALS, rng.randint(1, 3))}

    left = [poly() for _ in range(draw(st.integers(0, 5)))]
    right = []
    for _ in range(draw(st.integers(0, 6))):
        row: dict = {}
        for other in rng.sample(left, min(len(left), 2)):
            la.add_multiple(F, row, scalar(), other)
        right.append(row)
    if draw(st.booleans()):
        right.append(poly())
    return F, left, right


def dense_rows(F, rows, columns):
    return [tuple(row.get(mono, F.zero) for mono in columns) for row in rows]


def dense_rank(F, rows, columns):
    return la.rref(F, dense_rows(F, rows, columns))[1] if rows else 0


@settings(max_examples=150, deadline=None)
@given(systems())
def test_keyed_spans_agree_with_the_dense_joint_rref(case):
    F, left, right = case
    mine, theirs = la.keyed_spans(F, (left, right))
    columns = sorted({mono for row in left + right for mono in row})
    ranks = [dense_rank(F, rows, columns) for rows in (left, right)]
    joint = dense_rank(F, left + right, columns)
    assert [len(mine), len(theirs)] == ranks
    assert (mine == theirs) == (ranks[0] == ranks[1] == joint)


@settings(max_examples=80, deadline=None)
@given(systems(), st.integers(0, 2 ** 32))
def test_a_dropped_row_differs_and_a_scaled_row_does_not(case, seed):
    F, left, _ = case
    columns = sorted({mono for row in left for mono in row})
    rank = dense_rank(F, left, columns)
    if not rank:
        return
    # an independent basis of the span, back in monomial form
    basis = [{mono: c for mono, c in zip(columns, row) if not F.is_zero(c)}
             for row in la.rref(F, dense_rows(F, left, columns))[0][:rank]]
    rng = random.Random(seed)
    t = rng.randrange(rank)
    c = F.random(rng)
    c = c if not F.is_zero(c) else F.from_int(2)
    scaled = [{mono: F.mul(c, x) for mono, x in row.items()} if s == t
              else row for s, row in enumerate(basis)]
    dropped = basis[:t] + basis[t + 1:]
    full, fewer = la.keyed_spans(F, (left, dropped))
    assert full != fewer and len(fewer) == rank - 1
    full, same = la.keyed_spans(F, (left, scaled))
    assert full == same


def test_keyed_spans_share_one_column_order():
    F = SPAN_FIELDS["q"]
    x, y = (0,), (1,)
    first, second = la.keyed_spans(F, ([{y: F.one}, {x: F.one}],
                                       [{x: F.one, y: F.one},
                                        {x: F.one, y: F.neg(F.one)}]))
    assert first == second == [{0: F.one}, {1: F.one}]


# ----------------------------------------------- one comparison per prime field

def embedded(E, rows):
    """Rows over the prime field of E, each coefficient c as (c, 0) in E."""
    zero = E.base.zero
    return [{key: (c, zero) for key, c in row.items()} for row in rows]


def the_systems(F, n):
    """(name, hand values, defining rows) of the three residual systems on
    the generic matrix over F at n, as the suite builds them."""
    A = suites.apex_algebra(F, n)
    B, M = suites._generic(F, n)
    leibniz = [{(u,): c for u, c in row.items()} for row in _leibniz_rows(A)]
    return [
        ("operator", rb_residuals(B, M, B.field.gen(n * n)),
         _rb_equations(A, None)),
        ("automorphism", automorphism_residuals(B, M), _product_equations(A)),
        ("derivation", derivation_residuals(B, M), leibniz),
    ]


@pytest.mark.parametrize("spec", ["qi", "gf9", "gf25"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_extension_systems_are_the_prime_field_systems_embedded(spec, n):
    # the oracle behind comparing once per prime field: over an extension
    # the systems and their reduced rows are the prime field's, embedded
    E = make_field(spec)
    P = E.base
    for (kind, hand_e, defining_e), (_, hand_p, defining_p) in zip(
            the_systems(E, n), the_systems(P, n)):
        hand_e = [v for _, v in hand_e]
        hand_p = [v for _, v in hand_p]
        assert hand_e == embedded(E, hand_p), kind
        assert defining_e == embedded(E, defining_p), kind
        spans_e = la.keyed_spans(E, (hand_e, defining_e))
        spans_p = la.keyed_spans(P, (hand_p, defining_p))
        assert spans_e == [embedded(E, rows) for rows in spans_p], kind


def test_the_default_config_compares_once_per_prime_field(monkeypatch):
    seen = []
    keyed_spans = la.keyed_spans

    def counting(F, systems):
        seen.append(F)
        return keyed_spans(F, systems)

    monkeypatch.setattr(suites.la, "keyed_spans", counting)
    run = suites._SuiteRun(suites.RunConfig())
    assert suites._check_residuals_rb(run) == (True, None)
    assert suites._check_residuals_symmetry(run) == (True, None)
    # {Q, GF(3), GF(5)} x n = 2..4 x three systems; Q(i) reuses Q's
    assert len(seen) == 27
    assert sorted({repr(F) for F in seen}) == ["GF(3)", "GF(5)", "Q"]


@pytest.mark.parametrize("spec, name", [("qi", "Q(sqrt(-1))"),
                                        ("gf9", "GF(3)(sqrt(2))")])
def test_a_mutant_fails_over_an_extension_alone(monkeypatch, spec, name):
    monkeypatch.setattr(suites, "rb_residuals", perturbed(
        rb_residuals, "nn_s",
        lambda P, M, w, s: P.add(s, twice(P, apex_dot(P, M)))))
    ok, witness = run_check(suites._check_residuals_rb, fields=(spec,))
    assert not ok
    assert witness.startswith(f"operator residuals disagree at {name} n=2: ")


def test_a_failure_names_the_first_field_of_its_characteristic(monkeypatch):
    monkeypatch.setattr(suites, "automorphism_residuals", perturbed(
        automorphism_residuals, "nn_s",
        lambda P, M, s: P.sub(s, twice(P, apex_dot(P, M)))))
    ok, witness = run_check(suites._check_residuals_symmetry,
                            fields=("gf5", "qi", "q"))
    assert not ok and " at GF(5) n=2: " in witness
    ok, witness = run_check(suites._check_residuals_symmetry,
                            fields=("qi", "q", "gf3"))
    assert not ok and " at Q(sqrt(-1)) n=2: " in witness
