import math

import numpy as np
import pytest

from eqkit.errors import InvalidAlpha
from eqkit.gram import (
    GramParams,
    Structured,
    dual_params,
    gram_condition,
    gram_eigenvalues,
    gram_inverse,
    gram_matrix,
    gram_principal_sqrt,
    gram_sqrt_inverse,
    gram_sqrt_variants,
)
from eqkit.kernel import generic_inverse, spectral_norm, sym_eig

try:
    from hypothesis import assume, given
    from hypothesis import strategies as st
except ImportError:  # the fixed oracle sweep still runs
    given = None


def test_gram_matrix_half():
    G = gram_matrix(GramParams(3, 0.5))
    assert np.array_equal(G, [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]])


def test_gram_matrix_zero_is_identity():
    assert np.array_equal(gram_matrix(GramParams(4, 0.0)), np.eye(4))


def test_gram_matrix_obtuse_positive_definite():
    G = gram_matrix(GramParams(3, -0.4))
    assert np.allclose(G[~np.eye(3, dtype=bool)], -0.4)
    _, lam = sym_eig(G)
    assert lam[0] == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("n,alpha", [(3, 1.0), (3, -0.5), (2, -1.0), (5, 1.2), (4, float("nan"))])
def test_params_rejected(n, alpha):
    with pytest.raises(InvalidAlpha):
        GramParams(n, alpha)


def test_params_boundary_tolerance():
    # within 1e-9 of either end is rejected as well
    with pytest.raises(InvalidAlpha):
        GramParams(3, 1.0 - 1e-12)
    with pytest.raises(InvalidAlpha):
        GramParams(3, -0.5 + 1e-12)
    GramParams(3, 1.0 - 1e-6)  # comfortably inside


@pytest.mark.parametrize(
    "n,alpha,expect",
    [(3, 0.5, (0.5, 2.0)), (6, 0.0, (1.0, 1.0)), (5, -0.2, (1.2, 0.2))],
)
def test_eigenvalues_closed_form(n, alpha, expect):
    assert gram_eigenvalues(GramParams(n, alpha)) == pytest.approx(expect, abs=1e-14)


def test_eigenvalues_match_dense_solver(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        alpha = float(rng.uniform(-1.0 / (n - 1) + 0.01, 0.99))
        small, large = gram_eigenvalues(GramParams(n, alpha))
        _, lam = sym_eig(gram_matrix(GramParams(n, alpha)))
        assert np.abs(np.sort(lam) - np.sort(np.r_[[small] * (n - 1), large])).max() <= 1e-10


@pytest.mark.parametrize(
    "n,alpha,beta,aprime",
    [(5, 0.0, 1.0, 0.0), (2, 0.5, 4.0 / 3.0, -0.5), (4, 0.5, 1.6, -0.25)],
)
def test_dual_params(n, alpha, beta, aprime):
    d = dual_params(GramParams(n, alpha))
    assert d.beta == pytest.approx(beta, abs=1e-14)
    assert d.alpha_prime == pytest.approx(aprime, abs=1e-14)


def test_dual_params_against_direct_inverse():
    # beta * G_{alpha'} must literally be the inverse of G_alpha
    for n, alpha in [(2, 0.5), (4, 0.5), (7, -0.1), (3, 0.9)]:
        d = dual_params(GramParams(n, alpha))
        G = gram_matrix(GramParams(n, alpha))
        inv = d.beta * gram_matrix(GramParams(n, d.alpha_prime))
        assert np.abs(inv - np.linalg.inv(G)).max() <= 1e-12


def test_gram_inverse_identity_at_zero():
    assert np.allclose(gram_inverse(GramParams(6, 0.0)), np.eye(6))


def test_gram_inverse_two_by_two():
    inv = gram_inverse(GramParams(2, 0.5))
    assert np.allclose(inv, (4.0 / 3.0) * np.array([[1, -0.5], [-0.5, 1]]))
    assert np.allclose(inv @ gram_matrix(GramParams(2, 0.5)), np.eye(2))


def test_gram_inverse_matches_generic():
    p = GramParams(6, 0.9)
    assert np.abs(gram_inverse(p) - generic_inverse(gram_matrix(p))).max() <= 1e-10


def test_gram_inverse_product_sweep(rng):
    for _ in range(25):
        n = int(rng.integers(2, 30))
        alpha = float(rng.uniform(-1.0 / (n - 1) + 0.01, 0.99))
        p = GramParams(n, alpha)
        res = np.linalg.norm(gram_matrix(p) @ gram_inverse(p) - np.eye(n), 2)
        assert res <= 1e-11 * n


def test_principal_sqrt_fixture():
    sp, S = gram_principal_sqrt(GramParams(3, 0.5))
    assert abs(sp.s - 0.9428) <= 1.5e-4 and abs(sp.t - 0.2357) <= 1.5e-4
    assert np.abs(np.diag(S) - 0.9428).max() <= 1.5e-4
    assert np.abs(S[~np.eye(3, dtype=bool)] - 0.2357).max() <= 1.5e-4


def test_principal_sqrt_zero_alpha():
    sp, S = gram_principal_sqrt(GramParams(5, 0.0))
    assert sp.s == pytest.approx(1.0) and sp.t == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(S, np.eye(5))


def test_principal_sqrt_squares_to_gram():
    p = GramParams(4, 0.3)
    _, S = gram_principal_sqrt(p)
    assert np.linalg.norm(S @ S - gram_matrix(p), 2) <= 1e-12
    _, lam = sym_eig(S)
    assert lam[0] > 0


def test_sqrt_eigenvalue_structure(rng):
    # spectrum of (s-t)I + t ee^T is {s-t (n-1 times), s+(n-1)t}
    for _ in range(10):
        n = int(rng.integers(2, 10))
        alpha = float(rng.uniform(-1.0 / (n - 1) + 0.01, 0.99))
        sp, S = gram_principal_sqrt(GramParams(n, alpha))
        _, lam = sym_eig(S)
        want = np.sort(np.r_[[sp.s - sp.t] * (n - 1), sp.s + (n - 1) * sp.t])
        assert np.abs(lam - want).max() <= 1e-10


def test_variants_fixture():
    v = gram_sqrt_variants(GramParams(3, 0.5))
    assert len(v) == 2
    M = v[1].dense(3)
    assert np.abs(np.diag(M)).max() <= 1e-12
    assert np.abs(M[~np.eye(3, dtype=bool)] - 0.7071).max() <= 1.5e-4
    _, lam = sym_eig(M)
    assert np.allclose(lam, [-0.7071, -0.7071, 1.4142], atol=1.5e-4)
    assert np.linalg.norm(M @ M - gram_matrix(GramParams(3, 0.5)), 2) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_variant_zero_diagonal_rule(n):
    # s vanishes exactly at alpha = (n-2)/(n-1); off-diagonal becomes 1/sqrt(n-1)
    alpha = (n - 2.0) / (n - 1.0)
    v = gram_sqrt_variants(GramParams(n, alpha))
    assert abs(v[1].s) <= 1e-12
    assert v[1].t == pytest.approx(1.0 / math.sqrt(n - 1.0), abs=1e-12)


def test_variants_param_invariants(rng):
    for _ in range(15):
        n = int(rng.integers(2, 9))
        alpha = float(rng.uniform(-1.0 / (n - 1) + 0.01, 0.99))
        for sp in gram_sqrt_variants(GramParams(n, alpha)):
            assert abs(sp.s**2 + (n - 1) * sp.t**2 - 1.0) <= 1e-12
            assert abs(2 * sp.t * sp.s + (n - 2) * sp.t**2 - alpha) <= 1e-12


def test_variants_at_zero():
    v = gram_sqrt_variants(GramParams(4, 0.0))
    assert v[0].s == pytest.approx(1.0) and v[0].t == pytest.approx(0.0, abs=1e-15)
    for sp in v[1:]:
        # any further real root must still square to the identity
        M = sp.dense(4)
        assert np.allclose(M @ M, np.eye(4), atol=1e-12)


def test_sqrt_inverse_closed_form(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        alpha = float(rng.uniform(-1.0 / (n - 1) + 0.01, 0.99))
        p = GramParams(n, alpha)
        _, S = gram_principal_sqrt(p)
        assert np.abs(gram_sqrt_inverse(p) - np.linalg.inv(S)).max() <= 1e-10


@pytest.mark.parametrize(
    "n,alpha,expect",
    [(9, 0.0, 1.0), (3, 0.5, 2.0), (4, -0.2, math.sqrt(3.0))],
)
def test_condition_closed_form(n, alpha, expect):
    assert gram_condition(GramParams(n, alpha)) == pytest.approx(expect, rel=1e-12)


def test_condition_equals_eigen_ratio():
    for n, alpha in [(3, 0.5), (4, -0.2), (10, 0.85), (6, -0.15)]:
        small, large = gram_eigenvalues(GramParams(n, alpha))
        lo, hi = sorted((small, large))
        assert gram_condition(GramParams(n, alpha)) == pytest.approx(math.sqrt(hi / lo), rel=1e-12)


def test_condition_matches_operator_norms(rng):
    # kappa_2 of any S in EM_alpha is fixed by the Gram spectrum alone
    from eqkit.ea import random_equiangular

    for n, alpha in [(5, 0.4), (6, -0.12)]:
        S = random_equiangular(n, alpha, rng=rng).mat
        kappa = spectral_norm(S) * spectral_norm(generic_inverse(S))
        assert abs(gram_condition(GramParams(n, alpha)) - kappa) <= 1e-6 * kappa


# ---- the structured operator ---------------------------------------------------


@pytest.mark.parametrize("n,alpha", [(2, 0.5), (5, -0.2), (7, 0.9), (64, 0.3)])
def test_operator_products_match_its_dense_matrix(n, alpha, rng):
    G = GramParams(n, alpha).operator
    X = rng.standard_normal((n, n))
    for op in (G, G.inverse(), G.sqrt(), G.sqrt(-1), G.sqrt().inverse()):
        M = op.dense()
        assert np.abs(op.left_multiply(X) - M @ X).max() <= 1e-13 * n
        assert np.abs(op.right_multiply(X) - X @ M).max() <= 1e-13 * n
        lo, hi = np.linalg.eigvalsh(M)[[0, -1]]
        assert sorted(op.eigenvalues) == pytest.approx([lo, hi], rel=1e-12, abs=1e-13)
    assert np.abs(G.inverse().dense() @ G.dense() - np.eye(n)).max() <= 1e-12 * n
    for root in (G.sqrt(), G.sqrt(-1)):
        assert np.abs(root.dense() @ root.dense() - G.dense()).max() <= 1e-12 * n


@pytest.mark.parametrize("k", [1, 2, 5])
def test_subtract_from_is_the_dense_difference_bit_for_bit(k, rng):
    G = GramParams(5, 0.3).operator
    X = rng.standard_normal((k, k))
    want = X - G.dense(k)  # the leading k x k block of G
    got = G.subtract_from(X)
    assert got is X and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_gram_operator_has_an_exact_unit_diagonal():
    for n, alpha in [(3, 0.1), (64, -1.0 / 63 + 2e-9), (300, 1e-15)]:
        G = GramParams(n, alpha).operator
        assert G.s == 1.0 and G.t == alpha
        assert np.all(np.diag(gram_matrix(GramParams(n, alpha))) == 1.0)


def test_no_caller_builds_a_member_it_does_not_return(monkeypatch, tmp_path, capsys):
    from eqkit.cli import main
    from eqkit.ea import polar_orthogonal_factor, random_equiangular
    from eqkit.factor import sdst_factor, two_eigenvalue_factor
    from eqkit.io import write_matrix
    from eqkit.spectral import fast_inverse

    def refuse(*args):
        raise AssertionError("an n x n member of span{I, ee^T} was built")

    monkeypatch.setattr(Structured, "dense", refuse)
    S = random_equiangular(6, 0.3, np.random.default_rng(1))
    polar_orthogonal_factor(S)
    fast_inverse(S)
    two_eigenvalue_factor(np.diag([1.0, 1.0, 2.0]))
    two_eigenvalue_factor(np.diag([2.0, 2.0, 1.0]))
    sdst_factor(np.diag([1.0, 2.0, 3.0]), 0.1)
    sdst_factor(np.diag([0.0, 1.0, 2.0, 3.0]), 0.1)
    for name, A in [("a.csv", np.random.default_rng(2).standard_normal((5, 5))), ("one.csv", [[-2.5]])]:
        write_matrix(tmp_path / name, A)
        assert main(["dea", str(tmp_path / name), "--alpha", "0.25", "--out", f"{tmp_path}/o_"]) == 0
    capsys.readouterr()
    with pytest.raises(AssertionError, match="was built"):
        gram_matrix(GramParams(3, 0.5))  # the contract functions still reach the builder



# ---- a 50-digit oracle for the root and inverse parameters -----------------------
#
# Every parameter is built from 1 - alpha and 1 + (n-1) alpha, each rounded once,
# by square roots, products, quotients and sums whose terms either share a sign
# or are at most twice the result.  Counting one rounding u = eps/2 per operation
# and each input's error through, to first order, gives the bound in units of u
# that each is held to relative to the exact value at the float alpha:
#   the eigenvalues 1 - alpha and 1 + (n-1) alpha themselves: 1 each;
#   r, q = sqrt(1 - alpha), sqrt(1 + (n-1) alpha): 1.5 each;
#   root.t = alpha / (q + r): 3.5;  root.s = r + root.t: 2 * 1.5 + 3.5 + 1 = 7.5;
#   root_inverse.t = -root.t / (r q): 8.5;  root_inverse.s = 1/r + that: 2 * 2.5 + 8.5 + 1 = 14.5;
#   t of G^-1 = -alpha / (rep simple): 4;  beta = 1/rep + that: 2 * 2 + 4 + 1 = 9;
#   alpha_prime = (t of G^-1) / beta: 14;  flipped.t = (q + r) / n: 3.5.
# The diagonal of the sign-flipped root, t - r with t = flipped.t, is a difference
# that vanishes at alpha = (n-2)/(n-1), so it is held to an absolute bound
# FLIPPED_C * u * (r + t), that is FLIPPED_C * cond * u relative with
# cond = (r + t) / |t - r|: 1.5 u in r, 3.5 u in t, and u in the difference.

U = np.finfo(float).eps / 2
BOUND_U = {"rep": 1.0, "simple": 1.0, "root.t": 3.5, "root.s": 7.5, "root_inverse.t": 8.5, "root_inverse.s": 14.5,
           "beta": 9.0, "alpha_prime": 14.0, "flipped.t": 3.5}
FLIPPED_C = 5.0
ORACLE_NS = (2, 4, 64, 4096)


def oracle_params(n, alpha):
    """The exact parameters at the float alpha, to 50 digits, and sqrt(1 - alpha)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        r, q = mpmath.sqrt(1 - a), mpmath.sqrt(1 + (n - 1) * a)
        t, t_inv = (q - r) / n, (1 / q - 1 / r) / n
        d2 = 1 + (n - 2) * a
        return {
            "rep": 1 - a, "simple": 1 + (n - 1) * a, "root.t": t, "root.s": r + t,
            "root_inverse.t": t_inv, "root_inverse.s": 1 / r + t_inv,
            "beta": d2 / ((1 - a) * (1 + (n - 1) * a)), "alpha_prime": -a / d2,
            "flipped.t": (q + r) / n,
        }, r


def assert_matches_oracle(n, alpha):
    p = GramParams(n, alpha)
    root, flipped = gram_sqrt_variants(p)
    d = dual_params(p)
    got = {
        "rep": gram_eigenvalues(p)[0], "simple": gram_eigenvalues(p)[1], "root.t": root.t, "root.s": root.s,
        "root_inverse.t": root.inverse().t, "root_inverse.s": root.inverse().s,
        "beta": d.beta, "alpha_prime": d.alpha_prime, "flipped.t": flipped.t,
    }
    want, r = oracle_params(n, alpha)
    for name, value in got.items():
        exact = want[name]
        if exact == 0:
            assert value == 0.0, (name, n, alpha)
        else:
            err = abs((value - exact) / exact)
            assert err <= BOUND_U[name] * U, (name, n, alpha, float(err / U))
    t = want["flipped.t"]
    assert abs(flipped.s - (t - r)) <= FLIPPED_C * U * (r + t), (n, alpha)


def oracle_cosines(n):
    """|alpha| from 1e-15 up, both signs, and alpha close to either end of (-1/(n-1), 1)."""
    small = [m * 10.0**-k for k in range(1, 16) for m in (1.0, 3.7)]
    margins = [1.5e-9, 2e-9, 1e-8, 1e-6, 1e-3]
    ends = [1.0 - m for m in margins] + [-1.0 / (n - 1) + m for m in margins]
    return [a for a in small + [-a for a in small] + ends + [0.0, 0.5, (n - 2.0) / (n - 1.0)]
            if min(1.0 - a, a + 1.0 / (n - 1)) > 1e-9]


@pytest.mark.parametrize("n", ORACLE_NS)
def test_oracle_root_and_inverse_parameters(n):
    for alpha in oracle_cosines(n):
        assert_matches_oracle(n, alpha)


def test_oracle_cancellation_cases_from_the_old_forms():
    # (sqrt(1+(n-1)a) - sqrt(1-a))/n lost up to 9e-5 of t and t' here.
    for n, alpha in [(4, 1e-12), (4, -1e-12), (4096, 1e-15), (4, 1e-8)]:
        assert_matches_oracle(n, alpha)


if given is not None:

    @st.composite
    def gram_cases(draw):
        n = draw(st.sampled_from(ORACLE_NS))
        x = draw(st.floats(-15.0, -0.0))
        alpha = draw(st.sampled_from([
            10.0**x, -(10.0**x), 1.0 - 10.0**max(x, -8.9), -1.0 / (n - 1) + 10.0**max(x, -8.9),
        ]))
        assume(min(1.0 - alpha, alpha + 1.0 / (n - 1)) > 1e-9)
        return n, alpha

    @given(gram_cases())
    def test_oracle_root_and_inverse_parameters_drawn(case):
        assert_matches_oracle(*case)
