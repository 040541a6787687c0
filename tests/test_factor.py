import math

import numpy as np
import pytest

import eqkit.ea as ea
import eqkit.factor as factor
from eqkit.ea import certify_equiangular, triangular_equiangular
from eqkit.errors import (
    ComplexSpectrum,
    DegreeZero,
    InvalidAlpha,
    InvalidShape,
    MultiplicityUnsupported,
    NonRealRoots,
    NotSymmetric,
    OutOfRange,
    WrongSpectrum,
)
from eqkit.factor import (
    alpha_real_root_bound,
    build_poly,
    elementary_symmetric,
    equiangular_eigenvectors,
    nonreal_root_certificate,
    schur_equiangular,
    sdst_coefficients,
    sdst_factor,
    two_eigenvalue_factor,
)
from eqkit.gram import GramParams, gram_matrix, gram_principal_sqrt
from eqkit.kernel import poly_roots, spectral_norm, sym_eig


def _planted(n, alpha, eigvals, seed):
    """A = S diag(w) S^-1 with S = Q Shat, a known equiangular eigenbasis."""
    shat = triangular_equiangular(GramParams(n, alpha)).mat
    g = np.random.default_rng(seed).standard_normal((n, n))
    Q, r = np.linalg.qr(g)
    Q = Q * np.where(np.diag(r) < 0, -1.0, 1.0)
    S = Q @ shat
    return S @ np.diag(np.asarray(eigvals, dtype=float)) @ np.linalg.inv(S), S


# ---- polynomial machinery --------------------------------------------------


def test_elementary_symmetric():
    assert np.allclose(elementary_symmetric([1.0, 2.0, 3.0]), [1.0, 6.0, 11.0, 6.0])


def test_coefficients_at_zero_are_elementary():
    lam = [2.0, -1.0, 4.0, 0.5]
    assert np.allclose(sdst_coefficients(lam, 1e-15), elementary_symmetric(lam)[1:], atol=1e-10)


def test_coefficients_fixture_123():
    a = 0.3
    c = sdst_coefficients([1.0, 2.0, 3.0], a)
    assert np.allclose(c, [6.0, 11.0 / (1 - a * a), 6.0 / ((1 - a) ** 2 * (1 + 2 * a))])


def test_coefficients_equal_values_binomial():
    n, r, a = 5, 2.0, 0.4
    c = sdst_coefficients([r] * n, a)
    want = [math.comb(n, k) * r**k / ((1 - a) ** (k - 1) * (1 + (k - 1) * a)) for k in range(1, n + 1)]
    assert np.allclose(c, want)


def test_coefficients_alpha_range():
    with pytest.raises(InvalidAlpha):
        sdst_coefficients([1.0, 2.0], 1.0)
    with pytest.raises(InvalidAlpha):
        sdst_coefficients([1.0, 2.0], -0.2)


def test_build_poly_g2_fixture():
    p = build_poly([1.0, 1.0], 0.5)
    assert np.allclose(p.coeffs, [1.0, -2.0, 4.0 / 3.0])


def test_build_poly_alternating_signs():
    p = build_poly([1.0, 2.0, 3.0, 4.0], 0.1)
    signs = np.sign(p.coeffs)
    assert np.array_equal(signs, [1.0, -1.0, 1.0, -1.0, 1.0])


def test_build_poly_roots_evaluate_to_zero():
    p = build_poly([1.0, 2.0, 3.0], 0.1)
    for root in poly_roots(p.coeffs):
        assert abs(np.polyval(p.coeffs, root)) <= 1e-8


def test_coefficient_chain_against_determinant():
    # char poly of diag(d) G_alpha must be build_poly of its spectrum
    rng = np.random.default_rng(17)
    for n, alpha in [(3, 0.2), (5, 0.45)]:
        d = np.sort(rng.uniform(0.5, 3.0, n))
        lam = np.linalg.eigvals(np.diag(d) @ gram_matrix(GramParams(n, alpha)))
        assert np.abs(lam.imag).max() <= 1e-10
        p = build_poly(np.sort(lam.real), alpha)
        xs = np.linspace(-1.0, 4.0, 2 * n + 1)
        direct = [np.prod(x - d) for x in xs]
        assert np.abs(np.polyval(p.coeffs, xs) - direct).max() <= 1e-6


def test_nonreal_certificate_g2():
    assert nonreal_root_certificate(build_poly([1.0, 1.0], 0.5)) == 2


def test_nonreal_certificate_zero_alpha():
    assert nonreal_root_certificate(build_poly([1.0, 2.0, 3.0], 1e-15)) == 0


def test_nonreal_sweep_equal_values():
    for n in range(4, 9):
        for a in (0.1, 0.5, 0.9):
            assert nonreal_root_certificate(build_poly([1.0] * n, a)) >= 2


# ---- alpha_real_root_bound -------------------------------------------------


def test_bound_fixture_123():
    assert abs(alpha_real_root_bound([1.0, 2.0, 3.0]) - 0.1843) <= 5e-3


def test_bound_collapses_for_repeats():
    assert alpha_real_root_bound([1.0, 1.0, 2.0]) <= 1e-4


def test_bound_monotone_in_spread():
    wide = alpha_real_root_bound([1.0, 10.0, 100.0])
    tight = alpha_real_root_bound([1.0, 1.1, 1.2])
    assert abs(wide - 0.81342) <= 5e-4
    assert abs(tight - 0.03643) <= 5e-4
    assert wide > tight


def _reference_roots(lambdas, alpha: float) -> np.ndarray:
    """Snapped roots of ``build_poly(lambdas, alpha)`` by ``poly_roots``, which
    calls ``np.roots``; OutOfRange with the library's text if a coefficient overflows."""
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            coeffs = build_poly(lambdas, alpha).coeffs
        return poly_roots(coeffs)
    except ValueError as exc:  # poly_roots refuses NaN and Inf coefficients
        raise OutOfRange(f"factorization polynomial overflows float64 at alpha={alpha!r}") from exc


def _bound_reference(lambdas, tol: float = 1e-6, roots=_reference_roots) -> float:
    """The bisection with its first predicate: every tested cosine builds the
    polynomial anew and takes its roots with ``poly_roots``."""
    lambdas, _ = factor._poly_scale(lambdas)

    def all_real(a: float) -> bool:
        return not np.count_nonzero(roots(lambdas, a).imag)

    lo, hi = 1e-6, 1.0 - 1e-6
    if not all_real(lo):
        return 0.0
    if all_real(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if all_real(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _mixed_spectra(rng, sizes, count, zeros=0):
    """``count`` spectra of each size with random signs and magnitudes 1e-3..1e3,
    the first ``zeros`` entries set to zero."""
    out = []
    for n in sizes:
        for _ in range(count):
            lam = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
            lam[:zeros] = 0.0
            out.append(lam)
    return out


BOUND_FAMILIES = {
    "mixed_sign": lambda rng: _mixed_spectra(rng, range(2, 21), 30),
    "one_zero": lambda rng: _mixed_spectra(rng, range(3, 15), 5, zeros=1),
    "two_zeros": lambda rng: _mixed_spectra(rng, range(4, 16), 5, zeros=2),
    "rescaled_2_700": lambda rng: [2.0**700 * lam for lam in _mixed_spectra(rng, range(2, 12), 2)],
}


@pytest.mark.parametrize("family", sorted(BOUND_FAMILIES))
def test_bound_matches_reference_bitwise(rng, family):
    spectra = BOUND_FAMILIES[family](rng)
    assert len(spectra) >= 20
    for lam in spectra:
        assert alpha_real_root_bound(lam) == _bound_reference(lam), lam


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_bound_of_integer_spectrum_matches_reference(n):
    lam = np.arange(1.0, n + 1.0)
    bound = alpha_real_root_bound(lam)
    assert bound == _bound_reference(lam)
    # The monomial coefficients lose every digit by n = 32: the predicate
    # already fails at the smallest cosine (a false negative, ROADMAP item 1).
    assert (bound == 0.0) == (n == 32)


@pytest.mark.parametrize(
    "lam",
    [np.array([np.nan, 1.0]), 2.0 ** np.arange(60.0)],
    ids=["nan_at_first_cosine", "underflowing_denominator_at_last_cosine"],
)
def test_bound_overflow_raises_the_reference_text(lam):
    with pytest.raises(OutOfRange) as want:
        _bound_reference(lam)
    with pytest.raises(OutOfRange) as got:
        alpha_real_root_bound(lam)
    assert str(got.value) == str(want.value)


def test_bound_edge_spectra_match_reference():
    for lam in ([3.0], [0.0, 0.0], np.zeros(5), [1.0, 1.0], [-2.0, 2.0], [1.0, 0.0, -1.0]):
        assert alpha_real_root_bound(lam) == _bound_reference(lam), lam
    with pytest.raises(DegreeZero, match="degree >= 1"):
        alpha_real_root_bound([])


def test_bound_solves_the_np_roots_companion_at_the_reference_cosines(rng, monkeypatch):
    """Each eigenvalue solve gets, bit for bit, the companion matrix ``np.roots``
    builds for ``build_poly(lam, a)`` at each cosine the reference tests."""
    cosines, solved = [], []
    eigvals = np.linalg.eigvals

    def recorded(lam, a):
        cosines.append(a)
        return _reference_roots(lam, a)

    spectra = _mixed_spectra(rng, range(2, 13), 2) + _mixed_spectra(rng, range(3, 9), 2, zeros=2)
    for lam in spectra:
        cosines.clear()
        solved.clear()
        _bound_reference(lam, roots=recorded)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvals", lambda M: solved.append(M.copy()) or eigvals(M))
            alpha_real_root_bound(lam)
        assert len(solved) == len(cosines)
        for a, M in zip(cosines, solved):
            p = np.trim_zeros(build_poly(lam, a).coeffs, "b")  # as np.roots strips them
            want = np.diag(np.ones(p.size - 2), -1)
            want[0, :] = -p[1:] / p[0]
            assert M.dtype == want.dtype and M.tobytes() == want.tobytes()


def test_bound_forms_elementary_symmetric_once(monkeypatch):
    calls = []

    def counted(values):
        calls.append(1)
        return elementary_symmetric(values)

    monkeypatch.setattr(factor, "elementary_symmetric", counted)
    assert alpha_real_root_bound([1.0, 2.0, 3.0, 5.0]) > 0.0
    assert len(calls) == 1


# ---- two_eigenvalue_factor -------------------------------------------------


def test_two_eigenvalue_direct_case():
    r, S = two_eigenvalue_factor(np.diag([1.0, 1.0, 2.0]))
    assert abs(r - 4.0 / 3.0) <= 1e-12
    assert abs(S.alpha - 0.25) <= 1e-12
    assert np.abs(S.mat[2] - math.sqrt(0.5)).max() <= 1e-12
    assert np.linalg.norm(r * (S.mat @ S.mat.T) - np.diag([1.0, 1.0, 2.0]), 2) <= 1e-10


def test_two_eigenvalue_inverse_case():
    A = np.diag([2.0, 2.0, 1.0])
    r, S = two_eigenvalue_factor(A)
    assert r == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert S.alpha == pytest.approx(-0.2, abs=1e-12)
    assert np.linalg.norm(r * (S.mat @ S.mat.T) - A, 2) <= 1e-10


def test_two_eigenvalue_negative_spectrum():
    A = np.diag([-1.0, -1.0, -2.0])
    r, S = two_eigenvalue_factor(A)
    assert r < 0
    assert np.linalg.norm(r * (S.mat @ S.mat.T) - A, 2) <= 1e-10


def test_two_eigenvalue_rotated_input(rng):
    g = rng.standard_normal((5, 5))
    Q, _ = np.linalg.qr(g)
    A = Q @ np.diag([3.0, 3.0, 3.0, 3.0, 7.0]) @ Q.T
    r, S = two_eigenvalue_factor(A)
    assert np.linalg.norm(r * (S.mat @ S.mat.T) - A, 2) <= 1e-8 * np.linalg.norm(A, 2)
    assert certify_equiangular(S, tol=1e-8) == pytest.approx(S.alpha, abs=1e-8)


@pytest.mark.parametrize(
    "diag",
    [
        [3.0, 3.0, 3.0],       # one distinct value
        [1.0, 1.0, -2.0],      # mixed signs
        [1.0, 2.0, 3.0],       # three distinct values
        [0.0, 1.0, 1.0],       # singular
        [1.0, 1.0, 2.0, 2.0],  # (2,2) multiplicities
    ],
)
def test_two_eigenvalue_rejections(diag):
    with pytest.raises(WrongSpectrum):
        two_eigenvalue_factor(np.diag(diag))


# ---- sdst_factor -----------------------------------------------------------


def test_sdst_fixture_123():
    A = np.diag([1.0, 2.0, 3.0])
    f = sdst_factor(A, 0.1)
    assert f.residual <= 1e-8
    assert abs(f.D.sum() - 6.0) <= 1e-10
    assert np.linalg.norm(f.S.mat @ np.diag(f.D) @ f.S.mat.T - A, 2) <= 1e-8
    assert certify_equiangular(f.S, tol=1e-8) == pytest.approx(0.1, abs=1e-8)


def test_sdst_routes_two_value_spectrum_to_closed_form():
    with pytest.raises(MultiplicityUnsupported, match="two_eigenvalue_factor"):
        sdst_factor(np.diag([1.0, 1.0, 2.0]), 0.2)


def test_sdst_rejects_scaled_identity():
    for a in (0.1, 0.5, 0.9):
        with pytest.raises(NonRealRoots):
            sdst_factor(3.0 * np.eye(4), a)


def test_sdst_rejects_zero_one_one():
    with pytest.raises((NonRealRoots, MultiplicityUnsupported)):
        sdst_factor(np.diag([0.0, 1.0, 1.0]), 0.3)


def test_sdst_zero_eigenvalues_extension(rng):
    # up to n-2 zeros ride along via the EA block extension
    for spectrum, alpha in [
        ([0.0, 0.0, 1.0, 2.0, 3.5], 0.12),
        ([0.0, 0.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0], 0.05),
    ]:
        n, n_zero = len(spectrum), spectrum.count(0.0)
        g = rng.standard_normal((n, n))
        Q, _ = np.linalg.qr(g)
        A = Q @ np.diag(spectrum) @ Q.T
        f = sdst_factor(A, alpha)
        assert f.residual <= 1e-8 * np.linalg.norm(A, 2)
        assert np.sort(f.D)[:n_zero] == pytest.approx([0.0] * n_zero, abs=1e-9)
        assert certify_equiangular(f.S, tol=1e-8) == pytest.approx(alpha, abs=1e-8)


def test_sdst_zero_eigenvalues_take_one_2_norm(rng, monkeypatch):
    """The SR extension of the zero-eigenvalue block reads no SR residual, so
    the only 2-norm is the one of the factorization's own residual."""
    calls = []

    def counted(X):
        calls.append(X.shape)
        return spectral_norm(X)

    monkeypatch.setattr(ea, "spectral_norm", counted)
    monkeypatch.setattr(factor, "spectral_norm", counted)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    A = Q @ np.diag([0.0, 0.0, 1.0, 2.0, 3.5]) @ Q.T
    f = sdst_factor(A, 0.12)
    assert calls == [(5, 5)]
    assert f.residual <= 1e-8 * np.linalg.norm(A, 2)


def test_sdst_spectrum_past_overflow(rng):
    """e_k(lambda) overflows at 2**700 lambda; the polynomial is built on a
    power-of-two rescaled spectrum and d scales back."""
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    lam = np.array([1.0, 2.0, 3.0, 5.0])
    A = Q @ np.diag(lam) @ Q.T
    f, g = sdst_factor(A, 0.05), sdst_factor(A * 2.0**700, 0.05)
    assert g.D / 2.0**700 == pytest.approx(f.D, rel=1e-12)
    assert g.residual <= 1e-12 * 5.0 * 2.0**700
    assert alpha_real_root_bound(lam * 2.0**700) == pytest.approx(alpha_real_root_bound(lam), abs=1e-6)
    # (1 - alpha)^59 underflows: the polynomial is not representable at all.
    with pytest.raises(OutOfRange):
        sdst_factor(np.diag(np.arange(1.0, 61.0)), 1.0 - 1e-8)


def _sdst_reference(A, alpha):
    """(S, D, residual) of ``sdst_factor`` for an A it accepts, by its earlier
    route: d from ``_reference_roots`` and the zero-eigenvalue extension from
    ``sr_decompose``; NonRealRoots and OutOfRange with the same texts."""
    Q, w = sym_eig(A)
    n = w.size
    scale = max(1.0, float(np.max(np.abs(w))))
    zero = np.abs(w) <= factor.CLUSTER_RTOL * scale
    lam = w[~zero]
    m, n_zero = lam.size, n - lam.size
    lam_poly, s = factor._poly_scale(lam)
    roots = _reference_roots(lam_poly, alpha)
    if np.any(roots.imag != 0.0):
        raise NonRealRoots(f"{int(np.count_nonzero(roots.imag != 0))} non-real roots at alpha={alpha!r}")
    d = np.sort(roots.real) * s
    sbar = GramParams(m, alpha).operator.sqrt()
    Qm, mu = sym_eig(sbar.right_multiply(sbar.left_multiply(np.diag(d))))
    if float(np.max(np.abs(np.sort(mu) - np.sort(lam)))) > 1e-7 * scale:
        raise NonRealRoots("recovered spectrum does not match the target within 1e-7")
    S = sbar.right_multiply(factor._fix_column_signs(Qm).T)
    if n_zero:
        B = np.eye(n)
        B[:m, :m] = S
        S = ea.sr_decompose(B, math.acos(alpha)).S.mat
    d_full = np.concatenate([d, np.zeros(n_zero)])
    S_out = Q[:, np.concatenate([np.flatnonzero(~zero), np.flatnonzero(zero)])] @ S
    return S_out, d_full, spectral_norm((S_out * d_full) @ S_out.T - A)


def _sdst_outcome(factorize, A, alpha):
    """The bytes of (S, D, residual), or the type and text of the refusal."""
    try:
        out = factorize(A, alpha)
    except (NonRealRoots, OutOfRange, MultiplicityUnsupported) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, factor.SDSTFactorization):
        out = (out.S.mat, out.D, out.residual)
    return tuple(np.asarray(x).tobytes() for x in out)


def _rotated(rng, lam):
    Q, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


SDST_COSINES = (1e-4, 1e-2, 0.1, 0.3)


@pytest.mark.parametrize("family", sorted(BOUND_FAMILIES))
def test_sdst_matches_the_np_roots_reference_bitwise(rng, family):
    kinds = []
    for lam in BOUND_FAMILIES[family](rng):
        A = _rotated(rng, lam)
        for a in SDST_COSINES:
            got = _sdst_outcome(sdst_factor, A, a)
            kinds.append(got[0] if isinstance(got[0], str) else "factored")
            if got[0] == "MultiplicityUnsupported":  # refused before any root is taken
                continue
            assert got == _sdst_outcome(_sdst_reference, A, a), (lam, a)
    assert kinds.count("factored") >= 10 and kinds.count("NonRealRoots") >= 10


def test_sdst_overflow_matches_the_np_roots_reference():
    A = np.diag(np.arange(1.0, 61.0))
    got = _sdst_outcome(sdst_factor, A, 1.0 - 1e-8)
    assert got[0] == "OutOfRange"
    assert got == _sdst_outcome(_sdst_reference, A, 1.0 - 1e-8)


@pytest.mark.parametrize("n", [4, 5, 7, 9])
def test_sdst_zero_eigenvalues_match_the_sr_decompose_route(rng, n):
    """The extension forms S alone; it has the bits of ``sr_decompose``'s S."""
    for n_zero in range(1, n - 1):
        lam = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 4.0, n)
        lam[:n_zero] = 0.0
        a = 0.5 * alpha_real_root_bound(lam[n_zero:])
        A = _rotated(rng, lam)
        got = _sdst_outcome(sdst_factor, A, a)
        assert not isinstance(got[0], str), (lam, got)
        assert got == _sdst_outcome(_sdst_reference, A, a), lam


def test_sdst_never_calls_np_roots(rng, monkeypatch):
    def refuse(p):
        raise AssertionError("np.roots called")

    monkeypatch.setattr(np, "roots", refuse)
    for lam, a in [
        (np.array([1.0, 2.0, 3.0]), 0.1),
        (np.array([0.0, 0.0, 1.0, 2.0, 3.5]), 0.12),
        (2.0**700 * np.array([1.0, 2.0, 3.0, 5.0]), 0.05),
    ]:
        f = sdst_factor(_rotated(rng, lam), a)
        assert f.residual <= 1e-8 * np.abs(lam).max()
    with pytest.raises(NonRealRoots, match="non-real roots"):
        sdst_factor(3.0 * np.eye(4), 0.5)
    with pytest.raises(OutOfRange):
        sdst_factor(np.diag(np.arange(1.0, 61.0)), 1.0 - 1e-8)


def test_sdst_too_many_zeros():
    with pytest.raises(MultiplicityUnsupported):
        sdst_factor(np.diag([0.0, 0.0, 1.0]), 0.1)


def test_sdst_alpha_validation():
    with pytest.raises(InvalidAlpha):
        sdst_factor(np.diag([1.0, 2.0]), 0.0)
    with pytest.raises(InvalidAlpha):
        sdst_factor(np.diag([1.0, 2.0]), -0.3)


@pytest.mark.parametrize("n", [0, 1])
def test_sdst_needs_two_columns(n):
    # Not MultiplicityUnsupported: a 1 x 1 or 0 x 0 A has no zero eigenvalue to blame.
    with pytest.raises(InvalidShape, match=f"needs n >= 2 columns, got a {n} x {n} matrix"):
        sdst_factor(2.0 * np.eye(n), 0.1)


def test_sdst_needs_symmetry():
    with pytest.raises(NotSymmetric):
        sdst_factor(np.array([[1.0, 1.0], [0.0, 2.0]]), 0.1)


def test_sdst_random_distinct_spectra(rng):
    done = 0
    while done < 8:
        n = int(rng.integers(3, 7))
        lam = np.sort(rng.uniform(0.5, 4.0, n))
        if np.min(np.diff(lam)) < 0.2:
            continue
        g = rng.standard_normal((n, n))
        Q, _ = np.linalg.qr(g)
        A = Q @ np.diag(lam) @ Q.T
        alpha = min(0.05, 0.5 * alpha_real_root_bound(lam))
        f = sdst_factor(A, alpha)
        assert f.residual <= 1e-7 * np.linalg.norm(A, 2)
        assert abs(f.D.sum() - lam.sum()) <= 1e-8
        done += 1


def test_counterexample_spectra_have_no_real_factorization():
    # k equal values with 2 <= k <= n-2: polynomial goes complex or the
    # reconstructed spectrum misses the target; sdst_factor refuses either way
    rng = np.random.default_rng(3)
    for n in (4, 5, 6):
        for k in range(2, n - 1):
            rest = list(2.0 + np.arange(n - k))
            lam = np.array([1.0] * k + rest)
            for a in (0.05, 0.1, 0.2):
                with pytest.raises((NonRealRoots, MultiplicityUnsupported)):
                    sdst_factor(np.diag(lam), a)
                p = build_poly(lam, a)
                roots = poly_roots(p.coeffs)
                if np.any(roots.imag != 0.0):
                    continue
                _, sbar = gram_principal_sqrt(GramParams(n, a))
                M = sbar @ np.diag(np.sort(roots.real)) @ sbar
                mu = np.sort(np.linalg.eigvalsh(M))
                assert np.abs(mu - np.sort(lam)).max() > 1e-7


# ---- similarity forms ------------------------------------------------------


def test_schur_equiangular_round_trip(rng):
    pytest.importorskip("scipy")
    A = rng.standard_normal((6, 6))
    S, T = schur_equiangular(A, 0.3)
    inv = np.linalg.inv(S.mat)
    assert np.linalg.norm(S.mat @ T @ inv - A, 2) <= 1e-8 * np.linalg.norm(A, 2)
    # quasi-triangular: nothing below the first subdiagonal
    assert np.allclose(np.tril(T, -2), 0.0)


def test_schur_equiangular_takes_no_2_norm(rng, monkeypatch):
    pytest.importorskip("scipy")
    def refuse(*args):
        raise AssertionError("dense 2-norm computed")

    monkeypatch.setattr(ea, "spectral_norm", refuse)
    A = rng.standard_normal((6, 6))
    S, T = schur_equiangular(A, 0.3)
    assert np.abs(S.mat @ T - A @ S.mat).max() <= 1e-8 * np.abs(A).max()


def test_schur_equiangular_symmetric_is_triangular(rng):
    pytest.importorskip("scipy")
    lam = [1.0, 4.0, 9.0]
    g = rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(g)
    A = Q @ np.diag(lam) @ Q.T
    S, T = schur_equiangular(A, 0.25)
    assert np.allclose(np.tril(T, -1), 0.0)
    assert np.allclose(np.sort(np.diag(T)), lam, atol=1e-9)


def test_schur_equiangular_keeps_rotation_block():
    pytest.importorskip("scipy")
    A = np.array([[0.0, -2.0], [2.0, 0.0]])
    S, T = schur_equiangular(A, 0.4)
    assert abs(T[1, 0]) > 1e-6  # the complex pair's 2x2 block survives
    assert np.linalg.norm(S.mat @ T @ np.linalg.inv(S.mat) - A, 2) <= 1e-8


def test_eigenvector_recovery_round_trip():
    for n, seed, planted in [(3, 0, 0.4), (4, 1, 0.4), (6, 2, 0.4), (8, 3, 0.01), (8, 5, 0.95)]:
        A, _ = _planted(n, planted, np.arange(1.0, n + 1.0), seed)
        out = equiangular_eigenvectors(A)
        assert out is not None
        alpha, V = out
        assert abs(alpha - planted) <= 1e-6
        w = np.arange(1.0, n + 1.0)
        for i in range(n):
            assert np.linalg.norm(A @ V.mat[:, i] - w[i] * V.mat[:, i]) <= 1e-7 * n
        assert certify_equiangular(V, tol=1e-6) is not None


def test_eigenvector_recovery_other_alpha():
    A, _ = _planted(5, 0.15, [2.0, 3.0, 5.0, 7.0, 11.0], 4)
    out = equiangular_eigenvectors(A)
    assert out is not None and abs(out[0] - 0.15) <= 1e-6


def test_symmetric_matrix_has_no_equiangular_eigenbasis(rng):
    g = rng.standard_normal((4, 4))
    Q, _ = np.linalg.qr(g)
    A = Q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ Q.T
    assert equiangular_eigenvectors(A) is None


def test_scalar_matrix_branch():
    out = equiangular_eigenvectors(3.0 * np.eye(4))
    assert out is not None
    alpha, V = out
    assert alpha == 0.5
    assert certify_equiangular(V, tol=1e-10) == pytest.approx(0.5, abs=1e-10)


def test_complex_spectrum_rejected():
    with pytest.raises(ComplexSpectrum):
        equiangular_eigenvectors(np.array([[0.0, -1.0], [1.0, 0.0]]))
