import math

import numpy as np
import pytest

import eqkit.ea as ea
import eqkit.factor as factor
import eqkit.kernel as kernel
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


def _poly_scale_reference(lambdas) -> tuple[np.ndarray, float]:
    """``lambdas / s`` and s by the earlier two-step rule: an exponent bound,
    then a look at e_k only when that bound allows an overflow."""
    lam = np.asarray(lambdas, dtype=float)
    n = lam.size
    e = math.frexp(float(np.abs(lam).max()))[1] if n else 0
    # e_k < C(n, k) 2^(e k) <= 2^(n (1 + max(e, 0))), so most spectra need no look at e_k.
    if n * (1 + max(e, 0)) < 1000:
        return lam, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(elementary_symmetric(lam)).all():
            return lam, 1.0
    s = math.ldexp(1.0, e)
    return lam / s, s


def _bound_reference(lambdas, tol: float = 1e-6, roots=_reference_roots) -> float:
    """The bisection with its first predicate: every tested cosine builds the
    polynomial anew and takes its roots with ``poly_roots``."""
    lambdas, _ = _poly_scale_reference(lambdas)

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


OVERFLOW_SPECTRA = [
    2.0**700 * np.array([1.0, 2.0, 3.0, 5.0]),
    np.array([1e300, -1e300, 1e300]),  # e_k goes to -inf, then inf - inf
    1e150 * np.arange(1.0, 14.0),
    2.0**-400 * np.arange(1.0, 14.0),  # tiny: no overflow, s stays 1
    np.full(500, 1.5),  # past the earlier exponent bound, yet every e_k is finite
]


@pytest.mark.parametrize("family", sorted(BOUND_FAMILIES) + ["overflow"])
def test_root_solver_scale_matches_the_two_step_rule(rng, family):
    spectra = OVERFLOW_SPECTRA if family == "overflow" else BOUND_FAMILIES[family](rng)
    scales = []
    for lam in spectra:
        s = math.ldexp(1.0, factor._root_solver(lam)[0])  # the solver returns the exponent of s
        assert s == _poly_scale_reference(lam)[1], lam
        scales.append(s)
    assert (family in ("overflow", "rescaled_2_700")) == any(s != 1.0 for s in scales)


def _clusters_reference(values, scale):
    """The earlier loop: group ascending values into equal-within-tolerance runs."""
    groups = []
    tol = factor.CLUSTER_RTOL * scale
    for v in values:
        if groups and abs(v - groups[-1][-1]) <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_clusters_match_the_loop(rng, scale):
    tol = factor.CLUSTER_RTOL * scale
    above = np.nextafter(tol, np.inf)
    spectra = [np.array([0.0, tol]), np.array([0.0, above]), np.array([-above, 0.0, tol, 2.0 * tol])]
    gaps = np.array([0.0, 0.5 * tol, tol, above, scale])
    spectra += [np.cumsum(rng.choice(gaps, int(rng.integers(1, 12)))) for _ in range(2000)]
    diffs = np.concatenate([np.diff(v) for v in spectra])
    assert np.count_nonzero(diffs == tol) >= 100 and np.count_nonzero(diffs == above) >= 100
    for values in spectra:
        got, want = factor._clusters(values, scale), _clusters_reference(values, scale)
        assert [g.tobytes() for g in got] == [np.array(g).tobytes() for g in want], values
        assert [np.mean(g) for g in got] == [np.mean(g) for g in want], values


def test_bound_forms_elementary_symmetric_once(monkeypatch):
    calls = []

    def counted(values):
        calls.append(1)
        return elementary_symmetric(values)

    monkeypatch.setattr(factor, "elementary_symmetric", counted)
    assert alpha_real_root_bound([1.0, 2.0, 3.0, 5.0]) > 0.0
    assert len(calls) == 1


# ---- two_eigenvalue_factor -------------------------------------------------


@pytest.mark.parametrize(
    "call, n",
    [
        (two_eigenvalue_factor, 0),
        (two_eigenvalue_factor, 1),
        (equiangular_eigenvectors, 0),
        (equiangular_eigenvectors, 1),
        (lambda A: schur_equiangular(A, 0.3), 0),  # refused before SciPy is imported
    ],
    ids=["two_eigenvalue_0", "two_eigenvalue_1", "eigenvectors_0", "eigenvectors_1", "schur_0"],
)
def test_too_small_for_a_basis_is_invalid_shape(call, n):
    with pytest.raises(InvalidShape, match=f"got a {n} x {n} matrix") as exc:
        call(np.eye(n))
    assert exc.value.exit_code == 27


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


def _sdst_residual(f, A):
    """||S diag(D) S^T - A||_2 of a factorization of A."""
    return spectral_norm((f.S.mat * f.D) @ f.S.mat.T - A)


def _assert_sdst_bounds(f, A, alpha, base=0.0):
    """The residual within base + 1e-12 max(1, max|lambda|) and S^T S = G_alpha within 1e-12."""
    assert _sdst_residual(f, A) <= base + 1e-12 * max(1.0, float(np.abs(sym_eig(A)[1]).max()))
    S = f.S.mat
    assert np.abs(S.T @ S - gram_matrix(GramParams(S.shape[1], f.S.alpha))).max() <= 1e-12
    assert f.S.alpha == alpha


def _refuse_2_norm(monkeypatch):
    """Make a 2-norm through ``spectral_norm`` raise, from factor's own name or kernel's."""
    def refuse(*args):
        raise AssertionError("dense 2-norm computed")

    monkeypatch.setattr(factor, "spectral_norm", refuse, raising=False)
    monkeypatch.setattr(kernel, "spectral_norm", refuse)


def test_sdst_fixture_123():
    A = np.diag([1.0, 2.0, 3.0])
    f = sdst_factor(A, 0.1)
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
    # each zero eigenvalue is a root d = 0 of the same polynomial
    for spectrum, alpha in [
        ([0.0, 0.0, 1.0, 2.0, 3.5], 0.12),
        ([0.0, 0.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0], 0.05),
    ]:
        n, n_zero = len(spectrum), spectrum.count(0.0)
        g = rng.standard_normal((n, n))
        Q, _ = np.linalg.qr(g)
        A = Q @ np.diag(spectrum) @ Q.T
        f = sdst_factor(A, alpha)
        assert _sdst_residual(f, A) <= 1e-8 * np.linalg.norm(A, 2)
        assert np.sort(f.D)[:n_zero] == pytest.approx([0.0] * n_zero, abs=1e-9)
        assert certify_equiangular(f.S, tol=1e-8) == pytest.approx(alpha, abs=1e-8)


def test_sdst_takes_no_2_norm(rng, monkeypatch):
    """No S diag(d) S^T - A is formed or measured: a caller that wants the residual takes it."""
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    A = Q @ np.diag([0.0, 0.0, 1.0, 2.0, 3.5]) @ Q.T
    _refuse_2_norm(monkeypatch)
    f = sdst_factor(A, 0.12)
    assert _sdst_residual(f, A) <= 1e-8 * np.linalg.norm(A, 2)


def test_bound_at_the_top_of_the_float_range():
    """max|lambda| >= 2^1023 overflowed the power-of-two scale itself (OverflowError)."""
    lam = np.array([1e308, 2.0])
    assert alpha_real_root_bound(lam) == alpha_real_root_bound(np.ldexp(lam, -1024))


def test_sdst_spectrum_past_overflow(rng):
    """e_k(lambda) overflows at 2**700 lambda; the polynomial is built on a
    power-of-two rescaled spectrum and d scales back."""
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    lam = np.array([1.0, 2.0, 3.0, 5.0])
    A = Q @ np.diag(lam) @ Q.T
    f, g = sdst_factor(A, 0.05), sdst_factor(A * 2.0**700, 0.05)
    assert g.D / 2.0**700 == pytest.approx(f.D, rel=1e-12)
    assert _sdst_residual(g, A * 2.0**700) <= 1e-12 * 5.0 * 2.0**700
    assert alpha_real_root_bound(lam * 2.0**700) == pytest.approx(alpha_real_root_bound(lam), abs=1e-6)
    # (1 - alpha)^59 underflows: the polynomial is not representable at all.
    with pytest.raises(OutOfRange):
        sdst_factor(np.diag(np.arange(1.0, 61.0)), 1.0 - 1e-8)


def _sdst_reference(A, alpha):
    """(S, D) of ``sdst_factor`` for an A it accepts, by its earlier route: d
    from ``_reference_roots`` of the nonzero eigenvalues, and one d = 0 for
    each zero eigenvalue.  S is None when an eigenvalue is zero: that route
    took another basis of the zero eigenspace.  NonRealRoots and OutOfRange
    with the same texts."""
    Q, w = sym_eig(A)
    scale = max(1.0, float(np.max(np.abs(w))))
    lam = w[np.abs(w) > factor.CLUSTER_RTOL * scale]
    lam_poly, s = _poly_scale_reference(lam)
    roots = _reference_roots(lam_poly, alpha)
    if np.any(roots.imag != 0.0):
        raise NonRealRoots(f"{int(np.count_nonzero(roots.imag != 0))} non-real roots at alpha={alpha!r}")
    d = np.sort(roots.real) * s
    sbar = GramParams(lam.size, alpha).operator.sqrt()
    Qm, mu = sym_eig(sbar.right_multiply(sbar.left_multiply(np.diag(d))))
    if float(np.max(np.abs(np.sort(mu) - np.sort(lam)))) > 1e-7 * scale:
        raise NonRealRoots("recovered spectrum does not match the target within 1e-7")
    D = np.sort(np.concatenate([d, np.zeros(w.size - lam.size)]))
    if lam.size < w.size:
        return None, D
    return Q @ sbar.right_multiply(factor._fix_column_signs(Qm).T), D


def _sdst_outcome(factorize, A, alpha):
    """The bytes of S (None where the reference forms none) and of D sorted,
    or the type and text of the refusal."""
    try:
        out = factorize(A, alpha)
    except (NonRealRoots, OutOfRange, MultiplicityUnsupported) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, factor.SDSTFactorization):
        out = (out.S.mat, out.D)
    S, D = out
    return None if S is None else S.tobytes(), np.sort(D).tobytes()


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
            want = _sdst_outcome(_sdst_reference, A, a)
            if want[0] is None:  # a zero eigenvalue: S is held to the bounds, not to bits
                _assert_sdst_bounds(sdst_factor(A, a), A, a)
                got = (None, got[1])
            assert got == want, (lam, a)
    assert kinds.count("factored") >= 10 and kinds.count("NonRealRoots") >= 10


def test_sdst_overflow_matches_the_np_roots_reference():
    A = np.diag(np.arange(1.0, 61.0))
    got = _sdst_outcome(sdst_factor, A, 1.0 - 1e-8)
    assert got[0] == "OutOfRange"
    assert got == _sdst_outcome(_sdst_reference, A, 1.0 - 1e-8)


@pytest.mark.parametrize("n", range(2, 10))
def test_sdst_factors_with_any_number_of_zero_eigenvalues(rng, n):
    """z zero eigenvalues give z roots d = 0, for every z up to n; the other
    d's are those of the nonzero block alone, to the bit.  The residual may
    exceed the error the roots leave in the spectrum of S diag(D) S^T (it
    reaches 1e-11 at n = 9 here, as without the zero) by 1e-12 max(1, max|lambda|) only."""
    for n_zero in range(1, n + 1):
        lam = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 4.0, n)
        lam[:n_zero] = 0.0
        a = 0.5 * alpha_real_root_bound(lam)
        A = _rotated(rng, lam)
        f = sdst_factor(A, a)
        assert np.count_nonzero(f.D == 0.0) == n_zero, (lam, f.D)
        _, w = sym_eig(A)
        if n - n_zero >= 2:
            block = w[np.abs(w) > factor.CLUSTER_RTOL * max(1.0, float(np.abs(w).max()))]
            assert f.D[f.D != 0.0].tobytes() == sdst_factor(np.diag(block), a).D.tobytes(), lam
        mu = np.linalg.eigvalsh((f.S.mat * f.D) @ f.S.mat.T)
        _assert_sdst_bounds(f, A, a, float(np.abs(mu - w).max()))


def test_sdst_never_calls_np_roots(rng, monkeypatch):
    def refuse(p):
        raise AssertionError("np.roots called")

    monkeypatch.setattr(np, "roots", refuse)
    for lam, a in [
        (np.array([1.0, 2.0, 3.0]), 0.1),
        (np.array([0.0, 0.0, 1.0, 2.0, 3.5]), 0.12),
        (2.0**700 * np.array([1.0, 2.0, 3.0, 5.0]), 0.05),
    ]:
        A = _rotated(rng, lam)
        f = sdst_factor(A, a)
        assert _sdst_residual(f, A) <= 1e-8 * np.abs(lam).max()
    with pytest.raises(NonRealRoots, match="non-real roots"):
        sdst_factor(3.0 * np.eye(4), 0.5)
    with pytest.raises(OutOfRange):
        sdst_factor(np.diag(np.arange(1.0, 61.0)), 1.0 - 1e-8)


def test_sdst_factors_with_n_minus_1_zeros():
    f = sdst_factor(np.diag([0.0, 0.0, 1.0]), 0.1)
    assert certify_equiangular(f.S, tol=1e-12) == pytest.approx(0.1, abs=1e-15)
    assert f.D.tolist() == [0.0, 0.0, 1.0]


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
        assert _sdst_residual(f, A) <= 1e-7 * np.linalg.norm(A, 2)
        assert abs(f.D.sum() - lam.sum()) <= 1e-8
        done += 1


def _factor_lambda_1_16():
    """sdst_factor(diag(1..16), 0.0095), held to the bounds a factorization must meet."""
    A = np.diag(np.arange(1.0, 17.0))
    f = sdst_factor(A, 0.0095)
    S = f.S.mat
    assert spectral_norm((S * f.D) @ S.T - A) <= 1.6e-8
    assert np.abs(S.T @ S - gram_matrix(GramParams(16, 0.0095))).max() <= 1e-9


def test_sdst_of_lambda_1_16_factors_or_raises_non_real_roots():
    # The benchmark's sdst_lambda_1_16 op: perfbench/cases.py expects a failure of
    # exactly this class, and the recovered-spectrum gate raises it here today.
    try:
        _factor_lambda_1_16()
    except NonRealRoots:
        pass


@pytest.mark.xfail(strict=True, raises=NonRealRoots,
                   reason="ROADMAP item 1: the companion route misses the real factorization that exists")
def test_sdst_of_lambda_1_16_factors():
    _factor_lambda_1_16()


def test_counterexample_spectra_are_refused():
    # k equal values with 2 <= k <= n-2: sdst_factor refuses them.  Where the
    # float64 roots are all real, the candidate d they give misses the target
    # spectrum; that shows nothing about whether some other real d factors.
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


def test_repeated_eigenvalue_factors_though_sdst_refuses():
    """d = (2, 2, 2, 1, 5) at alpha = 0.3: three equal d's put 2 (1 - alpha) = 1.4
    in the spectrum twice, and S = Y^T Sbar factors A = diag(lambda).  sdst_factor
    refuses the repeated value, and its text must not say that no factorization exists."""
    alpha, d = 0.3, np.array([2.0, 2.0, 2.0, 1.0, 5.0])
    G = gram_matrix(GramParams(5, alpha))
    _, sbar = gram_principal_sqrt(GramParams(5, alpha))
    lam, Y = np.linalg.eigh(sbar @ np.diag(d) @ sbar)
    assert np.count_nonzero(np.abs(lam - 1.4) <= 1e-12) == 2
    A, S = np.diag(lam), Y.T @ sbar
    assert spectral_norm((S * d) @ S.T - A) <= 1e-13
    assert np.abs(S.T @ S - G).max() <= 1e-14
    with pytest.raises(MultiplicityUnsupported) as exc:
        sdst_factor(A, alpha)
    assert "not supported" in str(exc.value) and "no real factorization" not in str(exc.value)


# ---- similarity forms ------------------------------------------------------


def test_schur_equiangular_round_trip(rng):
    pytest.importorskip("scipy")
    A = rng.standard_normal((6, 6))
    S, T = schur_equiangular(A, 0.3)
    inv = np.linalg.inv(S.mat)
    assert np.linalg.norm(S.mat @ T @ inv - A, 2) <= 1e-8 * np.linalg.norm(A, 2)
    # quasi-triangular: nothing below the first subdiagonal
    assert np.allclose(np.tril(T, -2), 0.0)


@pytest.mark.parametrize("alpha", [1.0, -0.1])
def test_schur_equiangular_alpha_range(alpha):
    # Checked before SciPy is imported, so this runs without it.
    with pytest.raises(InvalidAlpha, match="need 0 <= alpha < 1"):
        schur_equiangular(np.eye(3), alpha)


@pytest.mark.parametrize("n", [1, 3])
def test_schur_equiangular_carries_the_requested_cosine(rng, n):
    # The columns are built at cos(acos(alpha)), which is 0.29999999999999993 for 0.3.
    pytest.importorskip("scipy")
    S, _ = schur_equiangular(rng.standard_normal((n, n)), 0.3)
    assert S.alpha == 0.3


def test_schur_equiangular_takes_no_2_norm(rng, monkeypatch):
    pytest.importorskip("scipy")
    _refuse_2_norm(monkeypatch)
    A = rng.standard_normal((6, 6))
    S, T = schur_equiangular(A, 0.3)
    assert np.abs(S.mat @ T - A @ S.mat).max() <= 1e-8 * np.abs(A).max()


def test_schur_equiangular_takes_no_qr_and_no_dense_solve(rng, monkeypatch):
    """S = Qs T_alpha and T = T_alpha^-1 Ts T_alpha are closed forms on the Schur basis."""
    pytest.importorskip("scipy")
    def refuse(*args, **kwargs):
        raise AssertionError("QR or dense solve called")

    monkeypatch.setattr(ea, "qr", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    A = rng.standard_normal((6, 6))
    S, T = schur_equiangular(A, 0.3)
    assert np.abs(S.mat @ T - A @ S.mat).max() <= 1e-12 * np.abs(A).max()


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
