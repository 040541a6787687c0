"""Closed-form matrices against the expressions that built them with full-size temporaries.

The reference functions below are ``simplex_frame``, ``triangular_equiangular``,
``fast_inverse`` and the constant-off-diagonal spread as they were before each
closed form wrote its output once.  The output bits, its memory layout and
every decision must not change; the peak memory must drop to the output.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from eqkit.ea import (
    EquiangularMatrix,
    _t_entries,
    _near_constant,
    _off_diagonal,
    random_equiangular,
    triangular_equiangular,
)
from eqkit.errors import EqkitError
from eqkit.frames import simplex_frame
from eqkit.gram import GramParams, dual_params
from eqkit.kernel import as_matrix
from eqkit.spectral import fast_inverse

# ---- reference: the expressions with temporaries ----------------------------


def ref_simplex_frame(n):
    rest = n - np.arange(n)
    c = np.sqrt((n + 1.0) * rest / (n * (rest + 1.0)))
    S = np.triu(np.repeat((-c / rest)[:, None], n + 1, axis=1), 1)
    S[np.diag_indices(n)] = c
    return S


def ref_triangular_equiangular(p):
    n, a = p.n, p.alpha
    d, o, _ = _t_entries(n, a)
    m = np.triu(np.repeat(o[:, None], n, axis=1), 1)
    m[np.diag_indices(n)] = d
    return m


def ref_fast_inverse(S):
    M = as_matrix(S.mat)
    n = M.shape[0]
    if n == 1:  # G = [1] at every cosine, so S^-1 = S^T
        return M.T.copy()
    d = dual_params(GramParams(n, S.alpha))
    rowsums = M.sum(axis=1)
    return d.beta * ((1.0 - d.alpha_prime) * M.T + d.alpha_prime * rowsums[None, :])


def ref_spread(off):
    """The mean of ``off`` and max|off - mean|, as ``_near_constant`` formed them with a copy."""
    off = np.array(off, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(off.mean())
        return mean, float(np.max(np.abs(off - mean)))


def assert_same_outcome(got_fn, want_fn):
    """Both raise the same error, or both return arrays equal bit for bit and laid out alike."""
    try:
        want = want_fn()
    except EqkitError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            got_fn()
        return
    got = got_fn()
    assert got.shape == want.shape and got.strides == want.strides
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


SIZES = [1, 2, 3, 64, 130, 1024]  # 130: a partial block of rows after full ones


def cosines(n):
    """Admissible cosines for n vectors: obtuse near the -1/(n-1) limit, zero, acute."""
    return [-0.9 / max(n - 1, 1), 0.0, 0.3, 0.9]


# ---- outputs are bit-identical ------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
def test_simplex_frame_is_bit_identical(n):
    assert_same_outcome(lambda: simplex_frame(n).mat, lambda: ref_simplex_frame(n))


@pytest.mark.parametrize("n", SIZES)
def test_triangular_equiangular_is_bit_identical(n):
    for a in cosines(n):
        assert_same_outcome(lambda: triangular_equiangular(GramParams(n, a)).mat,
                            lambda: ref_triangular_equiangular(GramParams(n, a)))


@pytest.mark.parametrize("n", SIZES)
def test_fast_inverse_is_bit_identical(n):
    rng = np.random.default_rng([20261018, n])
    for a in cosines(n):
        # The formula is applied entry by entry, so a random matrix tests the
        # rounding as well as an equiangular one.
        inputs = [EquiangularMatrix(rng.standard_normal((n, n)), a)]
        if n > 1:
            inputs.append(random_equiangular(n, a, rng))
        for S in inputs:
            assert_same_outcome(lambda: fast_inverse(S), lambda: ref_fast_inverse(S))


# ---- the constant-off-diagonal rule --------------------------------------------


def near_constant_inputs():
    rng = np.random.default_rng(20261018)
    big = np.finfo(float).max
    return {
        "random": rng.standard_normal(50),
        "constant": np.full(12, -0.25),
        "nearly constant": 0.3 + 1e-9 * rng.standard_normal(40),
        "one outlier": np.r_[np.full(9, 0.5), 0.5 + 3e-9],
        "nan": np.r_[0.1, np.nan, 0.1],
        "inf": np.r_[0.1, np.inf, 0.1],
        "-inf": np.r_[-np.inf, 0.1, 0.1],
        "inf and -inf": np.r_[np.inf, -np.inf, 0.0],
        "all inf": np.full(4, np.inf),
        "all -inf": np.full(4, -np.inf),
        "mean overflows": np.full(6, big),
        "mean overflows below": np.full(6, -big),
        "mean overflows, spread": np.r_[np.full(5, big), 0.9 * big],
    }


@pytest.mark.parametrize("name", list(near_constant_inputs()))
def test_near_constant_spread_is_max_abs_deviation(name):
    off = near_constant_inputs()[name]
    before = off.copy()
    mean_ref, spread = ref_spread(off)
    tols = [0.0, 1e-12, 1e-8, 1.0, np.inf]
    if math.isfinite(spread):
        # Deciding alike at the spread and one ulp below it pins the spread to the bit.
        tols += [spread, np.nextafter(spread, -np.inf)]
    for tol in tols:
        mean, constant = _near_constant(off, tol)
        assert (mean == mean_ref) or (math.isnan(mean) and math.isnan(mean_ref))
        assert constant == (spread <= tol), (name, tol)
    assert np.array_equal(off, before, equal_nan=True)  # read, not overwritten


@pytest.mark.parametrize("m", [2, 3, 17, 200])
def test_off_diagonal_view_holds_the_masked_entries(m):
    G = np.random.default_rng(m).standard_normal((m, m))
    before = G.copy()
    off = _off_diagonal(G)
    assert np.shares_memory(off, G)
    assert np.array_equal(off.ravel(), G[~np.eye(m, dtype=bool)])
    # A strided view and the masked copy give the same mean and the same decision.
    masked = G[~np.eye(m, dtype=bool)]
    for tol in (1e-8, 10.0):
        assert _near_constant(off, tol) == _near_constant(masked, tol)
    assert np.array_equal(G, before)


# ---- no temporary the size of the output ------------------------------------


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", ["simplex_frame", "triangular_equiangular", "fast_inverse"])
def test_closed_forms_allocate_only_their_output(build):
    n = 512
    S = random_equiangular(n, 0.3, np.random.default_rng(5))
    fn = {
        "simplex_frame": lambda: simplex_frame(n).mat,
        "triangular_equiangular": lambda: triangular_equiangular(GramParams(n, 0.3)).mat,
        "fast_inverse": lambda: fast_inverse(S),
    }[build]
    out, peak = _peak_bytes(fn)
    # The output plus a few length-n coefficient vectors.
    assert peak <= 1.1 * out.nbytes + 16 * 8 * n, (peak, out.nbytes)
