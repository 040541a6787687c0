"""eqkit — equiangular vector systems and the factorizations built on them.

A family of unit vectors is *equiangular* when every pair meets at the same
angle.  Such families have a rank-one-structured Gram matrix whose algebra
(inverse, square roots, eigenvalues, condition number) is closed-form, and
that structure carries a surprising amount of machinery:

* ``sr_decompose`` — A = S R with S equiangular, the analogue of QR;
* ``fast_inverse`` — O(n^2) inverse of a square equiangular matrix;
* ``sdst_factor`` / ``two_eigenvalue_factor`` — symmetric A = S diag(d) S^T;
* ``dea`` — one Householder reflection makes rows *and* columns equiangular;
* ``simplex_frame`` — the maximal obtuse family, an equiangular tight frame.
"""

__version__ = "0.1.0"

from .ea import (
    EquiangularMatrix,
    SRDecomposition,
    certify_equiangular,
    next_equiangular,
    next_equiangular_obtuse,
    polar_orthogonal_factor,
    random_equiangular,
    sr_decompose,
    triangular_equiangular,
)
from .doubly import DoublyEquiangular, canonical_commuter, certify_doubly, dea, dem_product_params
from .errors import (
    ComplexSpectrum,
    DegenerateAngle,
    DegreeZero,
    EqkitError,
    InvalidAlpha,
    InvalidAngle,
    InvalidShape,
    InvalidTolerance,
    IoError,
    MultiplicityUnsupported,
    NoConvergence,
    NonRealRoots,
    NotEigenpair,
    NotEquiangular,
    NotSpanning,
    NotSquare,
    NotSymmetric,
    OutOfRange,
    ParseError,
    RankDeficient,
    Singular,
    WrongSpectrum,
)
from .factor import (
    PolySpec,
    SDSTFactorization,
    alpha_real_root_bound,
    build_poly,
    equiangular_eigenvectors,
    nonreal_root_certificate,
    schur_equiangular,
    sdst_coefficients,
    sdst_factor,
    two_eigenvalue_factor,
)
from .frames import (
    EtfReport,
    FrameSet,
    SimplexFrame,
    augment_to_orthogonal,
    frame_bounds,
    is_etf,
    relate_to_sdst,
    simplex_frame,
    tight_frame_identity_defect,
    welch_alpha,
)
from .io import read_matrix, write_matrix
from .gram import (
    DualParams,
    GramParams,
    SqrtParams,
    dual_params,
    gram_condition,
    gram_eigenvalues,
    gram_inverse,
    gram_matrix,
    gram_principal_sqrt,
    gram_sqrt_variants,
)
from .kernel import (
    OpCounter,
    generic_inverse,
    norm2_at_most,
    poly_roots,
    qr,
    real_schur,
    spectral_norm,
    sym_eig,
)
from .spectral import (
    InverseGeometry,
    benchmark_inverse,
    eig_relation_check,
    eigenvalue_bounds,
    fast_inverse,
    fit_exponent,
    inverse_geometry,
)

__all__ = [name for name in dir() if not name.startswith("_")]
