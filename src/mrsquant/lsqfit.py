"""Linear least-squares basis fitting with a polynomial baseline.

The quantifier solves ``min || Re(spec) - [basis columns | poly terms] @ theta ||``
in closed form and reports basis coefficients as concentrations.  It is the
in-repo comparison baseline for the forest and the stand-in ground truth
for datasets playing the role of fitted in-vivo data.
"""

import numpy as np

from .basis import _metabolite_values
from .errors import ValidationError, integer


def basis_design_matrix(basis, bins):
    """Columns of unit-concentration real-part metabolite spectra at bins, an index or mask into the basis grid."""
    values = _metabolite_values(basis, basis.names, np.ones((1, len(basis.names))), np.ones(1))
    return np.column_stack([v[0].real[bins] for v in values])


def polynomial_columns(n, degree):
    x = np.linspace(-1.0, 1.0, n)
    return np.column_stack([x**k for k in range(degree + 1)])


def lsq_fit_batch(real_rows, basis, bins, baseline_degree=4):
    """Fit many spectra sharing one grid in a single least-squares solve.

    real_rows is (n_spectra, n_bins) of real parts at bins, an index or mask
    into the basis grid.
    Returns the (n_spectra, n_basis + baseline_degree + 1) coefficients:
    the concentrations in basis.names order, then the baseline terms.
    Negative coefficients are returned as-is; a rank-deficient design gets
    the minimum-norm solution.
    """
    baseline_degree = integer("baseline_degree", baseline_degree, 0)
    rows = np.asarray(real_rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValidationError(
            f"{bad.size} spectra hold non-finite values (first: row {bad[0]}); they cannot be fit"
        )
    B = basis_design_matrix(basis, bins)
    P = polynomial_columns(rows.shape[1], baseline_degree)
    theta = np.linalg.lstsq(np.hstack([B, P]), rows.T, rcond=None)[0]
    return theta.T
