"""Linear least-squares basis fitting with a polynomial baseline.

The quantifier solves ``min || Re(spec) - [basis columns | poly terms] @ theta ||``
in closed form and reports basis coefficients as concentrations.  It is the
in-repo comparison baseline for the forest and the stand-in ground truth
for datasets playing the role of fitted in-vivo data.
"""

import numpy as np

from .basis import _metabolite_values
from .errors import GridCompatibilityError, ValidationError, integer
from .signal import ppm_axis


def _match_bins(spec_axis, basis_axis):
    """Indices of basis-grid bins matching each spectrum bin, or an error."""
    pos = np.searchsorted(-basis_axis, -spec_axis)
    pos = np.clip(pos, 0, basis_axis.size - 1)
    prev = np.clip(pos - 1, 0, basis_axis.size - 1)
    pick = np.where(
        np.abs(basis_axis[prev] - spec_axis) <= np.abs(basis_axis[pos] - spec_axis), prev, pos
    )
    tol = 1e-6 * (basis_axis[0] - basis_axis[-1])
    if np.any(np.abs(basis_axis[pick] - spec_axis) > tol):
        raise GridCompatibilityError(
            "spectrum bins do not lie on the basis grid; render the basis at the "
            "spectrum's acquisition"
        )
    return pick


def basis_design_matrix(basis, spec_axis):
    """Columns of unit-concentration real-part metabolite spectra on the bins spec_axis."""
    rows = _match_bins(np.asarray(spec_axis, dtype=np.float64), ppm_axis(basis.params, basis.reference_ppm))
    values = _metabolite_values(basis, basis.names, np.ones((1, len(basis.names))), np.ones(1))
    return np.column_stack([v[0].real[rows] for v in values])


def polynomial_columns(n, degree):
    x = np.linspace(-1.0, 1.0, n)
    return np.column_stack([x**k for k in range(degree + 1)])


def lsq_fit_batch(real_rows, basis, spec_axis, baseline_degree=4):
    """Fit many spectra sharing one grid in a single least-squares solve.

    real_rows is (n_spectra, n_bins) of real parts on the bins spec_axis.
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
    B = basis_design_matrix(basis, spec_axis)
    P = polynomial_columns(rows.shape[1], baseline_degree)
    theta = np.linalg.lstsq(np.hstack([B, P]), rows.T, rcond=None)[0]
    return theta.T
