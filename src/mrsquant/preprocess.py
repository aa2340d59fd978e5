"""Cross-protocol spectral alignment: exact regridding and Cr normalization.

Model features are the real part of the spectrum on the model's ppm grid
(the quantification window of the training acquisition), divided by the
spectrum's own creatine peak, so they are ratios to Cr like the labels.
Spectra acquired under a different protocol are carried onto the model
grid by evaluating their discrete-time Fourier transform exactly at the
grid frequencies (``dtft_matrix``), which keeps every peak's height.
"""

import numpy as np

from .errors import GridCompatibilityError, UndefinedResultError
from .signal import _bin_order

# Quantification window in ppm, downfield bound first.
CROP_HI_PPM = 4.3
CROP_LO_PPM = 0.2
# Creatine window in ppm around the 3.03 ppm Cr line; its maximum is the
# normalizer of every feature row (8 bins of a 2500 Hz / 1024-point grid).
CR_HI_PPM = 3.10
CR_LO_PPM = 2.95


def dtft_matrix(params, reference_ppm, target_grid):
    """Complex (n_grid, n_points) map from spectra at params and reference_ppm to their DTFT at target_grid.

    Row g evaluates the discrete-time Fourier transform of the FID behind
    a spectrum (the inverse of ``fid_to_spectrum``) at the Hz offset of
    target_grid[g], so ``values @ W.T`` regrids a whole batch of spectra
    with no interpolation error.  On the source axis itself W is the
    identity; on a finer grid it reproduces a zero-filled FFT.  Grid points
    outside the source's Nyquist band raise GridCompatibilityError.
    """
    n = params.n_points
    target = np.asarray(target_grid, dtype=np.float64)
    # DFT bin 0 (DC) sits at the reference; see signal.ppm_axis
    hz = (target - reference_ppm) * params.transmitter_freq
    half_band = params.spectral_width / 2.0
    if np.any(np.abs(hz) > half_band * (1.0 + 1e-12)):
        raise GridCompatibilityError(
            f"target grid [{target.min():.4f}, {target.max():.4f}] ppm exceeds the "
            f"{params.spectral_width:g} Hz band of the spectrum"
        )
    fid_to_grid = np.exp(-2j * np.pi * np.outer(hz, np.arange(n)) / params.spectral_width)
    # compose with spectrum -> FID: fid = ifft(values placed at DFT bins _bin_order(n))
    return np.fft.ifft(fid_to_grid, axis=1)[:, _bin_order(n)]


def cr_normalize(rows, grid):
    """Real feature rows on grid, each divided by its own Cr peak.

    The Cr peak is the row's maximum over the bins of grid inside
    [CR_LO_PPM, CR_HI_PPM].  A peak that is not > 0 (NaN included) makes
    the ratio undefined and raises UndefinedResultError; it is never
    divided through.
    """
    rows = np.asarray(rows, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    window = (grid >= CR_LO_PPM) & (grid <= CR_HI_PPM)
    if not window.any():
        raise GridCompatibilityError(
            f"Cr window [{CR_LO_PPM}, {CR_HI_PPM}] ppm holds no bin of the feature grid"
        )
    peaks = np.max(rows[:, window], axis=1)
    bad = np.flatnonzero(~(peaks > 0))
    if bad.size:
        raise UndefinedResultError(
            f"{bad.size} spectra have no positive Cr peak in [{CR_LO_PPM}, {CR_HI_PPM}] ppm "
            f"(first: index {bad[0]}, peak {peaks[bad[0]]:.4g}); Cr ratios are undefined"
        )
    return rows / peaks[:, None]


def grids_match(a, b, tol=1e-9):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))
