"""Exact second moments of bilinear forms in the increments of independent
Gaussian paths: the oracles of the sampler, lift and cross-term tests."""

from decimal import Decimal, localcontext

import numpy as np


def increment_covariance(hursts, coeffs, n_steps, horizon=1.0):
    """Covariance of the increments of sum_k a_k B^{H_k} on the uniform grid
    of n_steps on [0, horizon]: sum_k a_k^2 dt^{2H_k} g_k(|i - j|), where
    g_k(l) = ((l + 1)^{2H} - 2 l^{2H} + |l - 1|^{2H}) / 2 is unit fGn's."""
    lag = np.abs(np.subtract.outer(np.arange(n_steps), np.arange(n_steps))).astype(float)
    dt = horizon / n_steps
    return sum(a * a * 0.5 * dt ** (2 * h) * (
        (lag + 1) ** (2 * h) - 2 * lag ** (2 * h) + np.abs(lag - 1) ** (2 * h))
        for h, a in zip(hursts, coeffs))


def fgn_autocovariance_decimal(hurst, k):
    """(1/2)((k+1)^{2H} - 2 k^{2H} + |k-1|^{2H}) in 60 digits, from the exact
    binary value of H: the second difference loses about 11 of them."""
    with localcontext(prec=60):
        a = 2 * Decimal(hurst)
        return ((k + 1) ** a - 2 * Decimal(k) ** a + Decimal(abs(k - 1)) ** a) / 2


def fgn_covariance(hurst, n_steps, horizon=1.0):
    """Covariance of n_steps fGn steps of index ``hurst`` on [0, horizon],
    from the decimal autocovariance rounded once: ``increment_covariance``'s
    float second difference loses 2 log10(lag) digits, about 1e-12 relative
    of m^T Sigma m at 256 steps and H = 0.9."""
    gamma = np.array([float(fgn_autocovariance_decimal(hurst, k)) for k in range(n_steps)])
    lag = np.abs(np.subtract.outer(np.arange(n_steps), np.arange(n_steps)))
    return (horizon / n_steps) ** (2 * hurst) * gamma[lag]


def area_matrix(n_steps):
    """S with S[i, j] = sign(j - i) / 2: x^T S y is the Levy area of the
    polyline whose two coordinates have the increments x and y."""
    i = np.arange(n_steps)
    return 0.5 * np.sign(i[None, :] - i[:, None])


def cauchy_increment_matrix(m):
    """D with A_m - A_{m+1} = x^T D y, where A_m is the Levy area of the
    level-m dyadic lift and x, y are the two coordinates' 2^{m+1} increments.

    The level-m increments are P x, where P sums adjacent pairs, so
    A_m = x^T P^T S_m P y and D = P^T S_m P - S_{m+1}.
    """
    pair = np.arange(2 ** (m + 1)) // 2
    return area_matrix(2 ** m)[np.ix_(pair, pair)] - area_matrix(2 ** (m + 1))


def bilinear_moment(k, sigma_x, sigma_y):
    """E[(x^T K y)^2] = tr(K Sigma_y K^T Sigma_x) for independent centred
    Gaussian x and y with covariances Sigma_x and Sigma_y."""
    return float(np.sum((k @ sigma_y) * (sigma_x @ k)))
