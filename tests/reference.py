"""Reference formulas for the likelihood kernel, written record by record.

Each function computes one record's term with numpy from the documented
form of the likelihood and sums the terms; none goes through
``domecast.likelihood._Kernel`` or ``model_kernel``, so tests can check
the kernel, the fits and the sampler against them.  Record i has
duration t_i, delta_i = 1 if completed and 0 if ongoing, and silica x_i;
its parameters are a_i = alpha e^(gamma_alpha (x_i - 60)) and
b_i = beta e^(gamma_beta (x_i - 60)) (a_i = alpha, b_i = beta without
gammas).  A completed record contributes its log density
log(a_i/b_i) - (a_i + 1) log(1 + t_i/b_i), an ongoing one its log
survival -a_i log(1 + t_i/b_i).
"""

import math

import numpy as np

from domecast.fit import HessianError


def _record_parameters(catalog, alpha, beta, gamma_alpha, gamma_beta):
    """(t, delta, a, b) per record; silica is read only with non-zero gammas."""
    t = np.asarray(catalog.duration, dtype=float)
    delta = np.where(catalog.censored, 0.0, 1.0)
    if gamma_alpha == 0.0 and gamma_beta == 0.0:
        return t, delta, np.full_like(t, alpha), np.full_like(t, beta)
    dx = np.asarray(catalog.silica, dtype=float) - 60.0
    return t, delta, alpha * np.exp(gamma_alpha * dx), beta * np.exp(gamma_beta * dx)


def nllh(catalog, alpha, beta, gamma_alpha=0.0, gamma_beta=0.0):
    """The censored GPa negative log-likelihood, aggregate or regression,
    as the sum of per-record density and survival terms."""
    t, delta, a, b = _record_parameters(catalog, alpha, beta, gamma_alpha, gamma_beta)
    log_tail = np.log1p(t / b)
    log_density = np.log(a / b) - (a + 1.0) * log_tail
    log_survival = -a * log_tail
    return -math.fsum(np.where(delta == 1.0, log_density, log_survival))


def profile_alpha(catalog, beta, gamma_alpha=0.0, gamma_beta=0.0):
    """The MLE of the baseline alpha at fixed (beta, gammas):
    n1 / sum_i e^(gamma_alpha (x_i - 60)) log(1 + t_i/b_i)."""
    t, delta, a, b = _record_parameters(catalog, 1.0, beta, gamma_alpha, gamma_beta)
    return math.fsum(delta) / math.fsum(a * np.log1p(t / b))


def log_posterior(catalog, prior, alpha, beta, gamma_alpha=0.0, gamma_beta=0.0):
    """The unnormalised log posterior on the natural scale: minus the NLLH
    plus the log Gamma(a, b) x Gamma(c, d) prior density of (alpha, beta)
    up to its constant; the gammas' priors are flat."""
    log_prior = (
        (prior.a - 1.0) * math.log(alpha)
        - prior.b * alpha
        + (prior.c - 1.0) * math.log(beta)
        - prior.d * beta
    )
    return -nllh(catalog, alpha, beta, gamma_alpha, gamma_beta) + log_prior


def standard_errors(nllh_fn, theta_hat, log_scale):
    """SEs from the inverse central-difference Hessian of ``nllh_fn`` at a
    local minimum.

    Coordinates flagged in ``log_scale`` are differentiated on the log
    scale and mapped back by the delta method SE(theta) = theta *
    SE(log theta).  The step is 1e-4 * max(1, |z|) per working coordinate.
    Raises HessianError unless the Hessian is positive definite.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    log_scale = np.asarray(log_scale, dtype=bool)
    z0 = theta_hat.copy()
    z0[log_scale] = np.log(theta_hat[log_scale])
    d = len(z0)
    h = 1e-4 * np.maximum(1.0, np.abs(z0))

    def g(*steps):
        z = z0.copy()
        for i, sign in steps:
            z[i] += sign * h[i]
        return nllh_fn(np.where(log_scale, np.exp(z), z))

    H = np.empty((d, d))
    g0 = g()
    for i in range(d):
        H[i, i] = (g((i, 1)) - 2.0 * g0 + g((i, -1))) / h[i] ** 2
        for j in range(i + 1, d):
            H[i, j] = H[j, i] = (
                g((i, 1), (j, 1))
                - g((i, 1), (j, -1))
                - g((i, -1), (j, 1))
                + g((i, -1), (j, -1))
            ) / (4.0 * h[i] * h[j])
    if np.linalg.eigvalsh(H)[0] <= 0:
        raise HessianError("central-difference Hessian is not positive definite")
    se_z = np.sqrt(np.diag(np.linalg.inv(H)))
    return np.where(log_scale, theta_hat * se_z, se_z)
