"""Censored negative log-likelihoods and closed-form profile MLEs.

Uncensored records contribute a density factor, censored records a
survival factor.  For the two-parameter model

    nllh = sum_i (alpha + delta_i) log(1 + t_i/beta) + n1 log(beta/alpha)

with delta_i = 1 uncensored, 0 censored.  The regression variant replaces
(alpha, beta) with per-record log-linear functions of silica centered at
60 percent.  ``_at_silica`` is the one silica map: fits' parameters,
posterior draws and simulated records all shift through it.

``MODELS`` is the one table of per-model facts (parameter names and
class, the coordinates theta that fits search and the sampler walks,
whether silica is required), and ``model_kernel`` the one builder of a
model's likelihood kernel, used by fits, the sampler and
``nllh_aggregate``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .catalog import SILICA_MAX, SILICA_MIN, Catalog
from .pareto import ExpParams, GPaParams

__all__ = [
    "RegressionParams",
    "catalog_arrays",
    "nllh_aggregate",
    "nllh_exponential",
]

SILICA_CENTER = 60.0  # fixed model convention, not configurable


class _OneSilicaError(ValueError):
    """A silica model on records that share one silica value: a data error
    for a given catalog, a failed replication in a recovery study."""


@dataclass(frozen=True)
class RegressionParams:
    """Baseline (alpha, beta) plus log-linear silica coefficients.

    Per-record parameters are alpha*exp(gamma_alpha*(x-60)) and
    beta*exp(gamma_beta*(x-60)).
    """

    alpha: float
    beta: float
    gamma_alpha: float
    gamma_beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        for name in ("gamma_alpha", "gamma_beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def at_silica(self, x: float) -> GPaParams:
        alpha, beta = _at_silica(*astuple(self), x)
        return GPaParams(float(alpha), float(beta))


class Model(NamedTuple):
    """One entry of ``MODELS``."""

    params: tuple[str, ...]  # estimate keys, in ``cls``'s argument order
    cls: type
    theta: tuple[str, ...]  # searched and walked coordinates; () without a kernel
    silica: bool  # every record needs silica


MODELS = {
    "aggregate": Model(("alpha", "beta"), GPaParams, ("log_beta",), False),
    "regression": Model(
        ("alpha", "beta", "gamma_alpha", "gamma_beta"),
        RegressionParams,
        ("log_beta", "gamma_alpha", "gamma_beta"),
        True,
    ),
    "exponential": Model(("lambda",), ExpParams, (), False),
}


def _at_silica(alpha, beta, gamma_alpha, gamma_beta, x):
    """(alpha e^(gamma_alpha (x-60)), beta e^(gamma_beta (x-60))),
    elementwise over arrays of draws or of records.  Raises ValueError
    unless every x lies in the catalog's [SILICA_MIN, SILICA_MAX]."""
    x = np.asarray(x, dtype=float)
    outside = ~((x >= SILICA_MIN) & (x <= SILICA_MAX))
    if outside.any():
        raise ValueError(
            f"silica {x[outside].flat[0]} outside [{SILICA_MIN}, {SILICA_MAX}] percent"
        )
    dx = x - SILICA_CENTER
    return alpha * np.exp(gamma_alpha * dx), beta * np.exp(gamma_beta * dx)


def catalog_arrays(catalog: Catalog, require_silica: bool = False):
    """(t, delta, x) in catalog order: t and x are the catalog's read-only
    duration and silica columns (x NaN where silica is missing), delta is
    1.0 for completed and 0.0 for censored records.  require_silica
    raises on missing silica, naming the first record without it."""
    if catalog.n == 0:
        raise ValueError("empty catalog")
    if require_silica and np.isnan(catalog.silica).any():
        i = np.flatnonzero(np.isnan(catalog.silica))[0]
        raise ValueError(
            f"record {catalog.names[i]!r} (start {catalog.start_year[i]}) has no "
            "silica_pct; regression model requires silica for every record"
        )
    return catalog.duration, np.where(catalog.censored, 0.0, 1.0), catalog.silica


class _ProfileDerivatives(NamedTuple):
    """What ``_Kernel.profile_derivatives`` returns at one point."""

    alpha: float  # profile MLE n1/S
    nllh: float  # profile NLLH P
    grad: np.ndarray  # dP/dtheta
    hess: np.ndarray  # d2P/dtheta2
    info: np.ndarray  # observed information in (log alpha, theta)


class _Kernel:
    """Both GPa likelihoods as functions of two array sums.

    With dx_i = x_i - 60, b_i = beta exp(gamma_beta dx_i),
    w_i = exp(gamma_alpha dx_i) and L_i = log(1 + t_i/b_i), the data
    enter only through S = sum_i w_i L_i and U = sum_i delta_i L_i:

        nllh = alpha S + U + n1 log(beta/alpha)
               + (gamma_beta - gamma_alpha) sum_i delta_i dx_i

    and the profile MLE of alpha is n1/S.  Without x (the aggregate
    model) w_i = 1 and b_i = beta, and silica is never read.

    Each kernel builds one ``sums`` when it is made, specialised to its
    model, and ``nllh``, ``profile`` and the sampler all call that one.
    """

    __slots__ = ("t", "delta", "dx", "n1", "delta_dx", "sums", "moment_arrays")

    def __init__(self, t, delta, x=None):
        self.t = t
        self.delta = delta
        self.dx = None if x is None else x - SILICA_CENTER
        self.n1 = float(delta.sum())
        self.delta_dx = 0.0 if x is None else float(delta @ self.dx)
        self.sums = self._sums_closure()
        self.moment_arrays = None  # built by the first profile_derivatives

    def _sums_closure(self):
        """``sums(beta, gamma_alpha=0.0, gamma_beta=0.0) -> (S, U)`` for this
        kernel's model.  It overwrites buffers made here, rows (e, w, delta)
        with e_i = exp(gamma_beta dx_i) (rows (w, delta) with w = 1 without
        x), L and (S, U), through ufuncs bound once with ``out`` by
        position: at n = 177 fresh arrays and lookups cost more than the
        arithmetic."""
        t, dx = self.t, self.dx
        multiply, divide, exp, log1p = np.multiply, np.divide, np.exp, np.log1p
        rows = np.empty((2 if dx is None else 3, len(t)))
        rows[-2], rows[-1] = 1.0, self.delta
        e_w, e, w = rows[:2], rows[0], rows[1]  # read by silica_sums only
        L, SU = np.empty(len(t)), np.empty(2)
        dot = rows[-2:].dot  # (w, delta) @ L = (S, U)

        def aggregate_sums(beta, gamma_alpha=0.0, gamma_beta=0.0):
            divide(t, beta, L)
            log1p(L, L)
            dot(L, SU)
            S, U = SU.tolist()
            return S, U

        def silica_sums(beta, gamma_alpha=0.0, gamma_beta=0.0):
            multiply(dx, gamma_beta, e)
            multiply(dx, gamma_alpha, w)
            exp(e_w, e_w)
            multiply(e, beta, L)  # b_i
            divide(t, L, L)
            log1p(L, L)
            dot(L, SU)
            S, U = SU.tolist()
            return S, U

        return aggregate_sums if dx is None else silica_sums

    def nllh(self, alpha, beta, gamma_alpha=0.0, gamma_beta=0.0) -> float:
        S, U = self.sums(beta, gamma_alpha, gamma_beta)
        return self._nllh(S, U, alpha, beta, gamma_alpha, gamma_beta)

    def profile(self, beta, gamma_alpha=0.0, gamma_beta=0.0) -> tuple[float, float]:
        """(alpha_hat, nllh at alpha_hat) at fixed beta and gammas."""
        if self.n1 < 1:
            raise ValueError(
                "profile MLE for alpha needs at least one uncensored record"
            )
        S, U = self.sums(beta, gamma_alpha, gamma_beta)
        alpha = self.n1 / S
        return alpha, self._nllh(S, U, alpha, beta, gamma_alpha, gamma_beta)

    def profile_derivatives(
        self, beta, gamma_alpha=0.0, gamma_beta=0.0
    ) -> _ProfileDerivatives:
        """The profile NLLH P at alpha = n1/S with its gradient and Hessian
        in theta = (log beta, gamma_alpha, gamma_beta), or (log beta,)
        without x, and the observed information of the full NLLH in
        (log alpha, theta) at that alpha, all from one pass over the data.

        P = n1 log beta + n1 log S + U + (gamma_beta - gamma_alpha) D
        + n1 - n1 log n1 with D = sum_i delta_i dx_i.  With
        r_i = t_i/(b_i + t_i) and q_i = r_i (1 - r_i), dL_i/dlog b_i = -r_i
        and dr_i/dlog b_i = -q_i, so every derivative of S and U is one of
        the moments sum_i [w_i L_i, delta_i L_i, w_i r_i, w_i q_i,
        delta_i r_i, delta_i q_i] dx_i^k, k = 0, 1, 2.  P's Hessian is
        n1 (S''/S - S' S'^T/S^2) + U''; the information has entries
        alpha S, alpha S' and alpha S'' + U''.
        """
        t = self.t
        if self.moment_arrays is None:
            # Columns dx^0, dx^1, dx^2 (dx^0 alone without x), plain and times
            # delta, and one (6, n) buffer that every call overwrites: fresh
            # arrays of that size cost more in page faults than the arithmetic.
            powers = np.ones((len(t), 1))
            if self.dx is not None:
                powers = np.hstack((powers, self.dx[:, None] ** [1, 2]))
            self.moment_arrays = (
                powers,
                powers * self.delta[:, None],
                np.empty((6, len(t))),
            )
        powers, delta_powers, buf = self.moment_arrays
        Y, wY = buf[:3], buf[3:]  # rows (L, r, q) and w (L, r, q)
        if self.dx is None:
            b, wY = beta, Y
        else:
            b = beta * np.exp(gamma_beta * self.dx)
        np.log1p(t / b, out=Y[0])
        np.divide(t, b + t, out=Y[1])
        np.multiply(Y[1], 1.0 - Y[1], out=Y[2])
        if self.dx is not None:
            np.multiply(Y, np.exp(gamma_alpha * self.dx), out=wY)
        moments = np.zeros((2, 3, 3))
        moments[0, :, : powers.shape[1]] = wY @ powers
        moments[1, :, : powers.shape[1]] = Y @ delta_powers
        ((S, S1, S2), wr, wq), ((U, _, _), dr, dq) = moments.tolist()
        # First and second derivatives in (log beta, gamma_alpha, gamma_beta):
        # log b_i moves with log beta and with gamma_beta dx_i, log w_i with
        # gamma_alpha dx_i.
        dS = np.array([-wr[0], S1, -wr[1]])
        d2S = np.array(
            [[wq[0], -wr[1], wq[1]], [-wr[1], S2, -wr[2]], [wq[1], -wr[2], wq[2]]]
        )
        dU = np.array([-dr[0], 0.0, -dr[1]])
        d2U = np.array([[dq[0], 0.0, dq[1]], [0.0, 0.0, 0.0], [dq[1], 0.0, dq[2]]])
        k = 1 if self.dx is None else 3
        dS, d2S, dU, d2U = dS[:k], d2S[:k, :k], dU[:k], d2U[:k, :k]

        n1 = self.n1
        alpha = n1 / S
        tilt = np.array([n1, -self.delta_dx, self.delta_dx])[:k]
        info = np.empty((k + 1, k + 1))
        info[0, 0] = n1  # alpha S
        info[0, 1:] = info[1:, 0] = alpha * dS
        info[1:, 1:] = alpha * d2S + d2U
        return _ProfileDerivatives(
            alpha=alpha,
            nllh=self._nllh(S, U, alpha, beta, gamma_alpha, gamma_beta),
            grad=n1 * dS / S + dU + tilt,
            hess=n1 * (d2S / S - np.outer(dS, dS) / S**2) + d2U,
            info=info,
        )

    def _nllh(self, S, U, alpha, beta, gamma_alpha, gamma_beta) -> float:
        return (
            alpha * S
            + U
            + self.n1 * math.log(beta / alpha)
            + (gamma_beta - gamma_alpha) * self.delta_dx
        )


def model_kernel(kind: str, catalog: Catalog) -> _Kernel:
    """The likelihood kernel of ``MODELS[kind]`` on the catalog; ValueError
    for a kind without one, and for a silica model on a catalog whose
    records share one silica value, which leaves the silica coefficients
    unidentified."""
    model = MODELS.get(kind)
    if model is None or not model.theta:
        raise ValueError(f"unknown model_kind {kind!r}")
    t, delta, x = catalog_arrays(catalog, require_silica=model.silica)
    if model.silica and not (x != x[0]).any():
        raise _OneSilicaError(
            f"{kind} model needs at least two distinct silica values; every "
            f"record has silica_pct {x[0]:g}"
        )
    return _Kernel(t, delta, x if model.silica else None)


def nllh_aggregate(catalog: Catalog, p: GPaParams) -> float:
    return model_kernel("aggregate", catalog).nllh(p.alpha, p.beta)


def nllh_exponential(catalog: Catalog, p: ExpParams) -> float:
    """Censored exponential: lambda * sum t_i - n1 * log lambda."""
    t, delta, _ = catalog_arrays(catalog)
    return p.lam * float(t.sum()) - float(delta.sum()) * math.log(p.lam)
