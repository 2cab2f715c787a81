"""Dense symmetric linear algebra and the discrimination SDP solver.

The discrimination problem on one Gram block reads

    maximize   sum_k [sqrtG]_k^T E_k [sqrtG]_k
    s.t.       E_k >= 0,  sum_k E_k = I,

whose dual is  min tr(Y) s.t. Y >= rho_k := g_k g_k^T  for every column g_k
of sqrtG.  `solve_discrimination_sdp` takes any dense Gram: a Gram of rank at
most one has a closed form, and every other one follows the central path of
the dual log-det barrier, where Sherman-Morrison reduces each Newton system to
a Lyapunov operator plus a Woodbury system of order n.  The edge-detection
blocks of full rank are solved on the tridiagonal kernel instead
(`qedge.discrimination`); `_reweighted_srm` builds their dense certificate.
A solve that breaks down numerically raises `numpy.linalg.LinAlgError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import cholesky, solve_triangular

__all__ = [
    "NotPsdError",
    "SdpSolution",
    "psd_sqrt",
    "solve_discrimination_sdp",
]

_FINAL_T_MARGIN = 1.25   # final barrier parameter 1.25*nu/gap_tol, so gap ~ 0.8*gap_tol
_BARRIER_GROWTH = 25.0
_RANK_TOL = 1e-12        # eigenvalues below _RANK_TOL * lambda_max count as zero
_MAX_ITER = 200          # Newton steps per SDP solve, over all barrier parameters


class NotPsdError(ValueError):
    """Matrix expected to be positive semidefinite is not."""


def _kept_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrised m and its eigenpairs with eigenvalue above _RANK_TOL * lambda_max.

    Raises ValueError unless m is a finite, square, symmetric matrix, and
    NotPsdError when its lowest eigenvalue is below -_RANK_TOL * lambda_max.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if m.size and np.abs(m - m.T).max() > 1e-12 * max(np.abs(m).max(), 1.0):
        raise ValueError("matrix is not symmetric")
    sym = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(sym)
    wmax = max(w[-1], 0.0) if w.size else 0.0
    if w.size and w[0] < -_RANK_TOL * max(wmax, 1e-300):
        raise NotPsdError(f"matrix has eigenvalue {w[0]:.3e} < -{_RANK_TOL:g} * lambda_max")
    keep = w > _RANK_TOL * wmax
    return sym, w[keep], v[:, keep]


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root, deflating eigenvalues below _RANK_TOL * lambda_max."""
    _, w, v = _kept_spectrum(m)
    return _root(w, v)


def _root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(sqrt w) V^T, symmetrised."""
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


def _check_gap_tol(gap_tol: float) -> None:
    """Raise ValueError unless 0 < gap_tol < inf (NaN included)."""
    if not 0.0 < gap_tol < np.inf:
        raise ValueError(f"gap_tol must be positive and finite, got {gap_tol!r}")


@dataclass(eq=False)
class SdpSolution:
    """Values, status and dense certificate of one block solve.

    ``view()`` builds the POVM [E_k] and the dual Y that ``primal`` and ``dual``
    return.  Only the latest build of any solution is kept, so reading both builds
    once and solutions held in bulk hold no dense matrix.  ``iterations`` counts
    the reweighting's kernel passes or the barrier's Newton steps."""

    view: Callable[[], tuple[list[np.ndarray], np.ndarray]] = field(repr=False)
    primal_value: float = 0.0
    dual_value: float = 0.0
    iterations: int = 0
    status: str = "converged"   # converged (gap <= gap_tol) | gapExceeded | maxIterations

    @property
    def gap(self) -> float:
        """Duality gap tr Y - P, an upper bound on the distance to the optimum."""
        return self.dual_value - self.primal_value

    @property
    def primal(self) -> list[np.ndarray]:
        return _certificate(self)[0]

    @property
    def dual(self) -> np.ndarray:
        return _certificate(self)[1]


@lru_cache(maxsize=1)
def _certificate(sol: SdpSolution) -> tuple[list[np.ndarray], np.ndarray]:
    return sol.view()


def solve_discrimination_sdp(gram: np.ndarray, gap_tol: float = 1e-8) -> SdpSolution:
    """Optimal-discrimination SDP for the pure-state block with Gram matrix ``gram``.

    One eigendecomposition gives the kept eigenpairs (w, V_r), deflated as in
    `psd_sqrt`.  Rank at most one (identical states): always guess the largest
    prior (lowest index on ties), gap 0.  Otherwise the barrier method
    (`_barrier_solve`) on the states b_k, the columns of (V_r sqrt(w))^T, with the
    identity on the null space given to the largest prior.  Raises NotPsdError on
    an indefinite Gram, ValueError unless 0 < gap_tol < inf, and
    numpy.linalg.LinAlgError when the solve breaks down numerically.
    """
    _check_gap_tol(gap_tol)
    _, w, vr = _kept_spectrum(gram)
    n = vr.shape[0]
    b = (vr * np.sqrt(w)).T                # r x n, columns b_k
    priors = (b * b).sum(axis=0)
    # the largest prior, the lowest index among priors equal to 12 digits
    k_star = int(np.argmax(np.round(priors / max(priors.max(), 1e-300), 12)))
    if w.size <= 1:
        primal = [np.zeros((n, n)) for _ in range(n)]
        primal[k_star] = np.eye(n)
        value = float(priors[k_star])
        dual = value * vr @ vr.T
        return SdpSolution(view=lambda: (primal, dual), primal_value=value, dual_value=value)

    y_hat, es_hat, iters, centered = _barrier_solve(b, gap_tol)
    # lift to the original coordinates; null-space remainder goes to k_star
    primal = [vr @ e @ vr.T for e in es_hat]
    primal[k_star] = primal[k_star] + np.eye(n) - vr @ vr.T
    primal_value = float(sum(b[:, k] @ es_hat[k] @ b[:, k] for k in range(n)))
    dual_value = float(np.trace(y_hat))
    status = "converged" if centered and dual_value - primal_value <= gap_tol else "maxIterations"
    dual = vr @ y_hat @ vr.T
    return SdpSolution(view=lambda: (primal, dual), primal_value=primal_value,
                       dual_value=dual_value, iterations=iters, status=status)


def _reweighted_srm(gram: np.ndarray, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Dense POVM [E_k] and dual Y of the SRM of the states with Gram G, reweighted by e^x.

    The SRM of the Gram M = W G W measures the columns m_k of s W M^{-1/2}
    (s = sqrt G, columns the states), renormalised by (sum m m^T)^{-1/2} so that
    sum E_k = I to rounding.  Y = sum rho_k E_k, symmetrised, is scaled by
    q = max(1, max_k s_k^T Y^{-1} s_k), which makes Y >= rho_k and tr Y - P = (q - 1) P.
    """
    g, w, v = _kept_spectrum(gram)
    s = _root(w, v)
    wx = np.exp(x)
    lam, u = np.linalg.eigh(wx[:, None] * g * wx[None, :])
    if w.size < g.shape[0] or lam[0] <= 0.0:
        raise np.linalg.LinAlgError("the reweighted Gram is not numerically positive definite")
    meas = (s * wx) @ (u / np.sqrt(lam)) @ u.T
    t_lam, t_vec = np.linalg.eigh(meas @ meas.T)
    meas = (t_vec / np.sqrt(t_lam)) @ t_vec.T @ meas
    overlap = (s * meas).sum(axis=0)       # s_k . m_k
    y = (s * overlap) @ meas.T
    y = 0.5 * (y + y.T)
    z = solve_triangular(cholesky(y, lower=True), s, lower=True)
    scale = max(1.0, float((z * z).sum(axis=0).max()))
    return [np.outer(m, m) for m in meas.T], scale * y


def _barrier_phi(y: np.ndarray, b: np.ndarray, t: float, n: int):
    """Barrier value t*tr(Y) - n*logdet(Y) - sum_k log(1 - q_k), or None if infeasible."""
    try:
        low = cholesky(y, lower=True)
    except np.linalg.LinAlgError:
        return None
    gh = solve_triangular(low, b, lower=True)
    q = (gh * gh).sum(axis=0)
    if q.max() >= 1.0:
        return None
    val = t * np.trace(y) - 2.0 * n * np.log(np.diag(low)).sum() - np.log1p(-q).sum()
    return val, low, gh, q


def _barrier_solve(b: np.ndarray, gap_tol: float):
    """Path-following on min tr(Y) s.t. Y >= b_k b_k^T. Returns (Y, [E_k], iters, centered).

    Raises numpy.linalg.LinAlgError when an iterate leaves the feasible set or
    the line search finds no decrease."""
    r, n = b.shape
    nu = n * r
    tr_rho_max = float((b * b).sum(axis=0).max())
    y = (1.0 + tr_rho_max) * np.eye(r)
    t = max(1.0, nu / (r * (1.0 + tr_rho_max)))
    t_final = _FINAL_T_MARGIN * nu / gap_tol
    eye_r = np.eye(r)
    iters = 0
    centered = False
    while True:
        target_tol = 1e-10 if t >= t_final else 1e-4
        prev_dec2 = np.inf
        stalls = 0
        while iters < _MAX_ITER:
            state = _barrier_phi(y, b, t, n)
            if state is None:
                raise np.linalg.LinAlgError("barrier iterate left the feasible set")
            val, low, gh, q = state
            c = 1.0 / (1.0 - q)
            # hat-space gradient of the barrier: L^T grad L
            m_hat = (gh * c) @ gh.T
            g_hat = t * (low.T @ low) - n * eye_r - m_hat
            # Newton system: Lyapunov part A X + X A with A = n/2 I + M,
            # plus the rank-n Woodbury correction sum c_k^2 <P_k, .> P_k
            lam, qrot = np.linalg.eigh(0.5 * n * eye_r + m_hat)
            rmat = 1.0 / (lam[:, None] + lam[None, :])
            gt = qrot.T @ gh
            ct = qrot.T @ (-g_hat) @ qrot
            lyap_c = ct * rmat
            z = np.einsum("ik,jk->kij", gt, gt)
            zf = z.reshape(n, -1)
            f = (z * rmat).reshape(n, -1)
            kmat = zf @ f.T + np.diag(1.0 / (c * c))
            beta = zf @ lyap_c.reshape(-1)
            # K = Z (Z o R)^T + diag(1/c^2) is symmetric positive definite
            alpha = np.linalg.solve(kmat, beta)
            delta_rot = (ct - np.einsum("k,kij->ij", alpha, z)) * rmat
            d_hat = qrot @ delta_rot @ qrot.T
            d_hat = 0.5 * (d_hat + d_hat.T)
            dec2 = float(-np.sum(g_hat * d_hat))
            dy = low @ d_hat @ low.T
            dy = 0.5 * (dy + dy.T)
            slope = float(np.sum(g_hat * d_hat))
            step = 1.0
            for _ in range(60):
                nxt = _barrier_phi(y + step * dy, b, t, n)
                if nxt is not None and nxt[0] <= val + 0.25 * step * slope:
                    break
                step *= 0.5
            else:
                raise np.linalg.LinAlgError("barrier line search found no decrease")
            y = y + step * dy
            iters += 1
            if dec2 <= target_tol:
                centered = True
                break
            # accept a plateau only once the decrement is already tiny
            # (its numerical floor), never during the damped phase
            if dec2 < 1e-6 and dec2 > 0.99 * prev_dec2:
                stalls += 1
                if stalls >= 3:
                    centered = True
                    break
            else:
                stalls = 0
            prev_dec2 = dec2
        else:
            break
        if t >= t_final:
            break
        t = min(t * _BARRIER_GROWTH, t_final)
        centered = False
    # primal recovery at the final parameter
    state = _barrier_phi(y, b, t, n)
    if state is None:
        raise np.linalg.LinAlgError("barrier iterate left the feasible set")
    _, low, gh, q = state
    c = 1.0 / (1.0 - q)
    linv = solve_triangular(low, np.eye(r), lower=True)
    y_inv = linv.T @ linv
    h = y_inv @ b                               # r x n, columns h_k
    es = [(y_inv + c[k] * np.outer(h[:, k], h[:, k])) / t for k in range(n)]
    total = np.sum(es, axis=0)
    w, vecs = np.linalg.eigh(0.5 * (total + total.T))
    if w[0] <= 0:
        raise np.linalg.LinAlgError("recovered POVM sum is not positive definite")
    corr = (vecs / np.sqrt(w)) @ vecs.T
    es = [corr @ e @ corr for e in es]
    return y, es, iters, centered and t >= t_final
