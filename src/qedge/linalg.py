"""Dense symmetric linear algebra and the discrimination SDP solver.

The discrimination problem on one Gram block reads

    maximize   sum_k [sqrtG]_k^T E_k [sqrtG]_k
    s.t.       E_k >= 0,  sum_k E_k = I,

whose dual is  min tr(Y) s.t. Y >= rho_k := g_k g_k^T  for every column g_k
of sqrtG.  The solver takes G itself, whose kept eigenpairs give those columns
in its numerical range.

One eigendecomposition of G, deflated once, serves every branch.
Linearly independent states (G of full rank) are measured optimally by the
square-root measurement of a reweighted ensemble (Mochon, PRA 73, 032328,
2006), so a damped Newton iteration on the log-weights finds the optimum.  It
starts at the SRM (weights 1, where W G W = G), whose eigenpairs are those of
G, and takes one eigendecomposition of W G W per further step; the POVM is
renormalised and the dual Y = sum_k rho_k E_k scaled until it is feasible,
which makes the gap a true bound.

Linearly dependent states follow the central path of the dual log-det
barrier.  Each constraint is a rank-one downdate of Y, so Sherman-Morrison
reduces the barrier Hessian to a Lyapunov operator plus a rank-n correction,
solved per Newton step by one eigendecomposition plus a Woodbury system of
order n.
Primal matrices are recovered from the barrier optimality condition
E_k = S_k^{-1}/t and renormalized so that sum_k E_k = I exactly.

A solve that breaks down numerically raises `numpy.linalg.LinAlgError`
instead of returning a solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
_STATIONARITY_TOL = 1e-13   # reweighting stops once max |F - mean F| is below this
_STEP_TOL = 1e-15           # ... or once a step moves no log-weight by more than this
_MIN_DAMPING = 2.0 ** -30   # ... or once backtracking finds no decrease above this damping
_MAX_NEWTON = 100           # guard only: quadratic convergence takes about 10 steps


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


@dataclass
class SdpSolution:
    """Primal POVM, dual certificate, and diagnostics of one block solve."""

    primal: list[np.ndarray] = field(repr=False)
    dual: np.ndarray = field(repr=False)
    primal_value: float = 0.0
    dual_value: float = 0.0
    iterations: int = 0
    status: str = "converged"   # converged (gap <= gap_tol) | gapExceeded | maxIterations

    @property
    def gap(self) -> float:
        """Duality gap tr Y - P, an upper bound on the distance to the optimum."""
        return self.dual_value - self.primal_value


def solve_discrimination_sdp(gram: np.ndarray, gap_tol: float = 1e-8) -> SdpSolution:
    """Optimal-discrimination SDP for the pure-state block with Gram matrix ``gram``.

    Returns primal POVM matrices E_k (sum = identity), the dual certificate Y
    with Y >= rho_k, and the duality gap.  One eigendecomposition of the Gram
    gives its kept eigenpairs (w, V_r), deflated as in `psd_sqrt`; every
    branch starts from them.  A block of rank at most one (identical states)
    is solved exactly by always guessing the hypothesis of largest prior
    (lowest index on ties): gap 0 and no Newton step.  Linearly independent states (full rank) are solved by Newton on the
    weights of a reweighted square-root measurement (`_reweighted_srm`);
    dependent states by the barrier method (`_barrier_solve`) on the states
    b_k, the columns of (V_r sqrt(w))^T, with the identity remainder on the
    null space assigned to the hypothesis of largest prior.  ``iterations``
    counts Newton steps of either method.
    Raises NotPsdError on an indefinite Gram, ValueError unless 0 < gap_tol < inf,
    and numpy.linalg.LinAlgError when the solve breaks down numerically.
    """
    _check_gap_tol(gap_tol)
    g, w, vr = _kept_spectrum(gram)
    n = vr.shape[0]
    b = (vr * np.sqrt(w)).T                # r x n, columns b_k

    if w.size <= 1:
        return _rank_one_solution(b, vr)
    if w.size == n:
        return _reweighted_srm(g, w, vr, gap_tol)

    y_hat, es_hat, iters, centered = _barrier_solve(b, gap_tol)
    # lift to the original coordinates; null-space remainder goes to k_star
    null_proj = np.eye(n) - vr @ vr.T
    primal = [vr @ e @ vr.T for e in es_hat]
    k_star = _largest_prior((b * b).sum(axis=0))
    primal[k_star] = primal[k_star] + null_proj
    dual = vr @ y_hat @ vr.T
    primal_value = float(sum(b[:, k] @ es_hat[k] @ b[:, k] for k in range(n)))
    dual_value = float(np.trace(y_hat))
    status = "converged" if centered and dual_value - primal_value <= gap_tol else "maxIterations"
    return SdpSolution(primal=primal, dual=dual, primal_value=primal_value,
                       dual_value=dual_value, iterations=iters, status=status)


def _largest_prior(priors: np.ndarray) -> int:
    """Index of the largest prior, the lowest index among priors equal to 12 digits."""
    return int(np.argmax(np.round(priors / max(priors.max(), 1e-300), 12)))


def _weighted_root(g: np.ndarray, x: np.ndarray):
    """`_root_state` of M = W G W with W = diag(e^x)."""
    wx = np.exp(x)
    return _root_state(x, *np.linalg.eigh(wx[:, None] * g * wx[None, :]))


def _root_state(x: np.ndarray, lam: np.ndarray, u: np.ndarray):
    """Eigenpairs (lam, U) of M, the diagonal of S = M^{1/2}, and the stationarity
    residual F - mean F, F_k = log S_kk - 2 x_k.  None when M is not numerically
    positive definite."""
    if lam[0] <= 0.0:
        return None
    root_diag = (u * u) @ np.sqrt(lam)
    f = np.log(root_diag) - 2.0 * x
    return lam, u, root_diag, f - f.mean()


def _newton_step(x: np.ndarray, lam: np.ndarray, u: np.ndarray, root_diag: np.ndarray,
                 resid: np.ndarray) -> np.ndarray:
    """Newton step on F(x) - c = 0 bordered with the gauge sum(x) = 0.

    dS_kk/dx_j = sum_pq U_kp U_kq U_jp U_jq (lam_p + lam_q) / (sqrt lam_p + sqrt lam_q)
    (Daleckii-Krein), evaluated as the row sums of (P H) * P with P[kj, p] = U_kp U_jp.
    """
    n = x.size
    rl = np.sqrt(lam)
    h = (lam[:, None] + lam[None, :]) / (rl[:, None] + rl[None, :])
    pairs = (u[:, None, :] * u[None, :, :]).reshape(n * n, n)
    jac = ((pairs @ h) * pairs).sum(axis=1).reshape(n, n) / root_diag[:, None]
    border = np.zeros((n + 1, n + 1))
    border[:n, :n] = jac - 2.0 * np.eye(n)
    border[:n, n] = -1.0
    border[n, :n] = 1.0
    rhs = np.append(-resid, -x.sum())
    return np.linalg.solve(border, rhs)[:n]


def _reweighted_srm(g: np.ndarray, w: np.ndarray, v: np.ndarray, gap_tol: float) -> SdpSolution:
    """Optimal POVM for linearly independent states: the SRM of a reweighted ensemble.

    For states with Gram G and weights w = e^x, the SRM of the ensemble with
    Gram M = W G W measures the vectors m_k, columns of s W M^{-1/2} (s = sqrt G,
    columns the states), and succeeds with sum_k (S_kk / w_k)^2, S = M^{1/2}.
    It is optimal exactly when S_kk / w_k^2 is the same for every k (Mochon,
    PRA 73, 032328, 2006).  A damped Newton iteration from the SRM (x = 0,
    where M = G and (w, v) are its eigenpairs) drives max |F - mean F| down
    until it is below _STATIONARITY_TOL, the backtracking finds no decrease,
    or the step is below _STEP_TOL.

    The certificate is built from the final state: the m_k renormalised by
    (sum m m^T)^{-1/2}, so that sum E_k = I to rounding; Y = sum rho_k E_k
    symmetrised and scaled by q = max(1, max_k s_k^T Y^{-1} s_k), which makes
    Y >= rho_k; and the gap tr Y - P = (q - 1) P >= 0, an upper bound on the
    distance to the optimum.
    """
    s = _root(w, v)
    x = np.zeros(g.shape[0])
    state = _root_state(x, w, v)
    resid_max = float(np.abs(state[3]).max())
    steps = 0
    while resid_max > _STATIONARITY_TOL and steps < _MAX_NEWTON:
        dx = _newton_step(x, *state)
        alpha = 1.0
        while alpha >= _MIN_DAMPING:
            trial = _weighted_root(g, x + alpha * dx)
            if trial is not None:
                trial_max = float(np.abs(trial[3]).max())
                if trial_max <= (1.0 - 1e-4 * alpha) * resid_max:
                    break
            alpha *= 0.5
        else:
            break                          # no decrease along the step: stalled
        x = x + alpha * dx
        state, resid_max = trial, trial_max
        steps += 1
        if alpha * np.abs(dx).max() <= _STEP_TOL:
            break

    lam, u = state[0], state[1]
    meas = (s * np.exp(x)) @ (u / np.sqrt(lam)) @ u.T
    t_lam, t_vec = np.linalg.eigh(meas @ meas.T)
    meas = (t_vec / np.sqrt(t_lam)) @ t_vec.T @ meas
    primal = [np.outer(m, m) for m in meas.T]
    overlap = (s * meas).sum(axis=0)       # s_k . m_k
    y = (s * overlap) @ meas.T
    y = 0.5 * (y + y.T)
    primal_value = float(np.trace(y))
    z = solve_triangular(cholesky(y, lower=True), s, lower=True)
    scale = max(1.0, float((z * z).sum(axis=0).max()))
    dual_value = scale * primal_value
    status = "converged" if dual_value - primal_value <= gap_tol else "gapExceeded"
    return SdpSolution(primal=primal, dual=scale * y, primal_value=primal_value,
                       dual_value=dual_value, iterations=steps, status=status)


def _rank_one_solution(b: np.ndarray, vr: np.ndarray) -> SdpSolution:
    """Identical-states block: optimum is the largest prior, achieved by always guessing k*."""
    n = vr.shape[0]
    diag_g = (b * b).sum(axis=0)
    k_star = _largest_prior(diag_g)
    val = float(diag_g[k_star])
    primal = [np.zeros((n, n)) for _ in range(n)]
    primal[k_star] = np.eye(n)
    dual = val * vr @ vr.T
    return SdpSolution(primal=primal, dual=dual, primal_value=val, dual_value=val,
                       iterations=0, status="converged")


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
            try:
                alpha = np.linalg.solve(kmat, beta)
            except np.linalg.LinAlgError:
                alpha = np.linalg.lstsq(kmat, beta, rcond=None)[0]
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
