"""Closed-form Gram matrices of the edge-detection hypothesis states.

Every block (irrep lam in the unknown-unknown scenario, particle count
ntilde0 in state |0> in the known-unknown scenario) yields a semiseparable
Gram matrix G[k,k'] = v_k u_k' for k <= k', with the joint priors folded in.
Blocks are built in float64 from log-gamma generators.  The inverse of every
non-degenerate block is tridiagonal; for the rescaled unknown-unknown matrix
its entries are known in closed form, and `tridiag_inverse_reference`
reproduces them for verification against dense inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import IO, Optional, Union

import numpy as np
from scipy.special import gammaln

from .combinatorics import IrrepBlock, StringParams, hypothesis_range, sym_dim

__all__ = [
    "KnownBlock",
    "SemiseparableGram",
    "build_gram_known",
    "build_gram_unknown",
    "dump_gram_csv",
    "rescale_gram",
    "tridiag_inverse_reference",
]


@dataclass(frozen=True)
class KnownBlock:
    """Known-unknown sub-problem after counting ntilde0 particles in |0>.

    ``excitations`` = N - ntilde0 is the number of particles outside |0>
    (equal to n_1 for qubits).  Hypotheses are k in {max(excitations,1)..N}
    with priors binom(excitations+d-2, d-2) / (N d^sym_k).
    """

    params: StringParams
    ntilde0: int
    k_range: range = field(repr=False)

    @property
    def excitations(self) -> int:
        return self.params.N - self.ntilde0

    @property
    def n1(self) -> int:
        return self.excitations

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(self.k_range)

    def priors_exact(self) -> list[tuple[int, Fraction]]:
        N, d = self.params.N, self.params.d
        mult = math.comb(self.excitations + d - 2, d - 2)
        return [(k, Fraction(mult, N * sym_dim(k, d))) for k in self.k_range]


@dataclass(frozen=True)
class SemiseparableGram:
    """Gram block held as its semiseparable log-generators.

    G[i, j] = v[i] * u[j] for i <= j (and symmetrically below), where the
    index i runs over the block's hypothesis labels in ascending order,
    u = sqrt(eta * r) and v = sqrt(eta / r).  The priors eta live only in
    ``log_eta`` (``priors`` exponentiates them).  ``log_delta`` holds the
    increments Delta_i = r_i - r_{i+1} (r_n = 0), so that
    G = C C^T with C = diag(v) U diag(sqrt(Delta)), U upper-triangular ones.
    The dense matrix is assembled only when asked for.
    """

    block: Union[IrrepBlock, KnownBlock]
    log_eta: np.ndarray = field(repr=False)
    log_r: np.ndarray = field(repr=False)
    log_delta: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return self.log_eta.shape[0]

    @property
    def labels(self) -> tuple[int, ...]:
        return self.block.labels

    @property
    def priors(self) -> np.ndarray:
        """Joint priors eta_k, the diagonal of G."""
        return np.exp(self.log_eta)

    @property
    def u(self) -> np.ndarray:
        return np.exp(0.5 * (self.log_eta + self.log_r))

    @property
    def v(self) -> np.ndarray:
        return np.exp(0.5 * (self.log_eta - self.log_r))

    @property
    def rank_one(self) -> bool:
        """All states coincide up to their priors: every Delta but the last vanishes."""
        return bool(np.all(np.isneginf(self.log_delta[:-1])))

    @property
    def trace(self) -> float:
        return float(np.sum(self.priors))

    def bidiagonal_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """Squared entries (b^2, c^2) of the upper bidiagonal B = C^{-1}, G^{-1} = B^T B.

        B_kk = b_k = 1/(v_k sqrt(Delta_k)) and B_k,k+1 = -c_k = -1/(v_{k+1} sqrt(Delta_k)),
        exponentiated from the log-generators, so every entry is positive and
        nothing cancels.  A block with some Delta_k = 0 is singular and raises
        ValueError.
        """
        if np.any(np.isneginf(self.log_delta)):
            raise ValueError(f"block {self.block} is singular (some Delta_k = 0)")
        log_v = 0.5 * (self.log_eta - self.log_r)
        return np.exp(-self.log_delta - 2 * log_v), np.exp(-self.log_delta[:-1] - 2 * log_v[1:])

    def inverse_tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of G^{-1} = B^T B (`bidiagonal_factor`):
        b_k^2 + c_{k-1}^2 and -b_k c_k, a sum of squares and a product."""
        b2, c2 = self.bidiagonal_factor()
        diag = b2.copy()
        diag[1:] += c2
        return diag, -np.sqrt(b2[:-1] * c2)

    @cached_property
    def dense(self) -> np.ndarray:
        """The assembled matrix.  It needs u and v inside the normal float64
        range: true for every block up to the particle caps, but known blocks
        with about N/2 excitations leave it from N ~ 2100."""
        with np.errstate(over="ignore", under="ignore"):
            u, v = self.u, self.v
        both = np.concatenate([u, v])
        if not np.all(np.isfinite(both) & (both >= np.finfo(float).tiny)):
            raise ValueError(f"block {self.block} has generators outside the float64 range; "
                             "its dense matrix cannot be assembled")
        upper = np.triu(np.outer(v, u))
        return upper + np.triu(upper, 1).T


def _log_binom(n, r):
    return gammaln(n + 1) - gammaln(r + 1) - gammaln(n - r + 1)


def _log_sym_dim(n, d: int):
    return _log_binom(n + d - 1, d - 1)


def _log_generators(N: int, d: int, lam: Optional[int] = None, e: Optional[int] = None):
    """log eta_k, log r_k and log Delta_k of an unknown (lam) or known (e) block.

    Delta_k comes from the exact ratio r_k / r_{k+1} - 1, so no subtraction
    cancels: lam(N+1-lam) / ((N-k-lam)(k+1-lam)) for unknown blocks and
    e / (k+1-e) for known blocks; it is 0 (log -inf) for lam = 0 or e = 0.
    """
    if lam is not None:
        k = np.arange(max(lam, 1), N - lam + 1, dtype=float)
        log_s = (math.log(N - 2 * lam + 1) + _log_binom(d + lam - 2, d - 2)
                 + _log_binom(d + N - lam - 1, d - 1) - math.log(N - lam + 1))
        log_eta = log_s - math.log(N) - _log_sym_dim(N - k, d) - _log_sym_dim(k, d)
        log_r = _log_binom(N - k, lam) - _log_binom(k, lam)
        ki = k[:-1]
        num, den = lam * (N + 1 - lam), (N - ki - lam) * (ki + 1 - lam)
    else:
        k = np.arange(max(e, 1), N + 1, dtype=float)
        log_eta = _log_binom(e + d - 2, d - 2) - math.log(N) - _log_sym_dim(k, d)
        log_r = -_log_binom(k, e)
        num, den = e, k[:-1] + 1 - e
    with np.errstate(divide="ignore"):
        log_q = np.log(num) - np.log(den)
    log_delta = np.append(log_r[1:] + log_q, log_r[-1])
    return log_eta, log_r, log_delta


def build_gram_unknown(N: int, d: int, lam: int) -> SemiseparableGram:
    """Gram matrix of the unknown-unknown block (N, d, lam).

    Entries sqrt(eta^lam_k eta^lam_k') <Omega^lam_k|Omega^lam_k'> with
    generators u_k = sqrt(eta r_k), r_k = binom(N-k,lam)/binom(k,lam), and
    v_k = sqrt(eta / r_k).
    """
    params = StringParams(N, d)
    k_range = hypothesis_range(N, lam)
    log_eta, log_r, log_delta = _log_generators(N, d, lam=lam)
    block = IrrepBlock(params=params, lam=lam, k_range=k_range)
    return SemiseparableGram(block, log_eta, log_r, log_delta)


def build_gram_known(N: int, d: int, ntilde0: int) -> SemiseparableGram:
    """Gram matrix of the known-unknown block with ntilde0 particles in |0>.

    Entries mult * sqrt(eta_k eta_k') * sqrt(binom(k,e)/binom(k',e)) for
    k <= k', where e = N - ntilde0, mult = binom(e+d-2, d-2) counts the
    aggregated excitation splits and eta_k = 1/(N d^sym_k).  The multiplicity
    is folded into the priors, so the diagonal equals mult/(N d^sym_k) and
    the priors over all blocks sum to 1.  Here r_k = 1/binom(k,e).
    """
    if not 0 <= ntilde0 <= N:
        raise ValueError(f"ntilde0 must be in 0..N, got {ntilde0}")
    params = StringParams(N, d)
    e = N - ntilde0
    log_eta, log_r, log_delta = _log_generators(N, d, e=e)
    block = KnownBlock(params=params, ntilde0=ntilde0, k_range=range(max(e, 1), N + 1))
    return SemiseparableGram(block, log_eta, log_r, log_delta)


def rescale_gram(g: SemiseparableGram) -> SemiseparableGram:
    """Rescaled matrix G~ = [(N/2)^2 / ((d-1)(2j+1))] G of an unknown-unknown block.

    For d = 2 the prefactor reduces to (N/2)^2/(N-2lam+1).  N times this
    matrix tends to the identity entrywise as N grows at fixed j, and its
    inverse is tridiagonal with the closed-form entries of
    `tridiag_inverse_reference`.
    """
    block = g.block
    if not isinstance(block, IrrepBlock):
        raise ValueError("rescale_gram applies to unknown-unknown blocks only")
    N, d = block.params.N, block.params.d
    pref = (N / 2) ** 2 / ((d - 1) * (2 * block.j + 1))
    return SemiseparableGram(block, g.log_eta + math.log(pref), g.log_r, g.log_delta)


def tridiag_inverse_reference(N: int, d: int, j: Union[int, float, Fraction]) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form diagonal and super-diagonal of the inverse of `rescale_gram`'s output.

    Sequences are indexed by m = -j..j (diagonal) and m = -j..j-1
    (super-diagonal); both are invariant under index reversal, matching the
    persymmetry of the block.  The prior convention folds a uniform 1/N into
    the Gram entries, which scales the whole inverse by N relative to the
    bare closed forms.
    """
    jf = Fraction(j).limit_denominator(2)
    if 2 * jf != int(2 * jf):
        raise ValueError(f"j must be integer or half-integer, got {j}")
    h = Fraction(N, 2)
    lam = h - jf
    if lam != int(lam) or not 0 <= int(lam) <= N // 2:
        raise ValueError(f"j={j} does not label an irrep of N={N}")
    if int(lam) == 0:
        raise ValueError("lam = 0 block is rank deficient; its rescaled Gram is singular")

    def bfac(m: Fraction) -> Fraction:
        val = (1 + h + jf) / (h * h)
        val *= Fraction(
            _f(h - jf) * _f(h + jf),
            _f(h - jf + d - 2) * _f(h + jf + d - 1),
        )
        val *= Fraction(
            _f(h - m + d - 1) * _f(h + m + d - 1),
            _f(h - m) * _f(h + m),
        )
        return val

    den = (h - jf) * (h + jf + 1)
    ms = [-jf + i for i in range(int(2 * jf) + 1)]
    diag = np.array(
        [float(N * bfac(m) * (jf * (jf + 1) + h * (h + 1) - 2 * m * m) / den) for m in ms]
    )
    sup = np.array(
        [
            -N
            * math.sqrt(float(bfac(m) * bfac(m + 1)))
            * math.sqrt(float((h - m) * (h + m + 1) * (jf - m) * (jf + m + 1)))
            / float(den)
            for m in ms[:-1]
        ]
    )
    return diag, sup


def _f(x: Fraction) -> int:
    if x != int(x) or x < 0:
        raise ValueError(f"factorial argument must be a nonnegative integer, got {x}")
    return math.factorial(int(x))


def dump_gram_csv(g: SemiseparableGram, stream: IO[str]) -> None:
    """Write the dense block as CSV with hypothesis labels as row/col headers."""
    labels = g.labels
    stream.write("k," + ",".join(str(k) for k in labels) + "\n")
    for i, k in enumerate(labels):
        row = ",".join(format(g.dense[i, jj], ".12g") for jj in range(g.order))
        stream.write(f"{k},{row}\n")
