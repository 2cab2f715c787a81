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
from typing import IO, Sequence, Union

import numpy as np

from .combinatorics import IrrepBlock, StringParams, hypothesis_range, sym_dim

__all__ = [
    "KnownBlock",
    "SemiseparableGram",
    "build_gram_known",
    "build_gram_unknown",
    "dense_gram",
    "dump_gram_csv",
    "log_bidiagonal_squares",
    "log_generators",
    "rescale_gram",
    "tridiag_inverse_reference",
]


@dataclass(frozen=True)
class KnownBlock:
    """Known-unknown sub-problem after counting ntilde0 particles in |0>.

    e = N - ntilde0 particles lie outside |0> (n_1 of them for qubits).  Hypotheses
    are k in {max(e,1)..N} with priors binom(e+d-2, d-2) / (N d^sym_k).
    """

    params: StringParams
    ntilde0: int
    k_range: range = field(repr=False)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(self.k_range)

    def priors_exact(self) -> list[tuple[int, Fraction]]:
        N, d = self.params.N, self.params.d
        mult = math.comb(N - self.ntilde0 + d - 2, d - 2)
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
        """All states coincide up to their priors (`_rank_one`)."""
        return bool(_rank_one(self.log_delta, [0], [-1])[0])

    @property
    def trace(self) -> float:
        return float(np.sum(self.priors))

    def inverse_tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal b_k^2 + c_{k-1}^2 and off-diagonal -b_k c_k of G^{-1} = B^T B
        (`log_bidiagonal_squares`); a singular block (some Delta_k = 0) raises ValueError."""
        if np.any(np.isneginf(self.log_delta)):
            raise ValueError(f"block {self.block} is singular (some Delta_k = 0)")
        b2, c2 = np.exp(log_bidiagonal_squares(self.log_eta, self.log_r, self.log_delta, -1))
        return b2 + np.append(0.0, c2[:-1]), -np.sqrt(b2[:-1] * c2[:-1])

    @cached_property
    def dense(self) -> np.ndarray:
        """The assembled matrix (`dense_gram`)."""
        return dense_gram(self.log_eta, self.log_r, self.block)


def dense_gram(log_eta: np.ndarray, log_r: np.ndarray, block: object) -> np.ndarray:
    """G[i, j] = v_i u_j (i <= j) from one block's log-generators; ``block`` names it in
    errors.  u and v must lie in the normal float64 range: true for every block up to the
    particle caps, but known blocks with about N/2 excitations leave it from N ~ 2100."""
    with np.errstate(over="ignore", under="ignore"):
        u, v = np.exp(0.5 * (log_eta + log_r)), np.exp(0.5 * (log_eta - log_r))
    both = np.concatenate([u, v])
    if not np.all(np.isfinite(both) & (both >= np.finfo(float).tiny)):
        raise ValueError(f"block {block} has generators outside the float64 range; "
                         "its dense matrix cannot be assembled")
    upper = np.triu(np.outer(v, u))
    return upper + np.triu(upper, 1).T


def _log_factorials(N: int) -> np.ndarray:
    """log n! for n = 0..N, each from `math.lgamma`: within 2 ulp, and 3.6e-16 at n = 2."""
    return np.fromiter(map(math.lgamma, range(1, N + 2)), float, N + 1)


def log_generators(scenario: str, N: int, d: int, labels: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Orders and log eta_k, log r_k, log Delta_k of the blocks ``labels`` (lam if unknown,
    ntilde0 if known) of (scenario, N, d), laid end to end in one flat array each.

    Log-binomials of particle counts are lookups lf[n] - lf[r] - lf[n - r] into one table
    of log n!, n = 0..N.  Those that hold d, log binom(d-2+j+n, n) for j = 0 and 1 (the
    latter log sym_dim(n)), are cumulative sums of log1p((d-2+j)/i), i = 1..n, so their
    error does not grow with log (N+d)!.  Delta_k is r_{k+1} times the exact ratio r_k/r_{k+1} - 1,
    lam(N+1-lam) / ((N-k-lam)(k+1-lam)) (unknown) or e / (k+1-e) (known, e = N - ntilde0),
    so nothing cancels; it is 0 for lam = 0 or e = 0.  A block's last Delta is its last r.
    """
    lf = _log_factorials(N)
    steps = np.arange(1, N + 1)
    # log binom(d-2+n, n) and log binom(d-1+n, n) = log sym_dim(n), n = 0..N
    log_mult, log_sym = (np.concatenate(([0.0], np.cumsum(np.log1p((d - 2 + j) / steps))))
                         for j in (0, 1))

    def log_binom(n, r):
        return lf[n] - lf[r] - lf[n - r]

    unknown = scenario == "unknown"
    x = np.asarray(labels) if unknown else N - np.asarray(labels)   # lam or e
    first = np.maximum(x, 1)
    orders = (N - x if unknown else N) - first + 1
    ends = np.cumsum(orders) - 1
    block = np.repeat(np.arange(len(x), dtype=np.int32), orders)
    xk = x.astype(np.int32)[block]
    k = np.arange(len(block), dtype=np.int32) + (first - ends + orders - 1).astype(np.int32)[block]
    if unknown:
        log_s = (np.log(N - 2 * x + 1) + log_mult[x] + log_sym[N - x]
                 - np.log(N - x + 1) - math.log(N))
        log_eta = log_s[block] - log_sym[N - k] - log_sym[k]
        log_r = log_binom(N - k, xk) - log_binom(k, xk)
        num, den = xk * (N + 1.0 - xk), (N - k - xk) * (k + 1.0 - xk)
    else:
        log_eta = (log_mult[x] - math.log(N))[block] - log_sym[k]
        log_r = -log_binom(k, xk)
        num, den = xk, k + 1 - xk
    with np.errstate(divide="ignore", invalid="ignore"):   # at block ends too; replaced below
        log_delta = np.log(num) - np.log(den)
    log_delta[:-1] += log_r[1:]
    log_delta[ends] = log_r[ends]
    return orders, log_eta, log_r, log_delta


def _rank_one(log_delta: np.ndarray, starts, ends) -> np.ndarray:
    """Which blocks laid end to end (`log_generators`) are rank one: all Delta but the last are 0."""
    vanishing = np.isneginf(log_delta)
    vanishing[ends] = True
    return np.logical_and.reduceat(vanishing, starts)


def log_bidiagonal_squares(log_eta: np.ndarray, log_r: np.ndarray, log_delta: np.ndarray,
                           ends) -> tuple[np.ndarray, np.ndarray]:
    """log b_k^2 = -log Delta_k - 2 log v_k and log c_k^2 = -log Delta_k - 2 log v_{k+1} of
    blocks laid end to end (`log_generators`; c^2 = 0 at each block's end ``ends``):
    the squared entries b_k = B_kk, c_k = -B_k,k+1 of B = C^{-1}, G^{-1} = B^T B."""
    log_v2 = log_eta - log_r
    log_b2 = np.negative(log_delta)
    log_c2 = np.empty_like(log_b2)
    np.subtract(log_b2[:-1], log_v2[1:], out=log_c2[:-1])
    log_c2[ends] = -np.inf
    return np.subtract(log_b2, log_v2, out=log_b2), log_c2


def _gram_blocks(scenario: str, N: int, d: int, arguments: Sequence[int]) -> list[SemiseparableGram]:
    """Blocks lam (unknown) or ntilde0 (known) of (scenario, N, d) from one `log_generators` call."""
    params = StringParams(N, d)
    if scenario == "unknown":
        blocks = [IrrepBlock(params, a, k_range=hypothesis_range(N, a)) for a in arguments]
    elif all(0 <= a <= N for a in arguments):
        blocks = [KnownBlock(params, a, k_range=range(max(N - a, 1), N + 1)) for a in arguments]
    else:
        raise ValueError(f"ntilde0 must be in 0..N, got {[a for a in arguments if not 0 <= a <= N]}")
    orders, *flat = log_generators(scenario, N, d, arguments)
    return [SemiseparableGram(block, *(g[end - n:end] for g in flat))
            for block, n, end in zip(blocks, orders.tolist(), np.cumsum(orders).tolist())]


def build_gram_unknown(N: int, d: int, lam: int) -> SemiseparableGram:
    """Gram matrix of the unknown-unknown block (N, d, lam).

    Entries sqrt(eta^lam_k eta^lam_k') <Omega^lam_k|Omega^lam_k'> with
    generators u_k = sqrt(eta r_k), r_k = binom(N-k,lam)/binom(k,lam), and
    v_k = sqrt(eta / r_k).
    """
    return _gram_blocks("unknown", N, d, [lam])[0]


def build_gram_known(N: int, d: int, ntilde0: int) -> SemiseparableGram:
    """Gram matrix of the known-unknown block with ntilde0 particles in |0>.

    Entries mult * sqrt(eta_k eta_k') * sqrt(binom(k,e)/binom(k',e)) for
    k <= k', where e = N - ntilde0, mult = binom(e+d-2, d-2) counts the
    aggregated excitation splits and eta_k = 1/(N d^sym_k).  The multiplicity
    is folded into the priors, so the diagonal equals mult/(N d^sym_k) and
    the priors over all blocks sum to 1.  Here r_k = 1/binom(k,e).
    """
    return _gram_blocks("known", N, d, [ntilde0])[0]


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
