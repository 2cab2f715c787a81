"""Counting formulas and Schur-basis machinery for two-domain qudit strings.

A string of N qudits split into two uniform domains decomposes over the
two-row irreps [N-lam, lam], lam = 0..floor(N/2).  This module provides the
symmetric-subspace and irrep dimensions, the joint priors eta^lam_k of edge
position k and irrep outcome lam, the closed-form overlaps of the conditioned
states, and a brute-force recursion oracle (Clebsch-Gordan coupling over
Yamanouchi sequences) that verifies those overlaps for small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "CapacityError",
    "IrrepBlock",
    "ORACLE_MAX_PARTICLES",
    "SchurVector",
    "StringParams",
    "cg_coefficient",
    "hypothesis_range",
    "irrep_dim",
    "omega_vector",
    "overlap_closed",
    "overlap_oracle",
    "priors",
    "sym_dim",
]

# Yamanouchi amplitude maps grow combinatorially; the oracle is for
# verification only and is capped to keep runs under seconds.
ORACLE_MAX_PARTICLES = 14


class CapacityError(RuntimeError):
    """A size guard (oracle cap, solver cap) was exceeded."""


@dataclass(frozen=True)
class StringParams:
    """Particle count N and local dimension d of the string."""

    N: int
    d: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")


def sym_dim(n: int, d: int) -> int:
    """Dimension binom(d+n-1, d-1) of the symmetric subspace of n qudits."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return math.comb(d + n - 1, d - 1)


def irrep_dim(N: int, d: int, lam: int) -> int:
    """Dimension s_lam of the SU(d) irrep with two-row label [N-lam, lam]."""
    _check_lambda(N, lam)
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    num = (N - 2 * lam + 1) * math.comb(d + lam - 2, d - 2) * math.comb(d + N - lam - 1, d - 1)
    den = N - lam + 1
    assert num % den == 0
    return num // den


def hypothesis_range(N: int, lam: int) -> range:
    """Edge positions K_lam = {max(lam,1), ..., N-lam} compatible with outcome lam."""
    _check_lambda(N, lam)
    return range(max(lam, 1), N - lam + 1)


def priors(N: int, d: int, lam: int) -> list[tuple[int, Fraction]]:
    """Exact joint priors eta^lam_k = s_lam / (N d^sym_{N-k} d^sym_k) over K_lam."""
    s_lam = Fraction(irrep_dim(N, d, lam))
    return [
        (k, s_lam / (N * sym_dim(N - k, d) * sym_dim(k, d)))
        for k in hypothesis_range(N, lam)
    ]


@dataclass(frozen=True)
class IrrepBlock:
    """One discrimination sub-problem: irrep lam of the string (N, d).

    Its hypotheses are the edge positions in ``k_range``; the exact joint
    priors eta^lam_k are ``priors_exact()``, and they sum to 1 over all
    blocks of fixed (N, d).
    """

    params: StringParams
    lam: int
    k_range: range = field(repr=False)

    @property
    def j(self) -> float:
        """Spin surrogate j = N/2 - lam."""
        return self.params.N / 2 - self.lam

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(self.k_range)

    def priors_exact(self) -> list[tuple[int, Fraction]]:
        return priors(self.params.N, self.params.d, self.lam)


def cg_coefficient(q_n: int, alpha_n: int, n: int, lam: int, w: int) -> float:
    """Clebsch-Gordan factor for coupling particle n in state alpha_n.

    (lam, w) are the two-row irrep label and weight *after* the coupling;
    q_n = 1 (2) appends step n to the first (second) row.
    """
    if q_n not in (1, 2) or alpha_n not in (0, 1):
        raise ValueError(f"q_n must be 1|2 and alpha_n 0|1, got ({q_n}, {alpha_n})")
    if q_n == 1:
        den = n - 2 * lam
        num = (n - lam - w) if alpha_n == 0 else (w - lam)
        sign = 1.0
    else:
        den = n - 2 * lam + 2
        num = (w - lam + 1) if alpha_n == 0 else (n - lam - w + 1)
        sign = -1.0 if alpha_n == 0 else 1.0
    if den <= 0 or num < 0 or num > den:
        raise ValueError(
            f"invalid coupling step: q_n={q_n}, alpha_n={alpha_n}, n={n}, lam={lam}, w={w}"
        )
    return sign * math.sqrt(num / den)


@dataclass(frozen=True)
class SchurVector:
    """State |Omega^lam_alpha> in the S_N irrep basis {|lam, q>}.

    Yamanouchi sequences q are packed as integers: bit (l-1) is set iff
    q_l = 2 (step l sits in the second row).
    """

    N: int
    lam: int
    amplitudes: dict[int, float] = field(repr=False)

    def norm(self) -> float:
        return math.sqrt(sum(a * a for a in self.amplitudes.values()))

    def dot(self, other: "SchurVector") -> float:
        if (self.N, self.lam) != (other.N, other.lam):
            raise ValueError("Schur vectors live in different irreps")
        small, big = sorted((self.amplitudes, other.amplitudes), key=len)
        return sum(a * big[q] for q, a in small.items() if q in big)


def yamanouchi_valid(q_bits: int, N: int, lam: int) -> bool:
    """True iff the packed sequence is a standard two-row tableau for [N-lam, lam]."""
    twos = 0
    for l in range(N):
        if q_bits >> l & 1:
            twos += 1
            if 2 * twos > l + 1:
                return False
    return twos == lam


def _yamanouchi_sequences(N: int, lam: int) -> list[int]:
    """All valid packed sequences, enumerated with prefix pruning."""
    out: list[int] = []

    def extend(bits: int, pos: int, twos: int) -> None:
        if pos == N:
            if twos == lam:
                out.append(bits)
            return
        remaining = N - pos
        if twos < lam and 2 * (twos + 1) <= pos + 1:
            extend(bits | 1 << pos, pos + 1, twos + 1)
        if lam - twos <= remaining - 1 or twos == lam:
            extend(bits, pos + 1, twos)

    extend(0, 0, 0)
    return out


def omega_vector(N: int, k: int, lam: int) -> SchurVector:
    """Explicit |Omega^lam_k> for the ordered sequence alpha(k) = (0^(N-k) 1^k).

    Built by the Clebsch-Gordan recursion at d = 2 (the vector is independent
    of d for two-row irreps), normalized, with global phase (-1)^lam so that
    omega_vector(N, lam, lam) is (-1)^lam times a single basis element.
    """
    if N > ORACLE_MAX_PARTICLES:
        raise CapacityError(f"omega_vector capped at N <= {ORACLE_MAX_PARTICLES}, got {N}")
    if k not in hypothesis_range(N, lam):
        raise ValueError(f"k={k} outside K_lam for N={N}, lam={lam}")
    w = k  # weight of alpha(k) = number of 1s
    # normalization lam!(1+N-lam)! / ((N-w)! (1+N-2lam) w!): the last factor is
    # the linear irrep dimension 2j+1, not its factorial (unit norm requires it)
    norm_const = math.sqrt(
        math.factorial(lam)
        * math.factorial(1 + N - lam)
        / (
            math.factorial(N - w)
            * (1 + N - 2 * lam)
            * math.factorial(w)
        )
    )
    phase = -1.0 if lam % 2 else 1.0
    amps: dict[int, float] = {}
    for q_bits in _yamanouchi_sequences(N, lam):
        amp = 1.0
        cur_lam = cur_w = 0
        for n in range(1, N + 1):
            q_n = 2 if q_bits >> (n - 1) & 1 else 1
            alpha_n = 1 if n > N - k else 0
            if q_n == 2:
                cur_lam += 1
            cur_w += alpha_n
            step = cg_coefficient(q_n, alpha_n, n, cur_lam, cur_w)
            # a zero step leaves the irrep's weight range; stopping here keeps
            # every later step (whose radicand would go negative) uncomputed
            if step == 0.0:
                amp = 0.0
                break
            amp *= step
        if amp != 0.0:
            amps[q_bits] = phase * norm_const * amp
    return SchurVector(N=N, lam=lam, amplitudes=amps)


def overlap_oracle(N: int, k: int, k2: int, lam: int) -> float:
    """<Omega^lam_k | Omega^lam_k2> by explicit amplitude contraction."""
    return omega_vector(N, k, lam).dot(omega_vector(N, k2, lam))


def overlap_closed(N: int, k: int, k2: int, lam: int) -> float:
    """Closed-form overlap sqrt(binom(k,lam) binom(N-k2,lam) / (binom(k2,lam) binom(N-k,lam)))."""
    for kk in (k, k2):
        if kk not in hypothesis_range(N, lam):
            raise ValueError(f"k={kk} outside K_lam for N={N}, lam={lam}")
    if k > k2:
        k, k2 = k2, k
    ratio = Fraction(
        math.comb(k, lam) * math.comb(N - k2, lam),
        math.comb(k2, lam) * math.comb(N - k, lam),
    )
    return math.sqrt(float(ratio))


def _check_lambda(N: int, lam: int) -> None:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0 <= lam <= N // 2:
        raise ValueError(f"lam must satisfy 0 <= lam <= floor(N/2), got lam={lam}, N={N}")
