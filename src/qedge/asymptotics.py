"""Large-N limits of the success probability and their special-function checks.

The leading-order joint probability admits an even-power series
(N/2)P(x) = sum_r a_r x^(2r) in the scaled spin x = 2j/N, with exact rational
coefficients shipped as a data asset for d in {2, 3, 4, 8}.  Pade acceleration
of that series (directly, or of its term-wise primitive) produces the
limiting success probability p0(d); the same limit follows independently from
the known-states change-point average, an integral of the squared complete
elliptic integral against the qudit overlap measure.  The N >> d >> 1 regime
is governed by Dawson's integral.  Both limit integrals are Gauss rules on node arrays.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .discrimination import _srm_values
from .gram import log_generators

__all__ = [
    "CoefficientEstimate",
    "DegeneratePadeError",
    "LimitEstimate",
    "NotTabulatedError",
    "PadeApproximant",
    "RationalCoefficientTable",
    "coefficient_table",
    "dawson",
    "elliptic_k",
    "estimate_low_order_coeffs",
    "large_d_limit",
    "p0_known",
    "p0_via_integral",
    "p0_via_primitive",
    "pade",
]

_DATA_FILE = "maclaurin_coefficients.txt"
_DATA_ENV = "QEDGE_DATA_DIR"


class NotTabulatedError(ValueError):
    """No embedded coefficient table for this local dimension.

    `estimate_low_order_coeffs` still gives a numeric low-order estimate for
    any d; only the exact rational data is restricted to d in {2, 3, 4, 8}.
    """


class DegeneratePadeError(ArithmeticError):
    """The Pade matching system is singular, or the approximant's integral does not converge."""


@dataclass(frozen=True)
class RationalCoefficientTable:
    """Exact series coefficients a_1..a_R for one local dimension."""

    d: int
    coeffs: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.coeffs)

    def series_in_z(self) -> list[Fraction]:
        """Coefficients of sum_r a_r z^r as a plain list [0, a_1, ..., a_R], z = x^2."""
        return [Fraction(0), *self.coeffs]


_TABLE_CACHE: dict[Path, dict[int, RationalCoefficientTable]] = {}


def _data_path() -> Path:
    override = os.environ.get(_DATA_ENV)
    if override:
        return Path(override) / _DATA_FILE
    return Path(resources.files("qedge").joinpath("_data", _DATA_FILE))


def _load_tables() -> dict[int, RationalCoefficientTable]:
    path = _data_path()
    if path in _TABLE_CACHE:
        return _TABLE_CACHE[path]
    text = path.read_text()
    payload_lines = []
    checksum = None
    for line in text.splitlines():
        if line.startswith("# sha256:"):
            checksum = line.split(":", 1)[1].strip()
        elif line.startswith("#") or not line.strip():
            continue
        else:
            payload_lines.append(line)
    payload = "\n".join(payload_lines) + "\n"
    digest = hashlib.sha256(payload.encode()).hexdigest()
    if checksum is None or digest != checksum:
        raise ValueError(f"coefficient asset checksum mismatch ({digest} != {checksum})")
    raw: dict[int, dict[int, Fraction]] = {}
    for line in payload_lines:
        d_str, r_str, num, den = line.split(",")
        raw.setdefault(int(d_str), {})[int(r_str)] = Fraction(int(num), int(den))
    tables: dict[int, RationalCoefficientTable] = {}
    for d, entries in raw.items():
        rs = sorted(entries)
        if rs != list(range(1, len(rs) + 1)):
            raise ValueError(f"coefficient asset rows for d={d} are not contiguous")
        tables[d] = RationalCoefficientTable(d=d, coeffs=tuple(entries[r] for r in rs))
    _TABLE_CACHE[path] = tables
    return tables


def coefficient_table(d: int) -> RationalCoefficientTable:
    """Embedded exact coefficients a_r for d in {2, 3, 4, 8}."""
    tables = _load_tables()
    if d not in tables:
        raise NotTabulatedError(
            f"no embedded coefficients for d={d} (available: {sorted(tables)}); "
            "use estimate_low_order_coeffs for a numeric low-order estimate"
        )
    return tables[d]


@dataclass(frozen=True)
class PadeApproximant:
    """Rational function [n/m] in one variable with exact coefficients.

    ``numer``/``denom`` hold A_0..A_n and B_1..B_m (denominator constant term
    is 1).  ``defects`` lists real denominator roots found in [0, 1 + 1e-6];
    accepted approximants have none.
    """

    order: tuple[int, int]
    numer: tuple[Fraction, ...]
    denom: tuple[Fraction, ...]
    defects: tuple[float, ...] = ()

    def __call__(self, z):
        """Value at z, a float or an array, by Horner's rule in float64."""
        num = np.polyval([float(a) for a in reversed(self.numer)], z)
        den = np.polyval([float(b) for b in reversed((Fraction(1), *self.denom))], z)
        return num / den

    def expansion(self, upto: int) -> list[Fraction]:
        """Maclaurin coefficients of numer/denom through order ``upto``."""
        out: list[Fraction] = []
        for s in range(upto + 1):
            acc = self.numer[s] if s <= self.order[0] else Fraction(0)
            for q in range(1, min(len(self.denom), s) + 1):
                acc -= self.denom[q - 1] * out[s - q]
            out.append(acc)
        return out


def pade(series: list[Fraction], n: int, m: int) -> PadeApproximant:
    """Pade approximant [n/m] of a Maclaurin series, solved in integers.

    ``series`` lists the coefficients of z^0, z^1, ... and must reach order
    n + m.  Scaled to one common denominator L, c_s = C_s / L with integers C_s,
    the matching system sum_{q=1..m} B_q C_{s-q} = -C_s (s = n+1..n+m) takes one
    integer solve (`_solve_exact`), B_q = b_q / D.  With b_0 = D, the re-expansion
    of numer/denom equals the series through order n + m exactly when the integer
    residuals sum_{q=0..m} b_q C_{s-q} vanish for s = n+1..n+m (below that it holds
    by construction); a nonzero one, or a singular system, raises DegeneratePadeError.
    The numerator is A_s = sum_{q=0..min(m,s)} b_q C_{s-q} / (D L).
    """
    if len(series) < n + m + 1:
        raise ValueError(f"series must reach order n+m={n+m}, got {len(series) - 1}")
    series = [Fraction(c) for c in series[:n + m + 1]]
    scale = math.lcm(*(c.denominator for c in series))
    ints = [c.numerator * (scale // c.denominator) for c in series]
    solved = _solve_exact([[ints[s - q] if s - q >= 0 else 0 for q in range(1, m + 1)] + [-ints[s]]
                           for s in range(n + 1, n + m + 1)])
    if solved is None:
        raise DegeneratePadeError(f"singular Pade system at order [{n}/{m}]")
    numers, det = solved
    b = [det, *numers]

    def convolved(s: int) -> int:   # sum_q b_q C_{s-q}
        return sum(b[q] * ints[s - q] for q in range(min(m, s) + 1))

    if any(convolved(s) for s in range(n + 1, n + m + 1)):
        raise DegeneratePadeError(f"re-expansion mismatch at order [{n}/{m}]")
    denom = tuple(Fraction(x, det) for x in numers)
    return PadeApproximant(order=(n, m), numer=tuple(Fraction(convolved(s), det * scale)
                                                     for s in range(n + 1)),
                           denom=denom, defects=_denominator_roots(denom))


def _solve_exact(rows: list[list[int]]) -> tuple[list[int], int] | None:
    """Solution of the square integer system [A | b] as numerators x_i over one
    determinant D, x = (x_i / D); None if A is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 565, 1968): every
    entry stays an integer minor of the system, so each division by the previous pivot
    is exact, and the last pivot D = +-det A is the one denominator of the solution.
    """
    rows = list(rows)
    size, prev = len(rows), 1
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot_row = rows[col]
        pivot = pivot_row[col]
        for r, row in enumerate(rows):
            if r != col:
                factor = row[col]
                rows[r] = [(pivot * x - factor * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    return [row[size] for row in rows], prev


def _denominator_roots(denom: tuple[Fraction, ...]) -> tuple[float, ...]:
    """Real roots of 1 + sum B_q z^q inside [0, 1 + 1e-6], from the companion-matrix
    eigenvalues (np.roots); roots closer than 1e-9 count once."""
    roots = np.roots([float(b) for b in denom[::-1]] + [1.0])
    out: list[float] = []
    for z in sorted(float(root.real) for root in roots if abs(root.imag) < 1e-9):
        if -1e-12 <= z <= 1.0 + 1e-6 and (not out or z - out[-1] > 1e-9):
            out.append(z)
    return tuple(out)


@dataclass(frozen=True)
class LimitEstimate:
    """A limiting-probability estimate with its spread-based error estimate."""

    value: float
    error: float
    order: tuple[int, int]


def _accepted(
    series: list[Fraction], orders: list[tuple[int, int]], what: str
) -> list[PadeApproximant]:
    """The first two defect-free Pade approximants of ``series`` among ``orders``, in order.

    Orders whose matching system is singular or whose denominator has a real
    root in [0, 1] are skipped; if none is left, DegeneratePadeError names ``what``.
    """
    out: list[PadeApproximant] = []
    for n, m in orders:
        try:
            approx = pade(series, n, m)
        except DegeneratePadeError:
            continue
        if not approx.defects:
            out.append(approx)
            if len(out) == 2:
                break
    if not out:
        raise DegeneratePadeError(f"all {what} Pade orders defective")
    return out


def _spread(values: list[float]) -> float:
    return abs(values[0] - values[1]) if len(values) > 1 else float("nan")


def p0_via_integral(d: int) -> LimitEstimate:
    """Limiting success probability as the integral over x in [0,1] of the highest
    accepted diagonal Pade [s/s] of (N/2)P(x) in z = x^2; error = spread to the
    next accepted order."""
    table = coefficient_table(d)
    orders = [(s, s) for s in range(len(table) // 2, 0, -1)]
    accepted = _accepted(table.series_in_z(), orders, f"d={d} diagonal")
    vals = [_integral_01(lambda x, a=a: a(x * x)) for a in accepted]
    return LimitEstimate(value=vals[0], error=_spread(vals), order=accepted[0].order)


def _integral_01(f) -> float:
    """Integral over [0, 1] of f, which takes the node array, on Gauss-Legendre rules
    of 64, 128, 256 and 512 nodes: the first sum within 1e-13 relative of the one
    before.  A pole just past x = 1 slows the rules down (d = 2 needs 256 nodes);
    raises DegeneratePadeError if no two successive sums agree."""
    prev = None
    for n in (64, 128, 256, 512):
        t, w = _gauss_rule(np.polynomial.legendre.leggauss, n)
        val = 0.5 * float(w @ f(0.5 * (t + 1.0)))
        if prev is not None and abs(val - prev) <= 1e-13 * abs(val):
            return val
        prev = val
    raise DegeneratePadeError("Pade integral did not converge on 512 Gauss-Legendre nodes")


@lru_cache(maxsize=8)
def _gauss_rule(rule, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of numpy's n-node Gauss ``rule`` (leggauss or
    laggauss), built once each: a build is an eigensolve of order n, 13 ms at n = 256."""
    x, w = rule(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def p0_via_primitive(d: int) -> LimitEstimate:
    """Limiting success probability as Q(1) for the primitive Q(x) = sum a_r x^(2r+1)/(2r+1),
    evaluated through the highest accepted off-diagonal Pade of Q(x)/x in z = x^2."""
    table = coefficient_table(d)
    gseries = [table.coeffs[r - 1] / (2 * r + 1) for r in range(1, len(table) + 1)]
    # interleaved sequence {Q^{2n-1}_{2n}, Q^{2n+1}_{2n}}: in z these are
    # [n-1/n] and [n/n] of Q/x; descending total order 4n+1, 4n-1, ...
    orders = [o for n in range((len(gseries) - 1) // 2, 0, -1) for o in ((n, n), (n - 1, n))]
    accepted = _accepted(gseries, orders, f"d={d} primitive-route")
    vals = [a(1.0) for a in accepted]
    n, m = accepted[0].order
    # report the order of Q itself ([2n+1/2m] in x)
    return LimitEstimate(value=vals[0], error=_spread(vals), order=(2 * n + 1, 2 * m))


def elliptic_k(m: float) -> float:
    """Complete elliptic integral K(m), parameter convention (`_elliptic_k_from_complement`)."""
    if not 0.0 <= m < 1.0:
        raise ValueError(f"parameter must satisfy 0 <= m < 1, got {m}")
    return float(_elliptic_k_from_complement(np.array([1.0 - m]))[0])


def _elliptic_k_from_complement(mc: np.ndarray) -> np.ndarray:
    """K(1 - mc) = pi / (2 AGM(1, sqrt(mc))) elementwise (Abramowitz & Stegun 17.6), for
    0 < mc <= 1 and stable for tiny mc; perfbench's tracer spans it."""
    a, b = np.ones_like(mc), np.sqrt(mc)
    while np.any(a - b > 1e-9 * a):   # one more mean after this is exact to rounding
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return math.pi / (a + b)


def p0_known(d: int) -> float:
    """Average limiting success probability when both domain states are known.

    Integral over t = c^2 of 4(1-t)/pi^2 K(t)^2 (d-1)(1-t)^(d-2); substituting
    t = 1 - exp(-s) removes the squared-log endpoint singularity at t = 1 and
    leaves 4(d-1)/pi^2 K(1 - e^-s)^2 against the weight e^(-ds), whose peak has
    width 1/d.  A Gauss-Laguerre rule in u = ds follows that peak for every d.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    # numpy's Laguerre rules lose accuracy as n grows: against a 30-digit reference,
    # 16 nodes are within 5.2e-16 relative for d = 2..10^6, 64 nodes 1.2e-14 off at d = 2.
    u, w = _gauss_rule(np.polynomial.laguerre.laggauss, 16)
    # complement exp(-s) is exact where 1 - exp(-s) would round to 1
    k = _elliptic_k_from_complement(np.exp(-u / d))
    return 4.0 * (d - 1) / (math.pi**2 * d) * float(w @ (k * k))


# Both of dawson's series are within 1.2e-15 of a 40-digit reference on either side of this y.
_DAWSON_SPLIT = 6.0


def dawson(y: float) -> float:
    """Dawson's integral F(y) = exp(-y^2) int_0^y exp(t^2) dt for y >= 0: below y = 6 from
    the series exp(-y^2) sum_n y^(2n+1) / (n! (2n+1)), whose terms are all positive; from
    y = 6 from the asymptotic series sum_n (2n-1)!! / (2^(n+1) y^(2n+1)), cut at 36 terms
    before they grow again."""
    if y < 0:
        raise ValueError(f"y must be >= 0, got {y}")
    if y < _DAWSON_SPLIT:
        n = int(40 + 4 * y * y)   # past the largest term, n ~ y^2, until terms fall below 1e-17
        terms = np.empty(n)
        terms[0], terms[1:] = y, y * y / np.arange(1, n)
        np.cumprod(terms, out=terms)   # y^(2n+1) / n!
        return math.exp(-y * y) * float(np.sum(terms / np.arange(1, 2 * n, 2)))
    ratios = np.arange(1.0, 72.0, 2.0) / (2.0 * y * y)   # t_(n+1) / t_n for n < 36
    return (1.0 + float(np.sum(np.cumprod(ratios)))) / (2.0 * y)


def large_d_limit(d: int) -> float:
    """Leading large-d behavior 1 - 1/(2d) of the limiting success probability."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return 1.0 - 1.0 / (2.0 * d)


@dataclass(frozen=True)
class CoefficientEstimate:
    """One numerically estimated series coefficient with an error bar."""

    r: int
    value: float
    error: float


_ESTIMATOR_N = (200, 400, 800, 1600)
_ESTIMATOR_X = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


def estimate_low_order_coeffs(d: int, r_max: int = 3) -> list[CoefficientEstimate]:
    """Numeric estimate of a_1..a_r_max from finite-N square-root-measurement blocks.

    Evaluates (N/2) P_lam(x) on a fixed (N, x) grid, lam = N/2 - round(xN/2): the
    six blocks of each N come from one `log_generators` call, and all 24 take one
    SRM kernel call (`_srm_values`), with no block object built.  It Richardson-extrapolates
    in 1/N (full Neville tableau over doubling N), and fits even powers of x
    with one guard term beyond r_max.  Error bars combine the fit's stability
    under dropping the smallest x with the last Richardson correction; they
    widen on extrapolation instability rather than failing silently.
    Accuracy is calibrated on the tabulated dimensions (a_3 within 1 percent)
    but the estimator runs for any d >= 2.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not 1 <= r_max <= 3:
        raise ValueError(f"r_max must be in 1..3, got {r_max}")
    lams = [[n_val // 2 - round(x * n_val / 2) for x in _ESTIMATOR_X] for n_val in _ESTIMATOR_N]
    flat = map(np.concatenate, zip(*(log_generators("unknown", n_val, d, lam)
                                     for n_val, lam in zip(_ESTIMATOR_N, lams))))

    def describe(i: int) -> str:
        n_index, x_index = divmod(i, len(_ESTIMATOR_X))
        return f"lam={lams[n_index][x_index]} of N={_ESTIMATOR_N[n_index]}, d={d}"

    values = _srm_values(*flat, describe).reshape(len(_ESTIMATOR_N), len(_ESTIMATOR_X))
    extrapolated = []
    last_correction = []
    for column in values.T.tolist():   # one x, N ascending
        level = [(n_val / 2) * value for n_val, value in zip(_ESTIMATOR_N, column)]
        factor = 2.0
        prev = level[-1]
        while len(level) > 1:
            level = [
                (factor * level[i + 1] - level[i]) / (factor - 1.0)
                for i in range(len(level) - 1)
            ]
            factor *= 2.0
        extrapolated.append(level[0])
        last_correction.append(abs(level[0] - prev))
    z = np.asarray(_ESTIMATOR_X, dtype=float) ** 2
    g = np.asarray(extrapolated) / z

    def fit(zz: np.ndarray, gg: np.ndarray, terms: int) -> np.ndarray:
        scale = zz.max()
        van = np.vander(zz / scale, terms, increasing=True)
        coef, *_ = np.linalg.lstsq(van, gg, rcond=None)
        return coef / scale ** np.arange(terms)

    terms = r_max + 1  # one guard term absorbs the next series order
    full = fit(z, g, terms)
    reduced = fit(z[1:], g[1:], terms)
    out = []
    for r in range(1, r_max + 1):
        spread = abs(full[r - 1] - reduced[r - 1])
        noise = max(last_correction) / z.min()
        out.append(CoefficientEstimate(r=r, value=float(full[r - 1]),
                                       error=float(spread + 1e-3 * noise)))
    return out
