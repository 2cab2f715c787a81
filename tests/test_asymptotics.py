import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipkm1

from qedge import asymptotics, discrimination
from qedge import gram as gram_module
from qedge import (
    DegeneratePadeError,
    NotTabulatedError,
    build_gram_unknown,
    coefficient_table,
    dawson,
    elliptic_k,
    estimate_low_order_coeffs,
    large_d_limit,
    p0_known,
    p0_via_integral,
    p0_via_primitive,
    pade,
    srm_blocks,
)


def test_coefficient_table_anchor_values():
    t2 = coefficient_table(2)
    assert t2.coeffs[0] == 2
    assert t2.coeffs[1] == 0
    assert t2.coeffs[2] == Fraction(-1, 30)
    assert t2.coeffs[3] == Fraction(-1, 35)
    assert len(t2) == 15
    t3 = coefficient_table(3)
    assert t3.coeffs[:3] == (4, Fraction(-8, 3), Fraction(-1, 15))
    assert len(t3) == 17
    t8 = coefficient_table(8)
    assert t8.coeffs[:3] == (14, -56, Fraction(3353, 30))


def test_leading_coefficient_identity():
    for d in (2, 3, 4, 8):
        assert coefficient_table(d).coeffs[0] == 2 * (d - 1)


def test_coefficient_table_rejects_untabulated():
    with pytest.raises(NotTabulatedError):
        coefficient_table(5)


def test_pade_polynomial_case():
    series = [Fraction(1), Fraction(2), Fraction(3)]
    approx = pade(series, 2, 0)
    assert approx.numer == (1, 2, 3)
    assert approx.denom == ()
    assert approx(0.5) == pytest.approx(1 + 1 + 0.75)


def test_pade_geometric_series_is_exact():
    # 1/(1-z) has [0/1] Pade with B1 = -1
    series = [Fraction(1)] * 6
    approx = pade(series, 0, 1)
    assert approx.denom == (Fraction(-1),)
    assert approx(0.25) == pytest.approx(4 / 3)


def test_pade_reexpansion_property():
    table = coefficient_table(4)
    series = table.series_in_z()
    approx = pade(series, 5, 5)
    assert approx.expansion(10) == series[:11]
    # [n/0] is the truncated series, from the same matching path
    poly = pade(series, 3, 0)
    assert poly.numer == tuple(series[:4]) and poly.denom == () and poly.defects == ()
    assert poly.expansion(3) == series[:4]


def test_pade_degenerate_detection():
    # [1/1] needs c1 B1 = -c2 with c1 = 0, c2 != 0: singular matching system
    with pytest.raises(DegeneratePadeError):
        pade([Fraction(1), Fraction(0), Fraction(1)], 1, 1)


def test_pade_flags_unit_interval_poles():
    # 1/(1 - 2z) has a pole at z = 0.5
    series = [Fraction(2) ** k for k in range(6)]
    approx = pade(series, 0, 1)
    assert approx.defects
    assert approx.defects[0] == pytest.approx(0.5, abs=1e-9)


def test_pade_diagonal_matches_published_leading_terms():
    series = coefficient_table(2).series_in_z()
    approx = pade(series, 7, 7)
    assert float(approx.numer[1]) == pytest.approx(2.0, abs=5e-5)
    assert float(approx.denom[0]) == pytest.approx(-3.47961, abs=5e-5)


def test_p0_integral_routes():
    est = p0_via_integral(2)
    assert est.value == pytest.approx(0.6499, abs=2e-4)
    est4 = p0_via_integral(4)
    assert est4.value == pytest.approx(0.852860, abs=1e-6)
    est8 = p0_via_integral(8)
    assert est8.value == pytest.approx(0.9323011, abs=2e-7)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_gauss_rules_match_adaptive_quadrature(d):
    # oracle: scipy's adaptive quadrature of the same integrands, scalar by scalar
    table = coefficient_table(d)
    orders = [(s, s) for s in range(len(table) // 2, 0, -1)]
    approx = asymptotics._accepted(table.series_in_z(), orders, "oracle")[0]
    integral = quad(lambda x: approx(x * x), 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    assert p0_via_integral(d).value == pytest.approx(integral, rel=1e-12)
    known = 4.0 * (d - 1) / math.pi**2 * quad(
        lambda s: float(ellipkm1(math.exp(-s))) ** 2 * math.exp(-d * s), 0.0, 60.0,
        epsabs=1e-14, epsrel=1e-13, limit=300)[0]
    assert p0_known(d) == pytest.approx(known, rel=1e-12)


def test_unconverged_gauss_integral_raises():
    # a pole 1e-7 past x = 1: no two successive Gauss-Legendre sums agree by 512 nodes
    with pytest.raises(DegeneratePadeError, match="did not converge"):
        asymptotics._integral_01(lambda x: 1.0 / (1.0 + 1e-7 - x))
    assert asymptotics._integral_01(lambda x: 3.0 * x * x) == pytest.approx(1.0, rel=1e-15)


def test_p0_primitive_route():
    est = p0_via_primitive(3)
    assert est.value == pytest.approx(0.792308, abs=3e-6)
    # odd primitive vanishes at 0 by construction: evaluate the accepted Pade at z=0
    assert p0_via_primitive(2).value == pytest.approx(0.650118, abs=1e-5)


def test_p0_accepted_orders():
    # the highest defect-free orders, pinned; the primitive order is that of Q in x
    for d, integral, primitive in [(2, (7, 7), (13, 14)), (3, (8, 8), (17, 16)),
                                   (4, (8, 8), (17, 16)), (8, (8, 8), (17, 16))]:
        assert p0_via_integral(d).order == integral
        assert p0_via_primitive(d).order == primitive


def test_p0_primitive_rejects_defective_order():
    # d = 2: the first primitive candidate, [7/7] of Q/x in z, has one real pole
    # in [0, 1]; the route therefore accepts the next order, [6/7] ((13, 14) in x)
    table = coefficient_table(2)
    gseries = [table.coeffs[r - 1] / (2 * r + 1) for r in range(1, len(table) + 1)]
    approx = pade(gseries, 7, 7)
    assert len(approx.defects) == 1
    assert approx.defects[0] == pytest.approx(0.33681, abs=1e-5)


def test_p0_cross_route_half_spread():
    for d in (2, 3, 4, 8):
        i = p0_via_integral(d).value
        p = p0_via_primitive(d).value
        assert abs(i - p) / 2 <= 3e-4 * i


def test_elliptic_k_anchors():
    assert elliptic_k(0.0) == pytest.approx(math.pi / 2, rel=1e-14)
    # oracle: direct quadrature of the defining integral
    direct = quad(lambda t: 1.0 / math.sqrt(1 - 0.5 * math.sin(t) ** 2), 0, math.pi / 2)[0]
    assert elliptic_k(0.5) == pytest.approx(direct, rel=1e-12)
    assert elliptic_k(0.5) == pytest.approx(1.8540746773013719, rel=1e-13)
    with pytest.raises(ValueError):
        elliptic_k(1.0)


def test_elliptic_k_matches_mpmath():
    ms = [*np.linspace(0.0, 0.999, 101), 1e-300, 1e-17, 1e-9, 1.0 - 1e-10, 1.0 - 2.0 ** -52]
    with mpmath.workdps(40):
        for m in ms:
            ref = mpmath.ellipk(mpmath.mpf(float(m)))
            assert abs(elliptic_k(float(m)) / ref - 1) <= 1e-15, m


def test_elliptic_k_from_complement_matches_mpmath():
    # 40 significant digits of K(1 - mc): 1 - mc itself needs about 340 at mc = 1e-300
    mc = np.concatenate([np.geomspace(1e-300, 1.0, 151), [0.5, 1.0 - 1e-16]])
    k = asymptotics._elliptic_k_from_complement(mc)
    for value, c in zip(k, mc):
        with mpmath.workdps(40 - int(math.log10(c))):
            ref = mpmath.ellipk(1 - mpmath.mpf(float(c)))
        assert abs(value / ref - 1) <= 1e-15, c


def test_dawson_matches_mpmath():
    # both sides of the switch from the power series to the asymptotic series at y = 6
    ys = [*np.linspace(0.0, 12.0, 241)[1:], 1e-300, 1e-8, 5.999999999, 6.0, 6.000000001,
          1e3, 1e8, 1e300]
    with mpmath.workdps(40):
        for y in ys:
            y = float(y)
            ref = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-mpmath.mpf(y) ** 2) * mpmath.erfi(y)
            assert abs(dawson(y) / ref - 1) <= 2e-15, y


def _gauss_jordan(aug):
    """Solution of the square rational system [A | b] by Gauss-Jordan elimination in
    Fractions; None if A is singular."""
    aug = [row[:] for row in aug]
    size = len(aug)
    for col in range(size):
        piv = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(size):
            if r != col:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    return [row[size] for row in aug]


def _route_series():
    """(d, series, route) for both p0 routes' series of every tabulated d."""
    for d in (2, 3, 4, 8):
        table = coefficient_table(d)
        yield d, table.series_in_z(), "z-series"
        yield d, [table.coeffs[r - 1] / (2 * r + 1) for r in range(1, len(table) + 1)], "primitive"


def test_solve_exact_matches_rational_gauss_jordan():
    # every Pade system the two p0 routes can try for the tabulated d, scaled to integers
    # by one common denominator; numerators over the one determinant must equal the
    # rational Gauss-Jordan solution exactly
    systems = 0
    for _, series, route in _route_series():
        orders = ([(s, s) for s in range((len(series) - 1) // 2, 0, -1)] if route == "z-series" else
                  [o for n in range((len(series) - 1) // 2, 0, -1) for o in ((n, n), (n - 1, n))])
        for n, m in orders:
            aug = [[series[s - q] if s - q >= 0 else Fraction(0) for q in range(1, m + 1)]
                   + [-series[s]] for s in range(n + 1, n + m + 1)]
            scale = math.lcm(*(x.denominator for row in aug for x in row))
            solved = asymptotics._solve_exact([[int(x * scale) for x in row] for row in aug])
            expected = _gauss_jordan(aug)
            if expected is None:
                assert solved is None
            else:
                numers, det = solved
                assert [Fraction(x, det) for x in numers] == expected
            systems += 1
    assert systems == 93
    assert asymptotics._solve_exact([[2, 4, 2], [1, 2, 6]]) is None


def _reference_pade(series, n, m):
    """Pade [n/m] by the Fraction algorithm: rational Bareiss solve, numerator and the
    re-expansion check all in Fractions."""
    series = [Fraction(c) for c in series]
    aug = [[series[s - q] if s - q >= 0 else Fraction(0) for q in range(1, m + 1)] + [-series[s]]
           for s in range(n + 1, n + m + 1)]
    rows = []
    for row in aug:
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    prev = 1
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col]), None)
        if piv is None:
            raise DegeneratePadeError(f"singular Pade system at order [{n}/{m}]")
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot_row = rows[col]
        pivot = pivot_row[col]
        for r, row in enumerate(rows):
            if r != col:
                factor = row[col]
                rows[r] = [(pivot * x - factor * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    denom = tuple(Fraction(row[m], prev) for row in rows)
    numer = tuple(series[s] + sum(denom[q - 1] * series[s - q] for q in range(1, min(m, s) + 1))
                  for s in range(n + 1))
    approx = asymptotics.PadeApproximant(order=(n, m), numer=numer, denom=denom,
                                         defects=asymptotics._denominator_roots(denom))
    if approx.expansion(n + m) != series[:n + m + 1]:
        raise DegeneratePadeError(f"re-expansion mismatch at order [{n}/{m}]")
    return approx


def test_pade_matches_fraction_reference_on_every_order():
    # every [n/m] with n + m inside the table, both routes' series, d in {2, 3, 4, 8}
    equal = singular = 0
    for d, series, route in _route_series():
        for total in range(len(series)):
            for m in range(total + 1):
                n = total - m
                try:
                    expected = _reference_pade(series, n, m)
                except DegeneratePadeError:
                    with pytest.raises(DegeneratePadeError, match="singular"):
                        pade(series, n, m)
                    singular += 1
                    continue
                assert pade(series, n, m) == expected, (d, route, n, m)
                equal += 1
    assert (equal, singular) == (1154, 74)


def test_pade_residual_check_catches_a_wrong_solve(monkeypatch):
    # one numerator b_q of the solve off by one unit: the integer residuals no longer vanish
    series = coefficient_table(2).series_in_z()
    solve = asymptotics._solve_exact
    assert pade(series, 7, 7).order == (7, 7)
    for q in range(7):
        def off_by_one(rows, q=q):
            numers, det = solve(rows)
            numers[q] += 1
            return numers, det

        monkeypatch.setattr(asymptotics, "_solve_exact", off_by_one)
        with pytest.raises(DegeneratePadeError, match="re-expansion mismatch"):
            pade(series, 7, 7)


def test_elliptic_k_monotone():
    ms = np.linspace(0, 0.999, 200)
    vals = [elliptic_k(m) for m in ms]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_p0_known_anchors():
    # high-precision references from 40-digit quadrature of the defining integral
    assert p0_known(2) == pytest.approx(0.64991443035033604, rel=1e-8)
    assert p0_known(3) == pytest.approx(0.79231115808937428, rel=1e-8)
    assert p0_known(4) == pytest.approx(0.85286009734996042, rel=1e-8)
    assert p0_known(8) == pytest.approx(0.93230114041488986, rel=1e-8)


def test_p0_known_parameter_convention():
    # K(m) with m = c^2 is the convention that reproduces 0.64991 at d=2;
    # the modulus convention K(m^2) would give a different number
    wrong = quad(
        lambda t: 4 * (1 - t) / math.pi**2 * elliptic_k(t * t) ** 2, 0, 1 - 1e-12
    )[0]
    assert abs(wrong - 0.64991) > 1e-2
    assert p0_known(2) == pytest.approx(0.64991, abs=5e-6)


def test_p0_upper_bounds_pade_route():
    for d in (2, 3, 4, 8):
        assert p0_via_integral(d).value <= p0_known(d) + 3e-4


def test_dawson_anchors():
    assert dawson(0.0) == 0.0
    # oracle: quadrature of the defining integral, substituted u = y - t so the
    # integrand exp(-u(2y-u)) stays bounded at any y
    for y in (0.3, 1.0, 1.7, 3.0, 7.5):
        direct = quad(lambda u: math.exp(-u * (2 * y - u)), 0, y,
                      epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        assert dawson(y) == pytest.approx(direct, rel=1e-11)
    assert dawson(1.0) == pytest.approx(0.5380795069127684, rel=1e-12)
    with pytest.raises(ValueError):
        dawson(-1.0)


def test_dawson_series_identity():
    # 2 y F(y) matches the alternating double-factorial series partial sums
    for y in np.linspace(0.01, 1.5, 31):
        s = 0.0
        term = 1.0
        for el in range(1, 31):
            term *= 2 * y * y / (2 * el - 1)
            s += (-1) ** (el + 1) * term
        assert abs(2 * y * dawson(y) - s) <= 1e-10


def test_dawson_branch_seam_continuous():
    # values must agree across y = 1 (the series switch at y = 6, checked against mpmath
    # in test_dawson_matches_mpmath)
    assert abs(dawson(1.0) - dawson(1.0 + 1e-12)) < 1e-11
    assert abs(dawson(0.999999) - dawson(1.000001)) < 1e-5


def test_dawson_unimodal():
    ys = np.linspace(0, 6, 400)
    vals = np.array([dawson(y) for y in ys])
    peak = vals.argmax()
    assert np.all(np.diff(vals[: peak + 1]) > 0)
    assert np.all(np.diff(vals[peak:]) < 0)


def test_large_d_limit():
    assert large_d_limit(2) == 0.75
    assert large_d_limit(10**9) == pytest.approx(1.0, abs=1e-9)
    assert abs(p0_known(128) - large_d_limit(128)) <= 1e-3
    # expansion is not valid at small d
    assert abs(large_d_limit(2) - p0_known(2)) > 0.05


@pytest.mark.parametrize("d", [128, 504, 1000, 10**4, 10**6])
def test_p0_known_follows_large_d_limit(d):
    # the weight e^(-ds) peaks within 1/d of s = 0, where a fixed interval misses it
    assert abs(p0_known(d) - large_d_limit(d)) <= 0.5 / d**2


def test_estimator_brackets_tables():
    est2 = estimate_low_order_coeffs(2, r_max=3)
    assert est2[0].value == pytest.approx(2.0, rel=0.01)
    assert abs(est2[1].value) <= 0.02
    assert est2[2].value == pytest.approx(-1 / 30, rel=0.01)
    est3 = estimate_low_order_coeffs(3, r_max=3)
    assert est3[0].value == pytest.approx(4.0, rel=0.01)
    assert est3[1].value == pytest.approx(-8 / 3, rel=0.01)
    assert est3[2].value == pytest.approx(-1 / 15, rel=0.01)
    for est in (*est2, *est3):
        assert est.error >= 0


def test_estimator_untabulated_dimension_leading_identity():
    # no exact table for d=5, but the leading coefficient must still be 2(d-1)
    est = estimate_low_order_coeffs(5, r_max=3)
    assert est[0].value == pytest.approx(8.0, rel=0.01)


def _reference_estimate(d, r_max):
    """The estimator built from 24 separate blocks: `srm_blocks` over `build_gram_unknown`
    of each (x, N), then the same Richardson extrapolation and fit."""
    xs, ns = asymptotics._ESTIMATOR_X, asymptotics._ESTIMATOR_N
    values = iter(srm_blocks([build_gram_unknown(n, d, n // 2 - round(x * n / 2))
                              for x in xs for n in ns]))
    extrapolated, last_correction = [], []
    for _ in xs:
        level = [(n / 2) * next(values) for n in ns]
        factor, prev = 2.0, level[-1]
        while len(level) > 1:
            level = [(factor * level[i + 1] - level[i]) / (factor - 1.0) for i in range(len(level) - 1)]
            factor *= 2.0
        extrapolated.append(level[0])
        last_correction.append(abs(level[0] - prev))
    z = np.asarray(xs, dtype=float) ** 2
    g = np.asarray(extrapolated) / z

    def fit(zz, gg, terms):
        scale = zz.max()
        coef, *_ = np.linalg.lstsq(np.vander(zz / scale, terms, increasing=True), gg, rcond=None)
        return coef / scale ** np.arange(terms)

    full, reduced = fit(z, g, r_max + 1), fit(z[1:], g[1:], r_max + 1)
    noise = max(last_correction) / z.min()
    return [asymptotics.CoefficientEstimate(r, float(full[r - 1]),
                                            float(abs(full[r - 1] - reduced[r - 1]) + 1e-3 * noise))
            for r in range(1, r_max + 1)]


@pytest.mark.parametrize("d", [2, 3, 5])
def test_estimator_matches_block_by_block_reference(d):
    assert estimate_low_order_coeffs(d, 3) == _reference_estimate(d, 3)


def test_estimator_builds_no_block(monkeypatch):
    class Built(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Built

    for module, name in [(gram_module, "build_gram_unknown"), (gram_module, "_gram_blocks"),
                         (gram_module, "SemiseparableGram"), (discrimination, "srm_blocks")]:
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(asymptotics, name, refuse, raising=False)
    assert estimate_low_order_coeffs(2, 3)[0].value == pytest.approx(2.0, rel=0.01)


def test_estimator_rejects_bad_args():
    with pytest.raises(ValueError):
        estimate_low_order_coeffs(1)
    with pytest.raises(ValueError):
        estimate_low_order_coeffs(2, r_max=4)


def test_table_asset_env_override(tmp_path, monkeypatch):
    import qedge.asymptotics as asym

    src = asym._data_path().read_text()
    (tmp_path / "maclaurin_coefficients.txt").write_text(src)
    monkeypatch.setenv("QEDGE_DATA_DIR", str(tmp_path))
    asym._TABLE_CACHE.clear()
    try:
        assert coefficient_table(2).coeffs[0] == 2
    finally:
        asym._TABLE_CACHE.clear()


def test_table_asset_checksum_guard(tmp_path, monkeypatch):
    import qedge.asymptotics as asym

    src = asym._data_path().read_text()
    (tmp_path / "maclaurin_coefficients.txt").write_text(src.replace("2,1,2,1", "2,1,3,1"))
    monkeypatch.setenv("QEDGE_DATA_DIR", str(tmp_path))
    asym._TABLE_CACHE.clear()
    try:
        with pytest.raises(ValueError, match="checksum"):
            coefficient_table(2)
    finally:
        asym._TABLE_CACHE.clear()
