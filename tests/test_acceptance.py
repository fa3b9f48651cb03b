"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with the measured quantities.  Tolerances are pinned here."""

import math
import random
import time
from fractions import Fraction

import mpmath as mp

from k3mahler import dirichlet, eisenstein, lattices
from k3mahler import lfunctions as lf
from k3mahler import mwsections as mw
from k3mahler import pointcount as pc
from k3mahler import surfaces
from k3mahler.exactalg import Place, Poly
from conftest import mahler_mc
from grouplaw import O, ec_add, torsion_multiples
from ratfunc import RatFunc, valuation
from modular import fit_w_expansion
from quadfield import QuadElem

PHI_ROWS = {
    -24: {2: -2, 3: 3, 5: 2, 7: -10, 11: -10, 13: 0, 17: 0, 19: 0, 23: 0,
          29: 50, 31: 38},
    -15: {2: -1, 3: 3, 5: -5, 7: 0, 11: 0, 13: 0, 17: 14, 19: -22, 23: -34,
          29: 0, 31: 2},
    -120: {2: -2, 3: 3, 5: 5, 7: 0, 11: -2, 13: -14, 17: 26, 19: 0, 23: 14,
           29: -38, 31: -58},
}


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _identity_check(k, quad, hecke, d3_value, runtime_cap):
    t0 = time.monotonic()
    lhs = float(quad(k).value)
    disc = {3: -15, 6: -24, 18: -120}[k]
    with mp.workprec(128):
        pref = {3: 15 * mp.sqrt(15) / (2 * mp.pi ** 3),
                6: 24 * mp.sqrt(6) / mp.pi ** 3,
                18: 6 * mp.sqrt(120) / mp.pi ** 3}[k]
        rhs = float(pref) * float(hecke(disc).value)
        if k == 18:
            rhs += 2.8 * float(d3_value.value)
    # the literals above are the reference the surface record must match
    surf = surfaces.SURFACES[k]
    assert (surf.disc, surf.level) == (disc, -disc)
    r, n = surf.prefactor
    assert (Fraction(*r), n) == {3: (Fraction(15, 2), 15), 6: (24, 6), 18: (6, 120)}[k]
    assert Fraction(*surf.d3_coeff) == (Fraction(14, 5) if k == 18 else 0)
    assert surf.ap_twist == {3: None, 6: -3, 18: -3}[k]
    elapsed = time.monotonic() - t0
    diff = abs(lhs - rhs)
    return diff, elapsed, lhs, rhs


def test_criterion_1_identity_k3(quad, hecke, d3_value):
    diff, elapsed, lhs, rhs = _identity_check(3, quad, hecke, d3_value, 300)
    report(1, diff < 1e-5 and elapsed < 300,
           f"m(P_3): |{lhs:.10f} - {rhs:.10f}| = {diff:.2e} < 1e-5 "
           f"({elapsed:.1f}s < 300s)")


def test_criterion_2_identity_k6(quad, hecke, d3_value):
    diff, elapsed, lhs, rhs = _identity_check(6, quad, hecke, d3_value, 300)
    report(2, diff < 1e-5 and elapsed < 300,
           f"m(P_6): |{lhs:.10f} - {rhs:.10f}| = {diff:.2e} < 1e-5 "
           f"({elapsed:.1f}s < 300s)")


def test_criterion_3_identity_k18(quad, hecke, d3_value):
    diff, elapsed, lhs, rhs = _identity_check(18, quad, hecke, d3_value, 600)
    report(3, diff < 1e-4 and elapsed < 600,
           f"m(P_18): |{lhs:.10f} - {rhs:.10f}| = {diff:.2e} < 1e-4 "
           f"({elapsed:.1f}s < 600s)")


def test_criterion_4_regression_k0(quad, d3_value):
    assert Fraction(*surfaces.SURFACES[0].d3_coeff) == 1
    diff = abs(float(quad(0).value) - float(d3_value.value))
    report(4, diff < 1e-6, f"|m(P_0) - d3| = {diff:.2e} < 1e-6")


def test_criterion_5_eisenstein_kronecker(quad):
    diffs = {}
    for k in (3, 6, 18):
        b = eisenstein.bertin_series_for_k(k, 64)
        diffs[k] = abs(float(b.value) - float(quad(k).value))
    ok = all(d < 1e-4 for d in diffs.values())
    report(5, ok, "series vs quadrature: " +
           ", ".join(f"k={k}: {d:.2e}" for k, d in diffs.items()) + " all < 1e-4")


def test_criterion_6_epstein(d3_value):
    v = dirichlet.epstein_combo(128)
    diff = abs(float(v.value) - 2.8 * float(d3_value.value))
    report(6, diff < 1e-5, f"|epstein - (14/5) d3| = {diff:.2e} < 1e-5")


def test_criterion_7_form_coefficient_tables():
    checked = 0
    ok = True
    for disc, row in PHI_ROWS.items():
        co = lf.form_coefficients(lf.FORM_SERIES[disc], 40)
        for p, want in row.items():
            checked += 1
            if co[p] != want:
                ok = False
    report(7, ok and checked == 33,
           f"{checked}/33 Hecke coefficients reproduce the printed rows exactly")


def test_criterion_8_point_count_tables():
    t0 = time.monotonic()
    ok = True
    for k in (3, 6, 18):
        surf = surfaces.SURFACES[k]
        table = surfaces.NEWFORM_AP[surf.level]
        for p in pc.primes_up_to(31):
            if p in surf.bad_primes:
                continue
            want = table[p] if surf.ap_twist is None \
                else lf.twist_coeff(table[p], surf.ap_twist, p)
            if pc.A_p(k, p) != want:
                ok = False
    row = [pc.A_p(6, p) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)]
    ok = ok and row == [2, -10, -10, 0, 0, 0, 0, 50, 38]
    t_small = time.monotonic() - t0
    t0 = time.monotonic()
    for k, disc in ((3, -15), (6, -24), (18, -120)):
        surf = surfaces.SURFACES[k]
        for p in pc.primes_up_to(200):
            if p in surf.bad_primes:
                continue
            ap = pc.A_p(k, p)
            if abs(ap) > 2 * p:
                ok = False
            if pc.legendre(disc, p) == -1 and ap != 0:
                ok = False
    t_big = time.monotonic() - t0
    report(8, ok and t_small < 60 and t_big < 600,
           f"A_p matches twisted tables for p<=31 ({t_small:.1f}s < 60s); "
           f"p<=200 inert-vanishing and |A_p|<=2p ({t_big:.1f}s < 600s)")


def test_criterion_9_lattice_invariants():
    dets, ranks = {}, {}
    for k in (6, 3, 18):
        s = lattices.transcendental_summary(surfaces.SURFACES[k])
        dets[k] = s["orthocomplement"].det
        ranks[k] = s["rank"]
    chain6 = lattices.ns_determinant(0, 864, 1, 6)
    chain18 = lattices.ns_determinant(1, 432, Fraction(10), 6)
    ok = (dets == {6: 24, 3: 15, 18: 120} and ranks == {6: 0, 3: 1, 18: 1}
          and chain6 == 24 and abs(chain18) == 120)
    report(9, ok, f"dets {dets}, ranks {ranks}, |det NS| chain: 24 and "
                  f"|12h| = {abs(chain18)}")


def test_criterion_10_section_suite(k18, pm3_nontorsion):
    E, ps, r = k18["E"], k18["ps"], k18["halving"]["r"]
    square, wits = mw.halving_witnesses(ps, r, E)
    po = mw.zero_intersection(ps, k18["places"])
    checks = {
        "on-curve": mw.verify_on_curve(ps, E),
        "[n]p_-3 != O, n <= 6": pm3_nontorsion is not None,
        "a^2 - 4b not square": wits["a^2-4b"] is not None,
        "x not square": wits["x(Pb)"] is not None,
        "x' square": square and r * r == k18["Q"].x,
        "q+ not square": wits["q+"] is not None,
        "q- not square": wits["q-"] is not None,
        "(P.O) = 5": po == 5,
    }
    h, readings = mw.section_height(surfaces.SURFACES[18], ps, po)
    want = {"s=0": 6, "s=inf": 1, "s=1/18": 1, "alpha1": 0, "alpha2": 0}
    checks.update({f"component {r.place}": r.component == want[r.place]
                   for r in readings if r.place in want})
    checks["height = 10"] = h == 10
    checks["12h = 120"] = 12 * h == 120
    ok = all(checks.values())
    report(10, ok, "; ".join(f"{name}: {'ok' if v else 'FAIL'}"
                             for name, v in checks.items()))


def test_criterion_11_torsion_fixtures():
    identities = 0
    ok = True
    for k in (3, 18):
        curve, table = mw.family_curve(k), torsion_multiples(k)
        P = table[0]
        for i in range(1, 6):
            if P.x != table[i - 1].x or P.y != table[i - 1].y:
                ok = False
            identities += 2
            P = ec_add(P, table[0], curve, check=False)
        ok = ok and P == O
    report(11, ok and identities == 20,
           f"{identities // 2} printed torsion multiples reproduce exactly "
           "(10 points, 20 coordinate identities)")


def test_criterion_12_w_expansion():
    coeffs = fit_w_expansion(6, prec=220)
    errs = [abs(float(c - w)) for c, w in zip(coeffs[:4], (1, -6, 15, -20))]
    ok = all(e < 1e-10 for e in errs)
    report(12, ok, "fitted w-coefficients off integers by " +
           ", ".join(f"{e:.1e}" for e in errs) + " (all < 1e-10)")


def test_criterion_13_property_suites(quad):
    rng = random.Random(99)
    ok = True
    # field laws
    for _ in range(100):
        x = QuadElem(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        y = QuadElem(rng.randint(-9, 9), rng.randint(-9, 9))
        z = QuadElem(rng.randint(-9, 9), rng.randint(-9, 9))
        ok &= (x * y) * z == x * (y * z) and x * (y + z) == x * y + x * z
        if not x.is_zero():
            ok &= x * x.inv() == QuadElem(1)
    # valuation additivity
    places = [Place(Poly([0, 1])), Place(Poly([-9, 1])), Place.infinity()]
    for _ in range(25):
        f = RatFunc(Poly([rng.randint(-5, 5) for _ in range(4)] + [1]),
                    Poly([rng.randint(-5, 5) for _ in range(2)] + [1]))
        g = RatFunc(Poly([rng.randint(-5, 5) for _ in range(3)] + [1]),
                    Poly([rng.randint(-5, 5) for _ in range(3)] + [1]))
        for v in places:
            ok &= valuation(f * g, v) == valuation(f, v) + valuation(g, v)
    # group-law associativity on the k=18 curve
    E = mw.family_curve(18)
    tor = torsion_multiples(18)
    for _ in range(8):
        P, Q, R = (rng.choice(tor) for _ in range(3))
        lhsP = ec_add(ec_add(P, Q, E, False), R, E, False)
        rhsP = ec_add(P, ec_add(Q, R, E, False), E, False)
        ok &= lhsP == rhsP
    # quadrature vs Monte Carlo at 4 sigma
    sigmas = {}
    for k in (0, 3, 6, 18, 100):
        est, se = mahler_mc(k, 10 ** 6, seed=1000 + k)
        z = abs(est - float(quad(k).value)) / se
        sigmas[k] = z
        ok &= z <= 4.0
    report(13, ok, "field/valuation laws, associativity green; MC z-scores " +
           ", ".join(f"k={k}: {z:.2f}" for k, z in sigmas.items()) + " (<= 4)")
