"""Write tests/profile_reference.json: the T3.1, T4.1 and T5.1 radial profiles in mpmath.

Run from the repository root:

    python tests/make_profile_reference.py

Each profile is evaluated at r = 1 - 2^-k straight from its definition,
the weighted modulus of the semigroup image of the extremal function,

    P3(r) = (1 - r^2)^a  int_0^inf w_t(r) (1 - phi_t(r)^2)^-a dt,
    P4(r) = (1 - r^2)^a  int_0^inf w_t(r) (1 - phi_t(r)^2)^-a / (c - log(1 - phi_t(r)^2)) dt,
    P5(r) = (c - log(1 - r^2)) P4(r),

with w_t(r) = e^-t / (1 - (1 - e^-t) r), phi_t(r) = e^-t r / (1 - (1 - e^-t) r)
and c = 1/a + log 2, at 30 significant digits.  As a check, every value is
computed a second time from the substitution y = log(1 + e^-t r / (1 - r)),

    P(r) = ((1 + r)^a / r) int_0^L e^(-a (L - y)) k(y) dy,   L = log(1/(1 - r)),

with k(y) = (2 - e^-y)^-a for P3 and k(y) / (1/a + y - log(1 - e^-y / 2)) for
P4, and the two must agree to 1e-20 relative.

The T4.1 supremum at each alpha of SUP_ALPHAS is P4 at the root L* of

    dP4/dL = c'(L) I(L) + c(L) (k(L) - a I(L)),   c = (1 + r)^a / r,  dr/dL = e^-L,

the y form differentiated with dI/dL = k(L) - a I(L), found by mpmath's
findroot inside the first sign change of a geometric scan of L.  The T5.1
supremum at each alpha of T51_SUP_ALPHAS is P5 = Lambda P4 at the root of

    dP5/dL = Lambda'(L) P4 + Lambda(L) dP4/dL,   Lambda = 1/a + L - log(1 - e^-L / 2),

found the same way; it lies near L = 3.3/a for small a, far past r = 1 - 2^-40.

The T5.1 boundary limit is read at L = 40/a.  With M = L + 1/a, P5 tends to

    Q(L) = M e^(-a M) (Ei(a M) - Ei(1)),

P5 with k3 -> 2^-a and Lambda -> M, and at a M = 41 the tail a Q - 1 is one
constant, written as t51_tail.  P5 itself is tabulated at L = 40/a, as the
double the package sees, for each alpha of T51_READ_ALPHAS, and must lie
within 1e-15 of Q there, relative to 1/a.

The Bloch-type norm of C(1)(z) = log(1/(1 - z)) / z at each alpha of
BLOCH_ALPHAS is 1 + W(L*), every Taylor coefficient of C(1)' being
nonnegative, with the witness

    W = (1 - r^2)^a C(1)'(r),   C(1)'(r) = 1/(r (1 - r)) + log(1 - r) / r^2,   r = 1 - e^-L,

and L* the root of dW/dL, which is e^-L (1 - r^2)^(a - 1) times

    (1 - r^2) C(1)''(r) - 2 a r C(1)'(r),

found by findroot inside the first sign change of a geometric scan of L
from 2^-20 up: the maximum lies near L = 2/(3a) for large a and near
L = 6.5 at a = 1.01.  W is also tabulated at each alpha of WITNESS_ALPHAS
and the double nearest L = k log 10, k = 1..15, so 1 - r = 10^-k to
rounding.  This script never imports the package it checks; it takes
about 25 s.
"""

import json
import math
import pathlib

import mpmath as mp

ALPHAS = (0.01, 0.2, 0.5, 0.95)  # as doubles, the values the package sees
KS = (1, 2, 5, 20, 40)
SUP_ALPHAS = (0.01, 0.02, 0.05, 0.2, 0.5, 0.8, 0.95)
T51_SUP_ALPHAS = (0.01, 0.05, 0.1, 0.5)
T51_READ_ALPHAS = (0.01, 0.5)
BLOCH_ALPHAS = (1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 50.0, 100.0, 500.0)
WITNESS_ALPHAS = (0.01, 0.5, 0.9, 1.0, 1.5, 2.0, 10.0)
OUT = pathlib.Path(__file__).with_name("profile_reference.json")


def by_definition(a, r):
    c = 1 / a + mp.log(2)
    L = -mp.log(1 - r)

    def modulus(t, log_weighted):
        u = mp.exp(-t)
        den = 1 - (1 - u) * r
        phi = u * r / den
        omsq = 1 - phi * phi
        value = (u / den) * omsq ** (-a)
        return value / (c - mp.log(omsq)) if log_weighted else value

    # the integrand turns over where e^-t is about 1 - r, at t = L
    cuts = sorted({mp.mpf(0), *(t for t in (L - 8, L - 2, L, L + 2, L + 8, L + 30) if t > 0)})
    cuts.append(mp.inf)
    weight = (1 - r * r) ** a
    p3 = weight * mp.quad(lambda t: modulus(t, False), cuts)
    p4 = weight * mp.quad(lambda t: modulus(t, True), cuts)
    return p3, p4, (c - mp.log(1 - r * r)) * p4


def kernel(a, y, log_weighted):
    k = (2 - mp.exp(-y)) ** (-a)
    return k / (1 / a + y - mp.log(1 - mp.exp(-y) / 2)) if log_weighted else k


def cumulative(a, L, log_weighted):
    """I(L) = int_0^L e^(-a (L - y)) k(y) dy."""
    cuts = [mp.mpf(0)] + [y for y in (mp.mpf(1), mp.mpf(4), L / 2, L - 4, L - 1) if 0 < y < L] + [L]
    return mp.quad(lambda y: mp.exp(-a * (L - y)) * kernel(a, y, log_weighted), sorted(set(cuts)))


def by_substitution(a, r):
    L = -mp.log(1 - r)
    scale = (1 + r) ** a / r
    p3 = scale * cumulative(a, L, False)
    p4 = scale * cumulative(a, L, True)
    lam = 1 / a + L - mp.log(1 - mp.exp(-L) / 2)
    return p3, p4, lam * p4


def radial_sup(a, times_lambda):
    """(L*, P(L*)): the first root of dP/dL and the profile there, P = P4 or, times_lambda, P5."""

    def profile_and_slope(L):
        r = -mp.expm1(-L)
        c = (1 + r) ** a / r
        i = cumulative(a, L, True)
        dc = c * mp.exp(-L) * (a / (1 + r) - 1 / r)
        p4, dp4 = c * i, dc * i + c * (kernel(a, L, True) - a * i)
        if not times_lambda:
            return p4, dp4
        e = mp.exp(-L)
        lam = 1 / a + L - mp.log(1 - e / 2)
        return lam * p4, (1 - e / (2 - e)) * p4 + lam * dp4

    scan = [mp.mpf("0.05") * mp.mpf(2) ** (j / mp.mpf(4)) for j in range(80)]
    lo = next(L for L, hi in zip(scan, scan[1:]) if profile_and_slope(hi)[1] < 0)
    root = mp.findroot(lambda L: profile_and_slope(L)[1], (lo, lo * mp.mpf(2) ** mp.mpf("0.25")), solver="anderson")
    return root, profile_and_slope(root)[0]


def t51_tail():
    """a Q - 1 at a M = 41."""
    m = mp.mpf(41)
    return m * mp.exp(-m) * (mp.ei(m) - mp.ei(1)) - 1


def t51_read(a, L):
    """P5 at depth L, from the y form."""
    r = -mp.expm1(-L)
    lam = 1 / a + L - mp.log(1 - mp.exp(-L) / 2)
    return lam * (1 + r) ** a / r * cumulative(a, L, True)


def c1_derivatives(r):
    """C(1)'(r) and C(1)''(r)."""
    d1 = 1 / (r * (1 - r)) + mp.log(1 - r) / r**2
    d2 = -(1 - 2 * r) / (r**2 * (1 - r) ** 2) - 1 / (r**2 * (1 - r)) - 2 * mp.log(1 - r) / r**3
    return d1, d2


def witness(a, L):
    r = -mp.expm1(-L)
    return (1 - r * r) ** a * c1_derivatives(r)[0]


def constant_one_bloch_norm(a):
    """(L*, 1 + max_L W(L))."""

    def slope(L):  # dW/dL over e^-L (1 - r^2)^(a - 1)
        r = -mp.expm1(-L)
        d1, d2 = c1_derivatives(r)
        return (1 - r * r) * d2 - 2 * a * r * d1

    scan = [mp.mpf(2) ** (j / mp.mpf(4)) for j in range(-80, 33)]
    lo = next(L for L, hi in zip(scan, scan[1:]) if slope(hi) < 0)
    root = mp.findroot(slope, (lo, lo * mp.mpf(2) ** mp.mpf("0.25")), solver="anderson")
    return root, 1 + witness(a, root)


def main():
    mp.mp.dps = 30
    rows = []
    for alpha in ALPHAS:
        a = mp.mpf(alpha)
        for k in KS:
            r = 1 - mp.mpf(2) ** -k
            defined = by_definition(a, r)
            substituted = by_substitution(a, r)
            for x, y in zip(defined, substituted):
                assert abs(x / y - 1) < mp.mpf("1e-20"), (alpha, k, x, y)
            rows.append(
                {"alpha": alpha, "k": k, **{p: mp.nstr(v, 25) for p, v in zip(("P3", "P4", "P5"), defined)}}
            )
    sups = []
    for alpha in SUP_ALPHAS:
        L, value = radial_sup(mp.mpf(alpha), False)
        sups.append({"alpha": alpha, "L": mp.nstr(L, 25), "sup": mp.nstr(value, 25)})
    t51_sups = []
    for alpha in T51_SUP_ALPHAS:
        L, value = radial_sup(mp.mpf(alpha), True)
        t51_sups.append({"alpha": alpha, "L": mp.nstr(L, 25), "sup": mp.nstr(value, 25)})
    tail = t51_tail()
    reads = []
    for alpha in T51_READ_ALPHAS:
        L = 40.0 / alpha  # the double the package sees
        value = t51_read(mp.mpf(alpha), mp.mpf(L))
        assert abs(alpha * value - 1 - tail) < mp.mpf("1e-15"), (alpha, value)
        reads.append({"alpha": alpha, "L": L, "P5": mp.nstr(value, 25)})
    blochs = []
    for alpha in BLOCH_ALPHAS:
        L, norm = constant_one_bloch_norm(mp.mpf(alpha))
        blochs.append({"alpha": alpha, "L": mp.nstr(L, 25), "norm": mp.nstr(norm, 25)})
    witnesses = []
    for alpha in WITNESS_ALPHAS:
        for k in range(1, 16):
            L = k * math.log(10.0)  # the double the package sees
            witnesses.append({"alpha": alpha, "k": k, "L": L, "W": mp.nstr(witness(mp.mpf(alpha), mp.mpf(L)), 25)})
    table = {
        "digits": 30,
        "profiles": rows,
        "t41_sup": sups,
        "t51_sup": t51_sups,
        "t51_tail": mp.nstr(tail, 30),
        "t51_read": reads,
        "bloch_c1": blochs,
        "c1_witness": witnesses,
    }
    OUT.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
