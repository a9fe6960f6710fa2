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
P4, and the two must agree to 1e-20 relative.  This script never imports
the package it checks.
"""

import json
import pathlib

import mpmath as mp

ALPHAS = (0.01, 0.2, 0.5, 0.95)  # as doubles, the values the package sees
KS = (1, 2, 5, 20, 40)
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


def by_substitution(a, r):
    L = -mp.log(1 - r)

    def kernel(y, log_weighted):
        k = (2 - mp.exp(-y)) ** (-a)
        return k / (1 / a + y - mp.log(1 - mp.exp(-y) / 2)) if log_weighted else k

    cuts = [mp.mpf(0)] + [y for y in (mp.mpf(1), mp.mpf(4), L / 2, L - 4, L - 1) if 0 < y < L] + [L]
    cuts = sorted(set(cuts))
    scale = (1 + r) ** a / r
    p3 = scale * mp.quad(lambda y: mp.exp(-a * (L - y)) * kernel(y, False), cuts)
    p4 = scale * mp.quad(lambda y: mp.exp(-a * (L - y)) * kernel(y, True), cuts)
    lam = 1 / a + L - mp.log(1 - mp.exp(-L) / 2)
    return p3, p4, lam * p4


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
    OUT.write_text(json.dumps({"digits": 30, "profiles": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
