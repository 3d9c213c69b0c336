"""Endomorphism detection and the endomorphism subfield.

A multiplier candidate a gives g = exp_F(a log_F(X)), computed in exact
rational arithmetic; a is a multiplier of the group exactly when every
coefficient of g is p-integral, and the first non-integral degree is the
obstruction.  A success is a certificate at the stated window (D, N_eff),
not a proof to all orders; the commutation identity
g(F(X,Y)) = F(g(X), g(Y)) is re-verified on the integral side.  Its left
side is g_int.compose(F), the one composition route (addition-chain powers
of F for at most 10 nonzero terms of g, baby-step/giant-step otherwise:
about 2 sqrt(D) bivariate products); its right side is P^T F P with row i
of P holding g^i (substitute2_into2).  Each certificate is computed once
per (multiplier, window) and shared by every caller on the group.

The succeeding multipliers form a closed subring of O_K whose residue
degree f_F is found by testing Teichmuller generators of each candidate
subfield, largest first.  f_F = h is the full-height case: the torsion
tower acquires the full scalar action and [zeta] has composition order
q - 1.
"""

from __future__ import annotations

import math

import numpy as np

from .padic import INF, UnramifiedRingElem, components, residues, teichmuller_digits
from .precision import endo_window, multiplier_precision
from .series import TruncSeries1, substitute2_into2


def c_map(g: TruncSeries1) -> UnramifiedRingElem:
    """Linear coefficient of a pointed series."""
    if any(v != 0 for v in g.data[0]):
        raise ValueError("series has a constant term")
    return g.coefficient(1)


def try_endomorphism(group, a, D: int | None = None) -> dict:
    """Test one multiplier; returns a certificate record.

    Success means integral coefficients through degree D and the commutation
    identity holding mod (p^N_eff, degree D).  Failure records the first
    non-integral degree.

    Records are cached on the group per (D, multiplier as given) and each
    call returns a fresh copy, so callers may annotate theirs.
    """
    desc = group.desc
    p = desc.p
    if D is None:
        D = endo_window(group.q)
    vec = components(a, desc)
    a_elem = UnramifiedRingElem(desc, residues(vec, desc))
    # every logarithm is exact, so a rational multiplier keeps the pipeline
    # exact: reducing it mod p^N first would poison every digit past
    # N - v_p(k!) once the exponential's denominators touch it.  A ring
    # element is a mod-p^N lift, taken at face value.
    exact = not isinstance(a, UnramifiedRingElem)
    N_eff = multiplier_precision(exact, group.kind, desc.N, D, p, group.q_eff)
    # keyed by the multiplier as given: 3 and 3 + p^N are different exact
    # rationals, and 3 and from_int(3) lose different precision
    key = (D, vec) if exact else (D, "elem", a.desc.N, a.coeffs)
    cached = group._endo_cache.get(key)
    if cached is not None:
        return dict(cached)
    log = group.logarithm(D)
    g = group.exponential(D).compose(log.scalar_mul(a))
    # the first degree whose numerators carry fewer factors p than g.den
    bad = np.flatnonzero(g.row_valuations()[1:] < 0)
    first_bad = int(bad[0]) + 1 if bad.size else None
    record = {
        "multiplier": tuple(int(v) for v in a_elem.coeffs),
        "window": D,
        "precision": N_eff,
        "success": first_bad is None,
        "first_nonintegral_degree": first_bad,
        "series": None,
        "commutes": None,
        "linear_coefficient_matches": None,
    }
    if first_bad is None:
        desc_eff = desc.at_precision(N_eff)
        g_int = g.to_integral(desc_eff)
        record["series"] = g_int
        record["linear_coefficient_matches"] = (c_map(g_int) - a_elem.reduce_to(desc_eff)).is_zero()
        F2 = group.group_law2(D, N_eff)
        record["commutes"] = g_int.compose(F2) == substitute2_into2(F2, g_int, g_int)
        record["success"] = bool(record["commutes"] and record["linear_coefficient_matches"])
    group._endo_cache[key] = record
    return dict(record)


def _divisors_desc(n: int):
    return sorted((d for d in range(1, n + 1) if n % d == 0), reverse=True)


def compute_endo_subfield(group, D: int | None = None) -> dict:
    """Residue degree f_F of the multiplier subring.

    Tests p, -1, and one Teichmuller generator per divisor d of gcd(f, h),
    largest first; testing a single generator per subfield suffices because
    the succeeding multipliers form a ring closed under the Teichmuller
    section.  The generator of mu_{p^d-1} is digit 2 of the cached table
    teichmuller_digits(desc, d), and every certificate comes from the
    group's cache, so a repeated call rebuilds nothing.
    """
    h = group.height
    if h is INF:
        raise ValueError("no finite height: the multiplier ring is not an order")
    desc = group.desc
    baseline = []
    for label, a in (("p", desc.p), ("-1", -1)):
        rec = try_endomorphism(group, a, D)
        rec["candidate"] = label
        baseline.append(rec)
    candidates = []
    f_F = 1
    for d in _divisors_desc(math.gcd(desc.f, h)):
        rec = try_endomorphism(group, teichmuller_digits(desc, d)[2], D)
        rec["candidate"] = f"mu_{desc.p**d - 1}_generator"
        rec["subfield_degree"] = d
        candidates.append(rec)
        if rec["success"]:
            f_F = max(f_F, d)
    return {
        "p": desc.p,
        "f": desc.f,
        "height": h,
        "baseline": baseline,
        "candidates": candidates,
        "f_F": f_F,
        "full_height": f_F == h,
        "window": candidates[0]["window"],
        "precision": candidates[0]["precision"],
    }


def tau_infinity_check(group, D: int | None = None) -> dict:
    """The distinguished order-(q-1) endomorphism of a full-height group:
    g = [zeta] with zeta generating mu_{q-1}, and g composed with itself
    q-1 times is the identity.

    The cycle runs once per certificate window: its record is cached on the
    group beside the certificates, and each call returns a fresh copy."""
    if not compute_endo_subfield(group, D)["full_height"]:
        raise ValueError("full-height multiplier ring required")
    q = group.q
    zeta = teichmuller_digits(group.desc, group.height)[2]
    rec = try_endomorphism(group, zeta, D)
    if not rec["success"]:
        raise ValueError("generator multiplier failed despite full height")
    cached = group._tau_cache.get(rec["window"])
    if cached is not None:
        return dict(cached)
    g = rec["series"]
    cur = g
    for _ in range(q - 2):
        cur = g.compose(cur)
    ident = TruncSeries1.x(g.desc, g.D)
    record = group._tau_cache[rec["window"]] = {
        "zeta": tuple(int(v) for v in zeta.reduce_to(g.desc).coeffs),
        "order": q - 1,
        "linear_coefficient": tuple(int(v) for v in c_map(g).coeffs),
        "is_identity": cur == ident,
        "window": rec["window"],
        "precision": rec["precision"],
    }
    return dict(record)


def multiplier_closure_sample(group, pairs, D: int | None = None) -> dict:
    """Spot-check that sums and products of succeeding multipliers succeed."""
    results = []
    all_ok = True
    for a, b in pairs:
        ra = try_endomorphism(group, a, D)
        rb = try_endomorphism(group, b, D)
        if not (ra["success"] and rb["success"]):
            all_ok = False
            results.append({"pair": "input-failed", "ok": False})
            continue
        a_e, b_e = (group.desc.from_coeffs(r["multiplier"]) for r in (ra, rb))
        rs = try_endomorphism(group, a_e + b_e, D)
        rp = try_endomorphism(group, a_e * b_e, D)
        ok = rs["success"] and rp["success"]
        all_ok = all_ok and ok
        results.append({
            "sum_success": rs["success"],
            "product_success": rp["success"],
            "ok": ok,
        })
    return {"pairs": len(results), "all_ok": all_ok, "results": results}
