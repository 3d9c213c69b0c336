"""Every window and precision rule of the lab, one integer function each.

A verdict is an exact congruence mod p^N on a degree window D.  These
functions say which D and N each construction and check works at, and how
many digits each step loses; every other module reads them from here.
Arguments are plain integers (q is p^height), so this is a leaf module.
"""

import math


def floor_log(n: int, base: int) -> int:
    """Largest k with base^k <= n (0 when n < base), exact in integers."""
    k = 0
    while n >= base:
        n //= base
        k += 1
    return k


def height_index(q: int, p: int) -> int:
    """h with p^h = q, the height read off the unit degree q of a
    [p]-series; raises when q is not a power of p."""
    h = floor_log(q, p)
    if p**h != q:
        raise ValueError("unit term degree must be a power of p")
    return h


def newton_steps(n: int) -> int:
    """Newton steps that take an inverse or root good to one digit to n
    digits: ceil(log2 n) doublings and one more."""
    return (n - 1).bit_length() + 1


# ------------------------------------------------------------ torsion levels

def level_degree(q: int, n: int) -> int:
    """e = (q - 1) q^(n-1), the degree of the level-n division factor P_n
    and the ramification index of the level-n torsion field."""
    return (q - 1) * q ** (n - 1)


def model_window(q: int, n: int, N: int) -> int:
    """N e: a series evaluated at a point of valuation >= 1 of the level-n
    model mod p^N needs this window for its tail to vanish."""
    return N * level_degree(q, n)


def count_window(q: int, n: int) -> int:
    """A window past q^n, the Weierstrass degree of [p^n]."""
    return q**n + q


def division_window(q: int, n: int, N: int) -> int:
    """Window of P_n at precision N: past the Weierstrass degree of [p^n],
    and at least the model window, where every digit of P_n is stable."""
    return max(count_window(q, n), model_window(q, n, N))


def eval_window(K: int, v: int, q: int) -> int:
    """Window of a series evaluated at points of valuation >= v in a model
    of window K; above q, so that it holds a [p]-series."""
    return max(min(-(-K // v) + 1, K), q + 1)


def ramification_precision(N: int) -> int:
    """Precision of the ramification checks, min(N, 5)."""
    return min(N, 5)


def crosscheck_precision(N: int) -> int:
    """Precision of the level-1 ramification cross-check against the law."""
    return min(N, 4)


def crosscheck_window(q: int, N: int) -> int:
    """Window of the law in the level-1 cross-check, the level-1 model
    window plus 2."""
    return model_window(q, 1, crosscheck_precision(N)) + 2


# -------------------------------------------------- laws and [a]-series

def cushion(D: int, q: int) -> int:
    """Digits lost by the cascade of divisions by p^k - p up to degree D."""
    return 2 + floor_log(max(D, 2), q)


def solve_precision(N: int, D: int, q: int) -> int:
    """Precision a solve on window D works at for a result mod p^N: N plus
    the cushion of its divisions by p^k - p."""
    return N + cushion(D, q)


def default_precision(N_c: int, D: int, q: int) -> int:
    """Precision of the law and of [a]-series on window D when none is
    asked: the construction precision N_c less the cushion."""
    return max(1, N_c - cushion(D, q))


def law_window(D: int, q) -> int:
    """Window a law on window D is solved on: past the height index q, so
    that the [p]-series it is solved from holds its unit term X^q."""
    return D if q is None else max(D, q + 1)


def law_precision(kind: str, N_c: int, D: int, q: int) -> int:
    """Highest precision of a law on window D.  A lubin_tate law is solved
    from the stored [p]-series on law_window(D, q), so it pays the cushion
    there; the closed form and the honda [p]-series, over any W(F_{p^f}),
    are exact at any N."""
    return N_c - cushion(law_window(D, q), q) if kind == "lubin_tate" else N_c


def honda_precision(N_out: int, jmax: int) -> int:
    """Working precision M = N_out + jmax of the honda [p]-series Newton
    solve, for any window: the logarithm is scaled by p^jmax to L, and the
    digits lost to the division by p^jmax do not compound.  lam_k != 0 only
    at k = p^v, with v_p(lam_k) >= -v, so L' = p^jmax lam' with lam'
    integral, and an error delta = 0 mod p^(M-jmax) in g moves L(g) by
    L'(g) delta = 0 mod p^M; its order-i term, i >= 2, has valuation
    >= i (M - jmax) + jmax - v_p(i) >= M.  So each step's defect is right
    mod p^M, and its correction, after the division, mod p^(M-jmax)."""
    return N_out + jmax


# ------------------------------------------------------------ multipliers

def endo_window(q) -> int:
    """Default degree window of the multiplier certificates: max(4q, 24),
    and 24 at infinite height (q None)."""
    return 24 if q is None else max(4 * q, 24)


def multiplier_precision(exact: bool, kind: str, N_c: int, D: int, p: int, q: int) -> int:
    """N_eff of a multiplier certificate on window D, capped by the law
    precision.  Integer multipliers keep the pipeline exact.  A ring
    element is a mod-p^N lift whose error the derivative of the integral
    family a -> [a]_k amplifies by floor(log_p D) digits, once for the
    verdict and once for downstream composites.  Raises when fewer than 3
    digits would remain."""
    loss = 0 if exact else 2 * floor_log(D, p)
    N_eff = min(N_c - loss, law_precision(kind, N_c, D, q))
    if min(N_eff, N_c - floor_log(D, p)) < 3:
        raise ValueError("construct the group at higher precision first")
    return N_eff


def construction_precision(p: int, h, N: int, nmax: int) -> int:
    """Descriptor precision needed so the suites can work at precision N
    through torsion level nmax: the widest window is the level-nmax model
    window or the endo window, and the module solver plus element-multiplier
    certificates need their cushions on top of N."""
    if h == math.inf:
        return N
    q = p**h
    D_endo = endo_window(q)
    D_max = max(model_window(q, nmax, N) if nmax >= 1 else N, D_endo, 2)
    return solve_precision(N, D_max, q) + 2 * floor_log(D_endo, p)
