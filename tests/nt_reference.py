"""The number-theoretic block of construct.py as it stood before the field
search went through one polynomial reduction: Rabin's irreducibility test
with its own polynomial gcd, a separate trial-division primality test and
hand-written base-L digit loops.

Kept verbatim, for tests only: bose_chowla, bose_chowla_code,
smallest_prime_at_least and _find_irreducible must return the same values,
or raise the same error class with the same message.
"""

import numpy as np

from sqgt.construct import _step_levels
from sqgt.errors import BadRange, NotPrime, Overflow
from sqgt.model import CodeParams


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    f = 2
    while f * f <= x:
        if x % f == 0:
            return False
        f += 1
    return True


def smallest_prime_at_least(n: int) -> int:
    p = max(2, n)
    while not _is_prime(p):
        p += 1
    return p


def _prime_factors(x: int) -> list[int]:
    out = []
    f = 2
    while f * f <= x:
        if x % f == 0:
            out.append(f)
            while x % f == 0:
                x //= f
        f += 1
    if x > 1:
        out.append(x)
    return out


def _poly_mul_mod(a, b, f, L):
    d = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % L
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(d):
                prod[i - d + j] = (prod[i - d + j] - c * f[j]) % L
    prod = prod[:d] + [0] * (d - len(prod))
    return tuple(prod[:d])


def _poly_pow_mod(base, exp, f, L):
    d = len(f) - 1
    result = tuple([1] + [0] * (d - 1))
    cur = tuple(base)
    while exp:
        if exp & 1:
            result = _poly_mul_mod(result, cur, f, L)
        cur = _poly_mul_mod(cur, cur, f, L)
        exp >>= 1
    return result


def _poly_gcd(a, b, L):
    a, b = list(a), list(b)

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, L)
        while len(a) >= len(b):
            c = (a[-1] * inv) % L
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[i + shift] = (a[i + shift] - c * bi) % L
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return a


def _is_irreducible(f, L):
    """Rabin test for a monic polynomial f over GF(L)."""
    d = len(f) - 1
    x = tuple([0, 1] + [0] * (d - 2)) if d >= 2 else (0,)
    xq = _poly_pow_mod(x, L**d, f, L)
    if xq != x:
        return False
    for p in _prime_factors(d):
        h = list(_poly_pow_mod(x, L ** (d // p), f, L))
        h[1] = (h[1] - 1) % L  # h = x^(L^(d/p)) - x
        g = _poly_gcd(h, list(f), L)
        if len(g) != 1:
            return False
    return True


def _find_irreducible(L, d):
    # monic x^d + (low-order coefficients); scan codes deterministically
    for code in range(1, L**d):
        coeffs = []
        c = code
        for _ in range(d):
            coeffs.append(c % L)
            c //= L
        if coeffs[0] == 0:
            continue
        f = tuple(coeffs) + (1,)
        if _is_irreducible(f, L):
            return f
    raise NotPrime(f"no irreducible polynomial of degree {d} found over GF({L})")


def bose_chowla(L: int, d: int) -> tuple[int, ...]:
    """L nonzero integers below L^d whose d-element multiset sums are
    pairwise distinct modulo L^d - 1.

    Realized through discrete logarithms in GF(L^d): with a primitive
    element t, the logs of t+a over all a in GF(L) have the property. L must
    be prime.
    """
    if d < 2:
        raise BadRange(f"need d >= 2, got {d}")
    if not _is_prime(L):
        raise NotPrime(f"{L} is not prime")
    if L**d - 1 > 2**62:
        raise Overflow(f"L^d = {L}^{d} exceeds the safe integer range")
    f = _find_irreducible(L, d)
    order = L**d - 1
    prime_parts = _prime_factors(order)
    one = tuple([1] + [0] * (d - 1))

    theta = None
    for code in range(L, L**d):  # skip constants, start at x
        coeffs = []
        c = code
        for _ in range(d):
            coeffs.append(c % L)
            c //= L
        cand = tuple(coeffs)
        if all(_poly_pow_mod(cand, order // p, f, L) != one for p in prime_parts):
            theta = cand
            break
    if theta is None:
        raise NotPrime(f"no primitive element found in GF({L}^{d})")

    # walk powers of theta; collect exponents of elements theta + a, a in GF(L)
    targets = {}
    for a in range(L):
        shifted = (theta[0] + a) % L
        targets[(shifted,) + theta[1:]] = a
    logs = []
    power = theta
    for i in range(1, order + 1):
        if power in targets:
            logs.append(i)
            if len(logs) == L:
                break
        power = _poly_mul_mod(power, theta, f, L)
    if len(logs) != L:
        raise NotPrime(f"discrete-log walk failed in GF({L}^{d})")
    return tuple(sorted(logs))


def bose_chowla_code(n: int, d: int, q: int, eta_step: int) -> tuple[np.ndarray, CodeParams]:
    """Code whose columns are scaled base-q' digit vectors of a distinct
    d-sum integer set; claimed SQ-separable for exactly d defectives."""
    if n < 2:
        raise BadRange(f"need n >= 2, got {n}")
    q_prime = _step_levels(q, eta_step) + 1
    L = smallest_prime_at_least(n)
    integers = bose_chowla(L, d)[:n]
    m = 0
    reach = 1
    while reach < L**d:
        reach *= q_prime
        m += 1
    C = np.zeros((m, n), dtype=np.int64)
    for j, val in enumerate(integers):
        for k in range(m):  # little-endian digits
            C[k, j] = val % q_prime
            val //= q_prime
    params = CodeParams.equidistant(q, eta_step, d, d, 0)
    return eta_step * C, params
