"""Small number-theoretic helpers shared across the package.

Factorization is trial division up to 10^6, which factors every n below
10^12 completely; a cofactor left over is accepted when a deterministic
Miller-Rabin test proves it prime, and refused otherwise. Every argument
an entry point can pass is below the size budget, or below 2 * top^2 <
5 * 10^8 for TotientPower, where top = max_exponent(p, max_q) is the bound.
"""

from __future__ import annotations

_TRIAL_LIMIT = 10 ** 6
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981  # the least strong pseudoprime to all of _MR_BASES


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below _MR_EXACT_BELOW; ValueError from there on, never a guess."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"primality is decided only below {_MR_EXACT_BELOW}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}; ValueError past trial division's reach."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d <= _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if not is_prime(n):
            raise ValueError(f"{n} has no prime factor up to {_TRIAL_LIMIT} and is not prime")
        out[n] = 1
    return out


def max_exponent(p: int, limit: int) -> int:
    """The largest m >= 0 with p^m <= limit, for p >= 2 (0 when p > limit); builds no power past limit."""
    m, power, bound = 0, 1, limit // p
    while power <= bound:
        power, m = power * p, m + 1
    return m


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, m) with n = p^m, or None if n is not a prime power."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    ((p, m),) = fac.items()
    return p, m


def v2(n: int) -> int:
    """2-adic valuation of n != 0."""
    if n == 0:
        raise ValueError("v2(0) is undefined")
    return (n & -n).bit_length() - 1
