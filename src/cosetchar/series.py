"""Exact truncated formal series in a fractional power of q.

A :class:`FracSeries` stores only its nonzero terms, as sorted
``(position, coefficient)`` pairs on the exponent lattice ``(1/den)Z``; an
integer coefficient is a plain ``int``, a ``Fraction`` only when a caller
passes a non-integer one.  Every operation tracks the largest exponent bound
below which its result is still exact, so a coefficient can never silently
degrade into garbage: asking for one at or beyond the bound raises instead
of returning zero.  Products never multiply a pair landing past that bound.

The module also provides the handful of special series every character in
this package is assembled from: plain monomial prefactors, Euler products
``prod (1 +- q^n)^e``, theta null sums ``sum_m q^(a(m+b/2a)^2)`` and their
linearly weighted variants ``sum_m (Am+b) q^(c(m+b/A)^2)``, and the private
assembly ``_character`` that the minimal and affine characters share: theta
numerator times one combined Euler factor times ``q^(-1/24)`` or
``q^(-1/8)``, truncated so that it is exact through the requested order.
Logarithmic derivatives add, so a product of several Euler products comes
from a single recurrence (``_euler``), cached per parts list and length.
:meth:`FracSeries.coeff_row` reads a whole row of integer-spaced
coefficients in one pass.  ``==`` is strict: two series are equal only with
the same exactness bound and the same nonzero terms.  :func:`equal_through`
compares two series of any bounds through a given exponent, which both must
know.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Iterator

__all__ = [
    "FracSeries",
    "monomial",
    "euler_product",
    "theta_null",
    "weighted_theta",
    "series_from_terms",
    "equal_through",
]

_ZERO = Fraction(0)


def _ceil(x: Fraction | int) -> int:
    """Exact ceiling of a rational."""
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def _exact(c) -> int | Fraction:
    """A coefficient as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class FracSeries:
    """Truncated series ``sum_(p, c) in terms c * q**(p/den)``.

    ``terms`` holds the nonzero coefficients only, sorted by position.  The
    series is exact for every exponent strictly below ``order/den`` and
    nothing is known at or beyond that bound; exponents strictly below
    ``lowest/den`` are exactly zero.  ``coeffs`` is the dense view of slots
    ``lowest .. order-1`` (zeros included), derived on demand for
    serialization and inspection.  Instances are immutable; all arithmetic
    returns new objects.
    """

    __slots__ = ("den", "lowest", "order", "terms")

    def __init__(self, den: int, lowest: int, coeffs: Iterable[Fraction | int]):
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        self.den = int(den)
        self.lowest = int(lowest)
        values = [_exact(c) for c in coeffs]
        self.order = self.lowest + len(values)
        self.terms = tuple((self.lowest + k, c) for k, c in enumerate(values) if c)

    @classmethod
    def _from_terms(cls, den: int, lowest: int, order: int, pairs) -> "FracSeries":
        """Series from (position, coefficient) pairs with distinct positions."""
        out = object.__new__(cls)
        out.den, out.lowest, out.order = den, lowest, order
        out.terms = tuple(t for t in sorted(pairs) if t[1])
        return out

    @property
    def order_exponent(self) -> Fraction:
        """Exponent bound: exact strictly below ``order/den``."""
        return Fraction(self.order, self.den)

    @property
    def coeffs(self) -> tuple[int | Fraction, ...]:
        """Dense coefficients of slots ``lowest .. order-1``."""
        out = [0] * (self.order - self.lowest)
        for p, c in self.terms:
            out[p - self.lowest] = c
        return tuple(out)

    # -- inspection ------------------------------------------------------

    def exponent(self, k: int) -> Fraction:
        """Exponent of the k-th slot above ``lowest``."""
        return Fraction(self.lowest + k, self.den)

    def nonzero_terms(self) -> Iterator[tuple[Fraction, Fraction]]:
        """Yield (exponent, coefficient) for every nonzero term."""
        for p, c in self.terms:
            yield Fraction(p, self.den), Fraction(c)

    def leading_term(self) -> tuple[Fraction, Fraction] | None:
        """First nonzero (exponent, coefficient), or None for a zero series."""
        return next(self.nonzero_terms(), None)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, num: int | Fraction, den: int = 1) -> Fraction:
        """Exact coefficient of ``q**(num/den)``.

        Zero when the exponent is below the truncation bound but not on the
        series' exponent lattice.  Raises ValueError at or beyond the bound;
        an unknown coefficient is never reported as zero.
        """
        e = Fraction(num, den) if not isinstance(num, Fraction) else num / den
        self._require_known(e)
        scaled = e * self.den
        if scaled.denominator != 1:
            return _ZERO
        pos = scaled.numerator
        k = bisect_left(self.terms, (pos,))
        if k < len(self.terms) and self.terms[k][0] == pos:
            return Fraction(self.terms[k][1])
        return _ZERO

    def coeff_row(self, start: Fraction | int, count: int) -> tuple[Fraction, ...]:
        """Exact coefficients of ``q**(start + k)``, k = 0 .. count-1, in one pass.

        The same values as ``coeff(start + k)`` for each k, and the same
        ValueError when the last exponent lies at or beyond the bound.  All
        zeros when start is off the series' exponent lattice.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        start = Fraction(start)
        if count:
            self._require_known(start + count - 1)
        out = [_ZERO] * count
        scaled = start * self.den
        if scaled.denominator != 1:
            return tuple(out)
        first, stop = scaled.numerator, scaled.numerator + count * self.den
        for p, c in islice(self.terms, bisect_left(self.terms, (first,)), None):
            if p >= stop:
                break
            k, off = divmod(p - first, self.den)
            if not off:
                out[k] = Fraction(c)
        return tuple(out)

    def _require_known(self, e: Fraction) -> None:
        if e >= self.order_exponent:
            raise ValueError(
                f"coefficient of q^{e} requested, but series is only exact "
                f"below q^{self.order_exponent}"
            )

    # -- representation changes -----------------------------------------

    def reduced(self) -> "FracSeries":
        """Equivalent series on the coarsest lattice holding all nonzero terms."""
        if self.den == 1:
            return self
        # d must divide order as well, otherwise the coarser lattice would
        # either drop a known slot or claim exactness past the true bound
        d = gcd(self.den, self.order, *(p for p, _ in self.terms))
        if d == 1:
            return self
        hi = self.order // d
        pairs = ((p // d, c) for p, c in self.terms)
        return FracSeries._from_terms(self.den // d, -(-self.lowest // d), hi, pairs)

    def truncate(self, bound: Fraction | int) -> "FracSeries":
        """Drop knowledge at exponents >= bound (bound must not exceed order)."""
        b = Fraction(bound)
        if b > self.order_exponent:
            raise ValueError("cannot truncate beyond the exactness bound")
        order = _ceil(b * self.den)
        keep = self.terms[: bisect_left(self.terms, (order,))]
        return FracSeries._from_terms(self.den, min(self.lowest, order), order, keep)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "FracSeries") -> "FracSeries":
        if not isinstance(other, FracSeries):
            return NotImplemented
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        order = min(self.order * fa, other.order * fb)
        lowest = min(self.lowest * fa, other.lowest * fb)
        acc = defaultdict(int)
        for f, terms in ((fa, self.terms), (fb, other.terms)):
            for p, c in terms:
                if p * f < order:
                    acc[p * f] += c
        return FracSeries._from_terms(d, lowest, order, acc.items())

    def __neg__(self) -> "FracSeries":
        return self.scaled(-1)

    def __sub__(self, other: "FracSeries") -> "FracSeries":
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self + (-other)

    def scaled(self, factor: Fraction | int) -> "FracSeries":
        """Multiply every coefficient by an exact scalar."""
        f = _exact(factor)
        pairs = ((p, c * f) for p, c in self.terms)
        return FracSeries._from_terms(self.den, self.lowest, self.order, pairs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, FracSeries):
            return NotImplemented
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        tb = [(j * fb, c) for j, c in other.terms]
        pos_b = [j for j, _ in tb]
        # First possibly-nonzero position of each factor; with no nonzero term
        # stored that is the truncation bound itself.
        lo_a = (self.terms[0][0] if self.terms else self.order) * fa
        lo_b = pos_b[0] if tb else other.order * fb
        # Unknown tail of one factor first pollutes the product at
        # order_a + lo_b (resp. order_b + lo_a); below that every Cauchy
        # convolution term is made of known coefficients.
        order = min(self.order * fa + lo_b, other.order * fb + lo_a)
        acc = defaultdict(int)
        for i, ca in self.terms:
            i *= fa
            for j, cb in islice(tb, bisect_left(pos_b, order - i)):
                acc[i + j] += ca * cb
        return FracSeries._from_terms(d, lo_a + lo_b, order, acc.items())

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FracSeries":
        if not isinstance(n, int) or n < 1:
            raise ValueError("only positive integer powers are supported")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equal iff the exactness bounds and all nonzero terms are the same.

        ``lowest`` is not part of the value.  To compare series with
        different bounds on a prefix, use :func:`equal_through`.
        """
        if not isinstance(other, FracSeries):
            return NotImplemented
        bound = self.order_exponent
        return bound == other.order_exponent and _terms_equal_through(self, other, bound)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        coeffs = ["0/1"] * (self.order - self.lowest)
        for p, c in self.terms:
            coeffs[p - self.lowest] = f"{c.numerator}/{c.denominator}"
        return {"denominator": self.den, "lowest": self.lowest, "coeffs": coeffs,
                "order": self.order}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FracSeries":
        out = cls(int(d["denominator"]), int(d["lowest"]), d["coeffs"])
        order = int(d["order"])
        if order < out.order:
            raise ValueError("order field below the stored coefficient range")
        out.order = order
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def loads(cls, s: str) -> "FracSeries":
        return cls.from_json_dict(json.loads(s))

    def __repr__(self) -> str:
        parts = []
        for e, c in self.nonzero_terms():
            parts.append(f"{c}*q^({e})")
            if len(parts) == 6:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"<FracSeries {body} exact below q^({self.order_exponent})>"


def series_from_terms(
    terms: Iterable[tuple[Fraction, Fraction]], bound: Fraction | int
) -> FracSeries:
    """Build a series from (exponent, coefficient) pairs, exact below bound.

    The lattice denominator is the lcm of the exponent denominators and the
    bound's, so every term sits on an integer slot.
    """
    bound = Fraction(bound)
    kept = [(e, c) for e, c in ((Fraction(e), c) for e, c in terms) if e < bound]
    d = lcm(bound.denominator, *(e.denominator for e, _ in kept))
    order = bound.numerator * (d // bound.denominator)
    acc = defaultdict(int)
    for e, c in kept:
        acc[e.numerator * (d // e.denominator)] += _exact(c)
    lowest = min(acc, default=order)
    return FracSeries._from_terms(d, lowest, order, acc.items()).reduced()


def monomial(c: Fraction | int, num: int, den: int, order_terms: int) -> FracSeries:
    """Single term ``c * q**(num/den)`` with order_terms retained slots."""
    if den < 1:
        raise ValueError("den must be >= 1")
    if order_terms < 1:
        raise ValueError("order_terms must be >= 1")
    return FracSeries._from_terms(den, num, num + order_terms, [(num, _exact(c))])


def euler_product(sign: int, exponent: int, n_terms: int) -> FracSeries:
    """``prod_{n=1..N} (1 + sign*q^n)**exponent`` exact through q^N.

    sign is +1 or -1.  Factors beyond N only touch exponents > N, so the
    retained coefficients 0..N are the coefficients of the full infinite
    product.  They come from the recurrence in ``_euler``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    return _euler(((sign, exponent),), n_terms)


@lru_cache(maxsize=32)
def _euler(parts: tuple[tuple[int, int], ...], n: int) -> FracSeries:
    """``prod_{(sign, e) in parts} prod_{m=1..n} (1 + sign*q^m)**e`` exact through q^n.

    Logarithmic-derivative recurrence ``n a_n = sum_{k=1..n} g(k) a_{n-k}``,
    where g is the sum of the parts' own: ``g(k) = -e sigma(k)`` for
    ``(1-q^m)^e`` and ``g(k) = e (sigma(k) - 2 sigma(k/2))`` for
    ``(1+q^m)^e``, with sigma the divisor sum (zero off the integers).  So a
    product of several Euler products costs one recurrence, not several
    dense series products.
    """
    sigma = [0] * (n + 1)
    for k in range(1, n + 1):
        for m in range(k, n + 1, k):
            sigma[m] += k
    g = [0] * (n + 1)
    for sign, e in parts:
        for k in range(1, n + 1):
            if sign == -1:
                g[k] -= e * sigma[k]
            else:
                g[k] += e * (sigma[k] - (0 if k % 2 else 2 * sigma[k // 2]))
    a = [1] + [0] * n
    for m in range(1, n + 1):
        a[m] = sum(map(mul, g[1 : m + 1], a[m - 1 :: -1])) // m
    return FracSeries._from_terms(1, 0, n + 1, enumerate(a))


def _theta(modulus: int, residue: int, scale: Fraction, order: int, weight) -> FracSeries:
    """``sum_{n = residue mod modulus} weight(n) * q**(scale*n**2)`` exact below order."""
    top = isqrt(_ceil(order / scale))
    start = -top + (residue + top) % modulus
    terms = [
        (e, weight(n))
        for n in range(start, top + 1, modulus)
        if (e := scale * (n * n)) < order
    ]
    return series_from_terms(terms, order)


def theta_null(a: int, b: int, order: int) -> FracSeries:
    """``sum_{m in Z} q**(a*(m + b/(2a))**2)`` exact below exponent order.

    Exponents are (2am+b)^2/(4a), so the lattice denominator divides 4a.
    Symmetric under b -> -b.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    return _theta(2 * a, b, Fraction(1, 4 * a), order, lambda n: 1)


def weighted_theta(a: int, b: int, c: Fraction | int, order: int) -> FracSeries:
    """``sum_{m in Z} (a*m + b) * q**(c*(m + b/a)**2)`` exact below order."""
    if a < 1:
        raise ValueError("a must be >= 1")
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if order < 1:
        raise ValueError("order must be >= 1")
    return _theta(a, b, c / a**2, order, lambda n: n)


def _terms_equal_through(a: FracSeries, b: FracSeries, bound: Fraction) -> bool:
    """True iff a and b have the same nonzero terms at every exponent <= bound."""
    d = lcm(a.den, b.den)
    top = bound.numerator * d // bound.denominator
    fa, fb = d // a.den, d // b.den
    return [(p * fa, c) for p, c in a.terms if p * fa <= top] == [
        (p * fb, c) for p, c in b.terms if p * fb <= top
    ]


def equal_through(a: FracSeries, b: FracSeries, bound: Fraction | int) -> bool:
    """True iff a and b have the same coefficient at every exponent <= bound.

    Raises ValueError unless both series are exact through bound, so the
    comparison never passes on a region that one side does not know.  Unlike
    ``==`` it ignores what either side knows beyond bound.
    """
    bound = Fraction(bound)
    for s in (a, b):
        s._require_known(bound)
    return _terms_equal_through(a, b, bound)


def _character(theta_at, euler_parts, eta_den: int, target: Fraction, order: int) -> FracSeries:
    """Graded dimension ``theta * prod (1 +- q^n)^e / q^(1/eta_den)``, exact past target.

    ``theta_at(bound)`` builds the theta numerator exact below exponent bound.
    ``euler_parts`` lists the ``(sign, e)`` of every Euler factor; all of them
    come as one series from one ``_euler`` recurrence, kept through
    q^(order+2) and shared by every character with the same parts and order.
    ``target`` is the inclusive exponent the caller needs exact; falling
    short of it is a bookkeeping error.  The theta bound is the shifted
    target rounded up, plus a margin of 2: when ``target + 1/eta_den`` is an
    integer (sl2 L(7,5), for one) a margin of 0 would leave the character
    exact only below target.  The margin stays at 2 because it sets every
    character's ``order``, which the Python API exposes.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    out = theta_at(_ceil(target + Fraction(1, eta_den)) + 2) * _euler(euler_parts, order + 2)
    span = out.order - out.lowest
    out = out * monomial(1, -1, eta_den, eta_den * span // out.den + eta_den + 1)
    if out.order_exponent <= target:
        raise RuntimeError("internal truncation bookkeeping error")
    return out
