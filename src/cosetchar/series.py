"""Exact truncated formal series in a fractional power of q, with int coefficients.

A :class:`FracSeries` stores only its nonzero terms, as sorted
``(position, coefficient)`` pairs on the exponent lattice ``(1/den)Z``.
Exponents are fractional, coefficients are ``int``: every series in this
package is a graded dimension.  Every operation tracks the largest exponent
bound below which its result is still exact, so a coefficient can never
silently degrade into garbage: asking for one at or beyond the bound raises
instead of returning zero.  A product never multiplies or packs a term that
cannot land below its bound.  Small products loop over pairs of terms; large
ones pack each residue class of each factor into one big ``int`` and let a
single multiply do the convolution (Kronecker substitution), discarding the
slots past the bound.

The module also provides the handful of special series every character in
this package is assembled from: plain monomial prefactors, Euler products
``prod (1 +- q^n)^e``, theta null sums ``sum_m q^(a(m+b/2a)^2)`` and their
linearly weighted variants ``sum_m (Am+b) q^(c(m+b/A)^2)`` (built on integer
positions), and the private assembly ``_character`` that the minimal and
affine characters share: theta numerator times one combined Euler factor (one
cached ``_euler`` row of ints, from sparse theta-type series), shifted by
``q^(-1/24)`` or ``q^(-1/8)``, exact through h - c/24 + order and no further.
It runs in one integer pass, each theta term shifting and adding the Euler
row, and is cached per argument set, so a command builds each character once.
``==`` is strict: equal series have the same exactness bound and nonzero terms.
:func:`equal_through` compares two series of any bounds through a given
exponent, which both must know.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import ceil, floor, gcd, isqrt, lcm
from operator import add, index, itemgetter, mul
from typing import Iterable, Iterator

__all__ = [
    "FracSeries",
    "monomial",
    "euler_product",
    "theta_null",
    "weighted_theta",
    "equal_through",
]


# A product runs the pair loop while its smaller factor has fewer nonzero
# terms than this.  That count bounds the pairs summed into one product
# coefficient, while packing costs about the same per slot whatever the
# count.  The products that reach this choice are character times character,
# in coset and in affine.branch_character (characters themselves are built
# without __mul__).  On the seven products of the decomposition check the
# two break even at about 20 terms a factor: the pair loop wins at 16 and
# 18, the packed product at 24.
_KRONECKER_MIN_TERMS = 20

# the one form of a rational read from text (a JSON coefficient, the CLI's --t):
# an integer or NUM/DEN in ASCII digits.  Fraction would also read an exponent
# such as 1e99999999, and build 10**99999999
T_FORM = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _classes(terms, f: int, d: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Terms at positions ``p*f`` grouped by residue r mod d.

    Each class is ``(r, [(k, c), ...])`` with position ``r + d*k``, sorted by k.
    """
    rows = defaultdict(list)
    for p, c in terms:
        k, r = divmod(p * f, d)
        rows[r].append((k, c))
    return list(rows.items())


def _bias(length: int, wb: int, half: int) -> int:
    """``sum half * X**k`` for k < length, with ``X = 2**(8*wb)``."""
    return int.from_bytes(half.to_bytes(wb, "little") * length, "little")


def _pack(row, lo: int, length: int, wb: int, half: int) -> int:
    """``sum c * X**(k-lo)`` over ``(k, c)`` in row, ``X = 2**(8*wb)``, |c| < half."""
    biased = [half] * length
    for k, c in row:
        biased[k - lo] += c
    packed = b"".join([c.to_bytes(wb, "little") for c in biased])
    return int.from_bytes(packed, "little") - _bias(length, wb, half)


def _kronecker(classes_a, classes_b, d: int, order: int) -> dict[int, int]:
    """Product terms below position order of two series given by ``_classes``.

    Inside a residue class the terms are integer-spaced, so each pair of
    classes is a product of two dense integer polynomials.  Each one is
    packed into a single int, one slot of ``wb`` bytes per power, and one
    big-int multiply does the whole convolution (Kronecker substitution).
    Terms that cannot land below order are not packed; slots at or past
    order are discarded.  A product slot sums at most ``min(la, lb)``
    products, each below ``2**(bits_a + bits_b)`` in magnitude, so it lies
    strictly between -half and half: with half added, every slot is a digit
    in ``[0, X)`` that never carries into the next.
    """
    acc = defaultdict(int)
    for ra, row_a in classes_a:
        for rb, row_b in classes_b:
            lo_a, lo_b = row_a[0][0], row_b[0][0]
            # product slots lo_a + lo_b + 0 .. n-1 land below order
            n = (order - 1 - ra - rb) // d - lo_a - lo_b + 1
            if n <= 0:
                continue
            ka = row_a[: bisect_left(row_a, (lo_a + n,))]
            kb = row_b[: bisect_left(row_b, (lo_b + n,))]
            la, lb = ka[-1][0] - lo_a + 1, kb[-1][0] - lo_b + 1
            n = min(n, la + lb - 1)
            width = (
                max(abs(c) for _, c in ka).bit_length()
                + max(abs(c) for _, c in kb).bit_length()
                + min(la, lb).bit_length()
                + 1
            )
            wb = -(-width // 8)
            half = 1 << (8 * wb - 1)
            prod = _pack(ka, lo_a, la, wb, half) * _pack(kb, lo_b, lb, wb, half)
            low = (prod + _bias(n, wb, half)) & ((1 << (8 * wb * n)) - 1)
            raw = low.to_bytes(wb * n, "little")
            base = ra + rb + d * (lo_a + lo_b)
            for k, o in enumerate(range(0, wb * n, wb)):
                c = int.from_bytes(raw[o : o + wb], "little") - half
                if c:
                    acc[base + d * k] += c
    return acc


# sets a slot of a new FracSeries, whose own __setattr__ refuses
_set = object.__setattr__


class FracSeries:
    """Truncated series ``sum_(p, c) in terms c * q**(p/den)``.

    ``terms`` holds the nonzero ``int`` coefficients only, sorted by
    position; every other slot below the bound ``order/den`` is zero, and
    nothing is known at or beyond it.  ``lowest`` (the first nonzero position,
    or ``order`` for a zero series) and ``coeffs``, the dense view of slots
    ``lowest .. order-1``, are derived on demand; the constructor's ``lowest``
    is the position of ``coeffs[0]``.  Instances are immutable: assigning to
    or deleting a slot raises AttributeError, and all arithmetic returns new
    objects.  A coefficient or scalar that is not an integer raises
    TypeError, and so does an exponent that is not an int or a Fraction.
    """

    __slots__ = ("den", "order", "terms")

    def __init__(self, den: int, lowest: int, coeffs: Iterable[int]):
        den, lowest = index(den), index(lowest)
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        values = [index(c) for c in coeffs]
        _set(self, "den", den)
        _set(self, "order", lowest + len(values))
        _set(self, "terms", tuple((lowest + k, c) for k, c in enumerate(values) if c))

    @classmethod
    def _from_terms(cls, den: int, order: int, pairs) -> "FracSeries":
        """Series from (position, coefficient) pairs with distinct positions."""
        out = object.__new__(cls)
        _set(out, "den", den)
        _set(out, "order", order)
        _set(out, "terms", tuple(t for t in sorted(pairs) if t[1]))
        return out

    def __setattr__(self, name, value=None):
        raise AttributeError(f"FracSeries is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def order_exponent(self) -> Fraction:
        """Exponent bound: exact strictly below ``order/den``."""
        return Fraction(self.order, self.den)

    @property
    def lowest(self) -> int:
        """First nonzero position, or ``order`` for a zero series."""
        return self.terms[0][0] if self.terms else self.order

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Dense coefficients of slots ``lowest .. order-1``."""
        lo = self.lowest
        out = [0] * (self.order - lo)
        for p, c in self.terms:
            out[p - lo] = c
        return tuple(out)

    # -- inspection ------------------------------------------------------

    def nonzero_terms(self) -> Iterator[tuple[Fraction, int]]:
        """Yield (exponent, coefficient) for every nonzero term."""
        for p, c in self.terms:
            yield Fraction(p, self.den), c

    def leading_term(self) -> tuple[Fraction, int] | None:
        """First nonzero (exponent, coefficient), or None for a zero series."""
        return next(self.nonzero_terms(), None)

    def coeff(self, num: int | Fraction, den: int = 1) -> int:
        """Exact coefficient of ``q**(num/den)``.

        ``0`` below the truncation bound but off the series' exponent lattice.
        Raises ValueError at or beyond the bound; an unknown coefficient is
        never reported as zero.
        """
        return self.coeff_row(Fraction(num, den), 1)[0]

    def coeff_row(self, start: Fraction | int, count: int) -> tuple[int, ...]:
        """Exact coefficients of ``q**(start + k)``, k = 0 .. count-1, in one pass.

        The same values as ``coeff(start + k)`` for each k, and the
        same ValueError when the last exponent lies at or beyond the bound.
        All zeros when start is off the series' exponent lattice.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        start = Fraction(start, 1)
        if count:
            self._require_known(start + count - 1)
        out = [0] * count
        scaled = start * self.den
        if scaled.denominator != 1:
            return tuple(out)
        first, stop = scaled.numerator, scaled.numerator + count * self.den
        for p, c in islice(self.terms, bisect_left(self.terms, (first,)), None):
            if p >= stop:
                break
            k, off = divmod(p - first, self.den)
            if not off:
                out[k] = c
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
        pairs = ((p // d, c) for p, c in self.terms)
        return FracSeries._from_terms(self.den // d, self.order // d, pairs)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "FracSeries") -> "FracSeries":
        if not isinstance(other, FracSeries):
            return NotImplemented
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        order = min(self.order * fa, other.order * fb)
        acc = defaultdict(int)
        for f, terms in ((fa, self.terms), (fb, other.terms)):
            for p, c in terms:
                if p * f < order:
                    acc[p * f] += c
        return FracSeries._from_terms(d, order, acc.items())

    def __neg__(self) -> "FracSeries":
        return self * -1

    def __sub__(self, other: "FracSeries") -> "FracSeries":
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Product with an ``int``, or Cauchy product with a series on the lcm lattice.

        The product is exact below the first exponent that an unknown
        coefficient of either factor can reach.  No term that cannot land
        below that bound is multiplied or packed, and packed slots past it
        are discarded.  Any other operand raises TypeError.
        """
        if isinstance(other, int):
            pairs = [(p, c * other) for p, c in self.terms]
            return FracSeries._from_terms(self.den, self.order, pairs)
        if not isinstance(other, FracSeries):
            return NotImplemented
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        tb = [(j * fb, c) for j, c in other.terms]
        pos_b = [j for j, _ in tb]
        lo_a, lo_b = self.lowest * fa, other.lowest * fb
        # Unknown tail of one factor first pollutes the product at
        # order_a + lo_b (resp. order_b + lo_a); below that every Cauchy
        # convolution term is made of known coefficients.
        order = min(self.order * fa + lo_b, other.order * fb + lo_a)
        if min(len(self.terms), len(tb)) >= _KRONECKER_MIN_TERMS:
            acc = _kronecker(_classes(self.terms, fa, d), _classes(tb, 1, d), d, order)
        else:
            acc = defaultdict(int)
            for i, ca in self.terms:
                i *= fa
                for j, cb in islice(tb, bisect_left(pos_b, order - i)):
                    acc[i + j] += ca * cb
        return FracSeries._from_terms(d, order, acc.items())

    __rmul__ = __mul__

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equal iff the exactness bounds and all nonzero terms are the same.

        The lattice is not part of the value.  To compare series with
        different bounds on a prefix, use :func:`equal_through`.
        """
        if not isinstance(other, FracSeries):
            return NotImplemented
        bound = self.order_exponent
        return bound == other.order_exponent and _terms_equal_through(self, other, bound)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        # every zero slot shares one string: a fine lattice is mostly zeros
        lo = self.lowest
        coeffs = ["0/1"] * (self.order - lo)
        for p, c in self.terms:
            coeffs[p - lo] = f"{c}/1"
        return {"denominator": self.den, "lowest": lo, "coeffs": coeffs, "order": self.order}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FracSeries":
        """Series from ``to_json_dict``; ``coeffs`` must list integers in ``T_FORM``."""
        if not isinstance(d["coeffs"], list):
            raise TypeError("series coeffs must be a JSON array")
        forms = [T_FORM.fullmatch(c) for c in d["coeffs"]]  # before any parse
        pairs = [(int(m[1]), int(m[2] or 1)) if m else (0, 0) for m in forms]
        if any(den == 0 or num % den for num, den in pairs):
            raise ValueError("series coefficients must be integers written N or N/D")
        dense = cls(d["denominator"], d["lowest"], [num // den for num, den in pairs])
        order = index(d["order"])
        if order < dense.order:
            raise ValueError("order field below the stored coefficient range")
        return cls._from_terms(dense.den, order, dense.terms)

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


def monomial(c: int, num: int, den: int, order_terms: int) -> FracSeries:
    """Single term ``c * q**(num/den)`` with order_terms retained slots."""
    c, num, den, order_terms = index(c), index(num), index(den), index(order_terms)
    if den < 1:
        raise ValueError("den must be >= 1")
    if order_terms < 1:
        raise ValueError("order_terms must be >= 1")
    return FracSeries._from_terms(den, num + order_terms, [(num, c)])


def euler_product(sign: int, exponent: int, n_terms: int) -> FracSeries:
    """``prod_{n=1..N} (1 + sign*q^n)**exponent`` exact through q^N.

    sign is +1 or -1.  Factors beyond N only touch exponents > N, so the
    retained coefficients 0..N are the coefficients of the full infinite
    product.  They come from the sparse series in ``_euler``.  A sign, exponent
    or N that is not an integer raises TypeError.
    """
    sign, exponent, n_terms = index(sign), index(exponent), index(n_terms)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    row = _euler(((sign, exponent),), n_terms)
    return FracSeries._from_terms(1, n_terms + 1, enumerate(row))


@lru_cache(maxsize=32)
def _euler(parts: tuple[tuple[int, int], ...], n: int) -> tuple[int, ...]:
    """Dense row of ints: ``prod_{(sign, e) in parts} prod_{m=1..n} (1 + sign*q^m)**e``, q^0..q^n.

    As ``1 + q^m = (1 - q^(2m)) / (1 - q^m)``, plus parts of total exponent e and
    minus parts of total f give ``P**(e+f) * T**(-e)``, built from four sparse series
    (Andrews, The Theory of Partitions, 1976, ch. 1-2; Q from the quintuple product,
    S. Cooper, Int. J. Number Theory 2, 2006): ``P = (q;q) = sum_j (-1)^j q^(j(3j-1)/2)``,
    ``J = P**3 = sum_(j>=0) (-1)^j (2j+1) q^(j(j+1)/2)``, ``T = theta_4 = P**2/(q^2;q^2)
    = 1 + 2 sum_(j>=1) (-1)^j q^(j^2)`` and ``Q = P*T**2 = sum_j (6j+1) q^(j(3j+1)/2)``.
    Q takes T's power in pairs and J takes P's in threes, rounding towards 0.  Each series
    is applied to its power by binary powering: one O(n sqrt n) pass of exact integer steps
    for a power of +-1, as in every character's row, and O(n**2 log|e|) for any power e.
    """
    x, y = sum(c for _, c in parts), -sum(c for sign, c in parts if sign == 1)  # powers of P, T
    z = y // 2 if y >= 0 else -(-y // 2)  # power of Q
    a = (x - z) // 3 if x >= z else -((z - x) // 3)  # power of J
    r = isqrt(n) + 2
    row = [1] + [0] * n
    for power, series in (
        (z, ((j * (3 * j + 1) // 2, 6 * j + 1) for j in range(-r, r))),
        (y - 2 * z, ((j * j, 2 * (-1) ** j) for j in range(1, r))),
        (a, ((j * (j + 1) // 2, (-1) ** j * (2 * j + 1)) for j in range(1, 2 * r))),
        (x - z - 3 * a, ((j * (3 * j - 1) // 2, (-1) ** abs(j)) for j in range(-r, r))),
    ):
        terms = [(0, 1), *((p, c) for p, c in series if 0 < p <= n)] if power else ()
        for i, bit in enumerate(f"{abs(power):b}"[::-1]):  # terms: series**(2**i), unit first
            if i:
                square = _times(_times([1] + [0] * n, terms), terms)
                terms = [(p, c) for p, c in enumerate(square) if c]
            if bit == "1":
                row = _times(row, terms) if power > 0 else _over(row, terms[1:])
    return tuple(row)


def _times(row: list[int], terms) -> list[int]:
    """``row * sum c q^p`` over ``(p, c)`` in terms, by shift and add, cut at ``len(row)``."""
    out = [0] * len(row)
    for p, c in terms:
        out[p:] = map(add, out[p:], map(c.__mul__, row))
    return out


def _over(row: list[int], terms) -> list[int]:
    """``row / (1 + sum c q^p)`` by ``out[m] = row[m] - sum c out[m-p]``, zero for m < p."""
    out = [0] * len(row)
    cs = [c for _, c in terms]
    get = itemgetter(*(-p for p, _ in terms), 0, 0)
    for v in row:
        out.append(v - sum(map(mul, cs, get(out))))
    return out[len(row) :]


def _theta(
    modulus: int, residue: int, scale: Fraction, order: Fraction | int, weight
) -> FracSeries:
    """``sum_{n = residue mod modulus} weight(n) * q**(scale*n**2)`` exact below order.

    Each term sits at the integer position ``u*n**2`` on the lattice ``lcm`` of
    the scale's and the bound's denominators; duplicate positions are summed
    (weights n and -n cancel), and ``reduced`` moves the result to the
    coarsest lattice.  An order that is not an int or a Fraction raises TypeError.
    """
    order = Fraction(order, 1)
    if order < 1:
        raise ValueError("order must be >= 1")
    den = lcm(scale.denominator, order.denominator)
    u = scale.numerator * (den // scale.denominator)
    stop = order.numerator * (den // order.denominator)
    top = isqrt(ceil(order / scale))
    acc = defaultdict(int)
    for n in range(-top + (residue + top) % modulus, top + 1, modulus):
        if (p := u * n * n) < stop:
            acc[p] += weight(n)
    return FracSeries._from_terms(den, stop, acc.items()).reduced()


def theta_null(a: int, b: int, order: int) -> FracSeries:
    """``sum_{m in Z} q**(a*(m + b/(2a))**2)`` exact below exponent order.

    Exponents are (2am+b)^2/(4a), so the lattice denominator divides 4a.
    Symmetric under b -> -b.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    return _theta(2 * a, b, Fraction(1, 4 * a), order, lambda n: 1)


def weighted_theta(a: int, b: int, c: Fraction | int, order: int) -> FracSeries:
    """``sum_{m in Z} (a*m + b) * q**(c*(m + b/a)**2)`` exact below order."""
    if a < 1:
        raise ValueError("a must be >= 1")
    c = Fraction(c, 1)
    if c <= 0:
        raise ValueError("c must be positive")
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
    bound = Fraction(bound, 1)
    for s in (a, b):
        s._require_known(bound)
    return _terms_equal_through(a, b, bound)


@lru_cache(maxsize=128)
def _character(numerator, euler_parts, eta_den: int, target: Fraction, order: int) -> FracSeries:
    """Graded dimension ``theta * prod (1 +- q^n)^e / q^(1/eta_den)``, exact through target.

    ``numerator`` is a tuple of ``(sign, theta, args)``: the theta numerator is
    the sum of ``sign * theta(*args, bound)``, each built by ``theta_null`` or
    ``weighted_theta`` to the least integer above ``target + 1/eta_den``.
    ``euler_parts`` lists the ``(sign, e)`` of every Euler factor; all of them
    come as one dense row from one ``_euler`` call, kept through q^order
    and shared by every character with the same parts and order.  ``target``
    is the caller's h - c/24 + order: the result is exact through it and no
    further (``order_exponent == target + 1/den``).  A target that is not
    exactly ``order`` levels above the theta sum's leading term, or a theta
    term off those levels, raises RuntimeError, so every build checks the
    caller's weight formula and the numerator's shape.

    Everything happens on the lattice ``d = lcm`` of eta_den and the theta
    denominators, in integers.  The theta terms lie whole levels apart (the
    Virasoro numerator's two sums differ by integers; the others are one sum)
    and so do the Euler row's, so the product is one dense row of
    ``order + 1`` levels: each theta term adds its multiple of the Euler row,
    shifted by its level.  ``q^(-1/eta_den)`` moves every position and
    ``order`` down by ``d/eta_den`` in the same pass.  The result has the same
    den and terms as the product of the theta numerator, the Euler series and
    a monomial q^(-1/eta_den), cut after target.

    Cached per argument set (a module-level ``lru_cache``), so a command
    builds each character once and every caller shares the immutable series.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    bound = floor(target + Fraction(1, eta_den)) + 1
    thetas = [(sign, theta(*args, bound)) for sign, theta, args in numerator]
    d = lcm(eta_den, *(s.den for _, s in thetas))
    acc = defaultdict(int)
    for sign, s in thetas:
        f = d // s.den
        for p, c in s.terms:
            acc[p * f] += sign * c
    terms = sorted((p, c) for p, c in acc.items() if c)
    lo = terms[0][0]
    shift = d // eta_den
    stop = floor(target * d) + shift + 1
    if stop != lo + order * d + 1 or stop > bound * d or any((p - lo) % d for p, _ in terms):
        raise RuntimeError("internal truncation bookkeeping error")
    row = _times(_euler(euler_parts, order), [((p - lo) // d, c) for p, c in terms])
    pairs = [(lo - shift + d * k, c) for k, c in enumerate(row)]
    return FracSeries._from_terms(d, stop - shift, pairs)
