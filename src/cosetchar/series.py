"""Exact truncated formal series in a fractional power of q, with int coefficients.

A :class:`FracSeries` on the exponent lattice ``(1/den)Z`` stores one dense
row of ``int`` coefficients (every series here is a graded dimension),
``row[k]`` at position ``lowest + step*k``, from the first nonzero term to the
last.  ``step`` is the gcd of ``den`` and the spacings of the nonzero terms,
so every series the package builds holds one entry per whole level.  Every
operation tracks the largest exponent bound below which its result is still
exact: asking for a coefficient at or beyond it raises instead of returning
zero.  Rows serve the product, the coefficient reads and the characters.  A
coefficient read is a slice of the row; it reads its start exponent as an
integer pair and makes no Fraction unless it raises.  A product puts both
rows on one step, never multiplies or packs an entry that cannot land below
its bound, and multiplies short rows by a loop over nonzero entries, long
ones as two packed ``int``s (Kronecker substitution).  The other operations,
which no hot path runs (``+``, ``==``, :func:`equal_through`), read the
nonzero terms.

The module also provides the handful of special series the characters of
this package are made of: plain monomial prefactors, Euler products
``prod (1 +- q^n)^e``, theta null sums ``sum_m q^(a(m+b/2a)^2)`` and their
linearly weighted variants ``sum_m (Am+b) q^(c(m+b/A)^2)`` (built on integer
positions), and the private assembly ``_character`` that the minimal and
affine characters share: theta numerator times one combined Euler factor (one
cached ``_euler`` row of ints, from sparse theta-type series), shifted by
``q^(-1/24)`` or ``q^(-1/8)``, exact through h - c/24 + order and no further.
It takes its numerator as plain data (scale, modulus, weighted, signed
residue classes) and the caller's lead h - c/24 as an integer pair, each
character's one closed integer form; it adds the order itself and finds its
bounds by floor division, so its cache key holds only ints.  It lists the
theta terms as integers with the enumerator the theta sums share, and builds
no series but the result: one integer pass, each theta term shifting and
adding the Euler row, whose row is the character's row.  It is cached per
argument set, so a command builds each character once.
``==`` is strict: equal series have the same exactness bound and nonzero terms.
:func:`equal_through` compares two series of any bounds through a given
exponent, which both must know.

The ``N/D`` text form of an exact number has one reader, ``T_FORM``, and
one writer, ``_rat``; a series' JSON coefficients, the reports' fractions,
the branching weights and every rational the command line prints come from
it.  ``loads`` refuses a JSON boolean where an integer field belongs.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, lcm
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


# A product runs the pair loop while its shorter row, cut to the entries that
# can land below the product's bound, has fewer entries than this.  That
# length bounds the pairs summed into one product coefficient, while packing
# costs about the same per entry whatever the length.  The products that reach
# this choice are character times character, in coset and in
# affine.branch_character (characters themselves are built without __mul__).
# On the seven products of the decomposition check, with rows of order + 1
# entries, the two break even at about 8 entries: the pair loop wins at 6 and
# below, the packed product at 9 and above (best of 200, Python 3.11).
_KRONECKER_MIN_TERMS = 8

# the one form of a rational read from text (a JSON coefficient, the CLI's --t):
# an integer or NUM/DEN in ASCII digits.  Fraction would also read an exponent
# such as 1e99999999, and build 10**99999999
T_FORM = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rat(x) -> str:
    """The ``N/D`` form of an int or a Fraction: the one form written, which T_FORM reads."""
    return f"{x.numerator}/{x.denominator}"


def _bias(length: int, wb: int, half: int) -> int:
    """``sum half * X**k`` for k < length, with ``X = 2**(8*wb)``."""
    return int.from_bytes(half.to_bytes(wb, "little") * length, "little")


def _pack(row, wb: int, half: int) -> int:
    """``sum row[k] * X**k``, ``X = 2**(8*wb)``, every ``|row[k]| < half``."""
    packed = b"".join([(c + half).to_bytes(wb, "little") for c in row])
    return int.from_bytes(packed, "little") - _bias(len(row), wb, half)


def _kronecker(ra, rb, n: int) -> list[int]:
    """The first n coefficients of the product of two dense integer rows.

    Each row is packed into a single int, one slot of ``wb`` bytes per entry,
    and one big-int multiply does the whole convolution (Kronecker
    substitution); slots from n on are discarded.  A product slot sums at
    most ``min(len(ra), len(rb))`` products, each below ``2**(bits_a +
    bits_b)`` in magnitude, so it lies strictly between -half and half: with
    half added, every slot is a digit in ``[0, X)`` that never carries into
    the next.
    """
    bits = max(map(abs, ra)).bit_length() + max(map(abs, rb)).bit_length()
    wb = (bits + min(len(ra), len(rb)).bit_length() + 8) // 8  # bytes for bits + 1 sign bit
    half = 1 << (8 * wb - 1)
    prod = _pack(ra, wb, half) * _pack(rb, wb, half) + _bias(n, wb, half)
    raw = (prod & ((1 << (8 * wb * n)) - 1)).to_bytes(wb * n, "little")
    return [int.from_bytes(raw[o : o + wb], "little") - half for o in range(0, wb * n, wb)]


def _nonzero(row) -> list[tuple[int, int]]:
    """``(k, row[k])`` for every nonzero entry, found in one C-level pass."""
    return list(compress(enumerate(row), row))


def _spread(row, stride: int, n: int):
    """The first n slots of row put ``stride`` slots apart, zeros between (fewer if row ends)."""
    if stride == 1:
        return row[:n]
    out = [0] * min(n, (len(row) - 1) * stride + 1)
    out[::stride] = row[: -(-len(out) // stride)]
    return out


# sets a slot of a new FracSeries, whose own __setattr__ refuses
_set = object.__setattr__


class FracSeries:
    """Truncated series ``sum_k row[k] * q**((lowest + step*k)/den)``.

    Every slot of the lattice ``(1/den)Z`` below the bound ``order/den`` that
    the row does not hold is zero, and nothing is known at or beyond the
    bound.  The row is canonical: empty for a zero series (then ``lowest ==
    order``), else starting and ending on a nonzero entry, and ``step``, a
    divisor of ``den``, is the gcd of ``den`` and the spacings of the nonzero
    terms: ``den`` itself, one entry per whole level, in every series the
    package builds.  ``terms`` (the nonzero ``(position, coefficient)`` pairs)
    and ``coeffs`` (the dense slots ``lowest .. order-1``) are derived; the
    constructor's ``lowest`` is the position of ``coeffs[0]``.  Instances are
    immutable: assigning to or deleting a slot raises AttributeError, and all
    arithmetic returns new objects.  A coefficient or scalar that is not an
    integer raises TypeError, and so does an exponent that is not an int or a
    Fraction.
    """

    __slots__ = ("den", "order", "lowest", "step", "row")

    def __init__(self, den: int, lowest: int, coeffs: Iterable[int]):
        den, lowest = index(den), index(lowest)
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        values = [index(c) for c in coeffs]
        _store(self, den, lowest + len(values), lowest, 1, values)

    @classmethod
    def _of(cls, den: int, order: int, lead: int, step: int, row) -> "FracSeries":
        """Series with ``row[k]`` at position ``lead + step*k``, below position order."""
        return _store(object.__new__(cls), den, order, lead, step, row)

    @classmethod
    def _from_terms(cls, den: int, order: int, pairs) -> "FracSeries":
        """Series from (position, coefficient) pairs; coefficients at one position add up."""
        pairs = [t for t in pairs if t[1]]
        positions = [p for p, _ in pairs] or [order]
        lead = min(positions)
        step = gcd(den, *[p - lead for p in positions])
        row = [0] * ((max(positions) - lead) // step + 1 if pairs else 0)
        for p, c in pairs:
            row[(p - lead) // step] += c
        return cls._of(den, order, lead, step, row)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"FracSeries is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def order_exponent(self) -> Fraction:
        """Exponent bound: exact strictly below ``order/den``."""
        return Fraction(self.order, self.den)

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The nonzero ``(position, coefficient)`` pairs, sorted by position."""
        return tuple((self.lowest + self.step * k, c) for k, c in _nonzero(self.row))

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Dense coefficients of slots ``lowest .. order-1``."""
        out = [0] * (self.order - self.lowest)
        out[: len(self.row) * self.step : self.step] = self.row
        return tuple(out)

    # -- inspection ------------------------------------------------------

    def nonzero_terms(self) -> Iterator[tuple[Fraction, int]]:
        """Yield (exponent, coefficient) for every nonzero term."""
        for k, c in _nonzero(self.row):
            yield Fraction(self.lowest + self.step * k, self.den), c

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
        All zeros when start is off the series' exponent lattice.  Whole
        levels are ``den // step`` row entries apart, so the row is read as
        one slice.  start is read as ``num/d`` in ints; only the ValueError
        builds a Fraction.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        num, d = start.as_integer_ratio() if isinstance(start, Fraction) else (index(start), 1)
        if count and (num + (count - 1) * d) * self.den >= self.order * d:
            self._require_known(Fraction(num, d) + count - 1)
        # start sits on the lattice, at row entry i, iff d*step divides num*den - d*lowest
        i, off = divmod(num * self.den - self.lowest * d, self.step * d)
        j = self.den // self.step
        k = max(0, -(i // j))  # the first k with i + j*k >= 0
        if not off and k < count:
            part = self.row[i + j * k : i + j * count : j]
            return (0,) * k + part + (0,) * (count - k - len(part))
        return (0,) * count

    def _require_known(self, e: Fraction) -> None:
        if e >= self.order_exponent:
            raise ValueError(
                f"coefficient of q^{e} requested, but series is only exact "
                f"below q^{self.order_exponent}"
            )

    # -- representation changes -----------------------------------------

    def reduced(self) -> "FracSeries":
        """Equivalent series on the coarsest lattice holding all nonzero terms."""
        # d must divide order as well, otherwise the coarser lattice would
        # either drop a known slot or claim exactness past the true bound;
        # every nonzero position is lowest + a multiple of step
        d = gcd(self.order, self.lowest, self.step)
        coarse = (self.den // d, self.order // d, self.lowest // d, self.step // d)
        return self if d == 1 else FracSeries._of(*coarse, self.row)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "FracSeries") -> "FracSeries":
        """Sum on the lcm lattice, exact below the lower of the two bounds.

        Read as terms: both series' nonzero terms, scaled to the common
        lattice and cut at the common bound, go to ``_from_terms``, which adds
        the coefficients at one position and drops the zeros.
        """
        if not isinstance(other, FracSeries):
            return NotImplemented
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        order = min(self.order * fa, other.order * fb)
        pairs = [(p * f, c) for s, f in ((self, fa), (other, fb)) for p, c in s.terms]
        return FracSeries._from_terms(d, order, [t for t in pairs if t[0] < order])

    def __neg__(self) -> "FracSeries":
        return self * -1

    def __sub__(self, other: "FracSeries") -> "FracSeries":
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Product with an ``int``, or Cauchy product with a series on the lcm lattice.

        The product is exact below the first exponent that an unknown
        coefficient of either factor can reach.  Both rows go on the gcd of
        their steps; no entry that cannot land below that bound is multiplied
        or packed, and packed slots past it are discarded.  Any other operand
        raises TypeError.
        """
        if isinstance(other, int):
            if other == 1:
                return self
            row = [c * other for c in self.row]
            return FracSeries._of(self.den, self.order, self.lowest, self.step, row)
        if not isinstance(other, FracSeries):
            return NotImplemented
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        lo_a, lo_b = self.lowest * fa, other.lowest * fb
        # Unknown tail of one factor first pollutes the product at
        # order_a + lo_b (resp. order_b + lo_a); below that every Cauchy
        # convolution term is made of known coefficients.
        order = min(self.order * fa + lo_b, other.order * fb + lo_a)
        if not (self.row and other.row):
            return FracSeries._of(d, order, order, d, ())
        g = gcd(self.step * fa, other.step * fb)
        n = -(-(order - lo_a - lo_b) // g)  # slots lo_a + lo_b + g*k below order
        ra = _spread(self.row, self.step * fa // g, n)
        rb = _spread(other.row, other.step * fb // g, n)
        n = min(n, len(ra) + len(rb) - 1)
        if min(len(ra), len(rb)) >= _KRONECKER_MIN_TERMS:
            out = _kronecker(ra, rb, n)
        else:
            out = _times([*rb, *[0] * (n - len(rb))], _nonzero(ra))
        return FracSeries._of(d, order, lo_a + lo_b, g, out)

    __rmul__ = __mul__

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equal iff the exactness bounds and all nonzero terms are the same.

        The lattice is not part of the value.  To compare series with
        different bounds on a prefix, use :func:`equal_through`.  Read as
        terms: the bounds and the lists of nonzero (exponent, coefficient)
        pairs are compared.
        """
        if not isinstance(other, FracSeries):
            return NotImplemented
        return (self.order_exponent == other.order_exponent
                and list(self.nonzero_terms()) == list(other.nonzero_terms()))

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        # every zero slot shares one string: a fine lattice is mostly zeros
        lo = self.lowest
        coeffs = ["0/1"] * (self.order - lo)
        coeffs[: len(self.row) * self.step : self.step] = map(_rat, self.row)
        return {"denominator": self.den, "lowest": lo, "coeffs": coeffs, "order": self.order}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FracSeries":
        """Series from ``to_json_dict``; ``coeffs`` must list integers in ``T_FORM``.

        ``denominator``, ``lowest`` and ``order`` must be integers: a JSON
        boolean, which Python reads as 0 or 1, raises TypeError.
        """
        for key in ("denominator", "lowest", "order"):
            if isinstance(d[key], bool):
                raise TypeError(f"series {key} must be an integer, not a boolean")
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
        return cls._of(dense.den, order, dense.lowest, dense.step, dense.row)

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


def _store(s: FracSeries, den: int, order: int, lead: int, step: int, row) -> FracSeries:
    """Set the slots of s from ``row[k]`` at position ``lead + step*k``, in canonical form.

    Zero entries at either end are dropped, and the step widens to the gcd of
    den and the spacings of the nonzero entries (a step of den cannot widen).
    """
    first, stop = 0, len(row)
    while first < stop and not row[first]:
        first += 1
    while stop > first and not row[stop - 1]:
        stop -= 1
    row = tuple(row[first:stop] if first or stop < len(row) else row)
    lead += step * first
    if not row:
        lead, step = order, den
    elif step < den:
        wider = gcd(den // step, *(k for k, _ in _nonzero(row)))
        step, row = step * wider, row[::wider]
    for name, value in zip(FracSeries.__slots__, (den, order, lead, step, row)):
        _set(s, name, value)
    return s


def monomial(c: int, num: int, den: int, order_terms: int) -> FracSeries:
    """Single term ``c * q**(num/den)`` with order_terms retained slots."""
    c, num, den, order_terms = index(c), index(num), index(den), index(order_terms)
    if den < 1:
        raise ValueError("den must be >= 1")
    if order_terms < 1:
        raise ValueError("order_terms must be >= 1")
    return FracSeries._of(den, num + order_terms, num, den, [c])


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
    return FracSeries._of(1, n_terms + 1, 0, 1, _euler(((sign, exponent),), n_terms))


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


def _theta_terms(modulus: int, residue: int, u: int, stop: int, weighted: bool):
    """``(u*n*n, w(n))`` for every ``n = residue (mod modulus)`` with ``u*n*n < stop``.

    The one term enumerator of ``_theta`` and ``_character``: a term of a theta
    sum of scale ``u/den`` sits at the integer position ``u*n*n`` on the
    lattice ``(1/den)Z``, with weight ``w(n) = n`` when weighted, else 1.
    """
    top = isqrt(-(-stop // u))
    ns = range(-top + (residue + top) % modulus, top + 1, modulus)
    return [(u * n * n, n if weighted else 1) for n in ns if u * n * n < stop]


def _theta(modulus: int, residue: int, scale: Fraction, order, weighted: bool) -> FracSeries:
    """``sum_{n = residue mod modulus} w(n) * q**(scale*n**2)`` exact below order; w(n) = n or 1.

    Each term sits at the integer position ``u*n**2`` on the lattice ``lcm`` of
    the scale's and the bound's denominators; ``_from_terms`` sums duplicate
    positions (weights n and -n cancel), and ``reduced`` moves the result to
    the coarsest lattice.  An order that is not an int or a Fraction raises TypeError.
    """
    order = Fraction(order, 1)
    if order < 1:
        raise ValueError("order must be >= 1")
    den = lcm(scale.denominator, order.denominator)
    u = scale.numerator * (den // scale.denominator)
    stop = order.numerator * (den // order.denominator)
    pairs = _theta_terms(modulus, residue, u, stop, weighted)
    return FracSeries._from_terms(den, stop, pairs).reduced()


def theta_null(a: int, b: int, order: int) -> FracSeries:
    """``sum_{m in Z} q**(a*(m + b/(2a))**2)`` exact below exponent order.

    Exponents are (2am+b)^2/(4a), so the lattice denominator divides 4a.
    Symmetric under b -> -b.  An a or b that is not an integer raises TypeError.
    """
    a, b = index(a), index(b)
    if a < 1:
        raise ValueError("a must be >= 1")
    return _theta(2 * a, b, Fraction(1, 4 * a), order, False)


def weighted_theta(a: int, b: int, c: Fraction | int, order: int) -> FracSeries:
    """``sum_{m in Z} (a*m + b) * q**(c*(m + b/a)**2)`` exact below order.

    An a or b that is not an integer raises TypeError.
    """
    a, b = index(a), index(b)
    if a < 1:
        raise ValueError("a must be >= 1")
    c = Fraction(c, 1)
    if c <= 0:
        raise ValueError("c must be positive")
    return _theta(a, b, c / a**2, order, True)


def equal_through(a: FracSeries, b: FracSeries, bound: Fraction | int) -> bool:
    """True iff a and b have the same coefficient at every exponent <= bound.

    Raises ValueError unless both series are exact through bound, so the
    comparison never passes on a region that one side does not know.  Unlike
    ``==`` it ignores what either side knows beyond bound.  Read as terms:
    the nonzero terms at exponents <= bound are compared.
    """
    bound = Fraction(bound, 1)
    for s in (a, b):
        s._require_known(bound)
    cut_a, cut_b = ([t for t in s.nonzero_terms() if t[0] <= bound] for s in (a, b))
    return cut_a == cut_b


@lru_cache(maxsize=128)
def _character(numerator, euler_parts, eta_den: int, lead, order: int) -> FracSeries:
    """Graded dimension ``theta * prod (1 +- q^n)^e / q^(1/eta_den)``, exact through lead + order.

    Every argument is an int or a tuple of ints, so the cache key hashes no
    Fraction.  ``numerator`` is plain data, ``((u, w), modulus, weighted,
    ((sign, residue), ...))``: the theta numerator is ``sum sign * w(n) *
    q**(u*n**2/w)`` over every class and every ``n = residue (mod modulus)``,
    with ``w(n) = n`` when weighted and 1 otherwise, listed below the least
    integer above ``lead + order + 1/eta_den``.  ``euler_parts`` lists the
    ``(sign, e)`` of every Euler factor; all of them come as one dense row
    from one ``_euler`` call, kept through q^order and shared by every
    character with the same parts and order.  ``lead`` is the caller's
    h - c/24 as ``(num, den)``, den > 0, from the closed integer form next
    to each character; the target ``lead + order`` is formed here, and the
    result is exact through it and no further (``order_exponent == target +
    1/den``).  A lead that is not exactly the numerator's leading term over
    eta, or a theta term off its levels, raises RuntimeError, so every
    build checks the caller's weight formula and the numerator's shape.

    The theta terms are integers ``(position, coefficient)`` on the lattice
    ``(1/w)Z``, from the enumerator ``_theta`` shares (no two terms of these
    numerators share a position, so none cancel).  They must lie whole levels
    apart (the Virasoro numerator's two classes differ by integers; the
    others are one class), and so do the Euler row's.  So the product is one
    dense row of ``order + 1`` levels: each theta term adds its multiple of
    the Euler row, shifted by its level, in one ``_times`` pass, and that row
    is the character's row, one entry per level, on the lattice ``d = lcm``
    of eta_den and the coarsest lattice holding the theta terms.
    ``q^(-1/eta_den)`` moves the leading position and ``order`` down by
    ``d/eta_den``.  The result is the only series a build makes, with the
    same den and terms as the product of the theta numerator, the Euler
    series and a monomial q^(-1/eta_den), cut after target.

    Cached per argument set (a module-level ``lru_cache``), so a command
    builds each character once and every caller shares the immutable series.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    (u, w), modulus, weighted, classes = numerator
    num, den = lead[0] + order * lead[1], lead[1]  # the target, num/den
    bound = (num * eta_den + den) // (den * eta_den) + 1
    terms = [(p, sign * c) for sign, residue in classes
             for p, c in _theta_terms(modulus, residue, u, bound * w, weighted)]
    first = min(terms, default=(0, 0))[0]
    d = lcm(eta_den, w // gcd(w, *(p for p, _ in terms)))  # w // gcd: the terms' coarsest lattice
    lo, shift = first * d // w, d // eta_den
    stop = num * d // den + shift + 1
    off_levels = any((p - first) % w for p, _ in terms)
    if not terms or stop != lo + order * d + 1 or stop > bound * d or off_levels:
        raise RuntimeError("internal truncation bookkeeping error")
    row = _times(_euler(euler_parts, order), [((p - first) // w, c) for p, c in terms])
    return FracSeries._of(d, stop - shift, lo - shift, d, row)
