"""Exact field scalars: rationals and prime fields.

Every computation in the engine happens over one fixed field, either Q
(arbitrary-precision rationals) or F_p for a prime p.  A Field instance
is a descriptor; calling it coerces integers, Fraction objects or
decimal strings into Scalar values carrying that descriptor.  Floats
are refused: they are not exact.

A value over Q is held in canonical form: an int when it is integral,
a reduced Fraction otherwise, so sums and products of integers never
reach Fraction arithmetic.  A value over F_p is an int in [0, p).

Field.rationals() and Field.prime(p) hand out one shared instance per
field, and arithmetic tests that identity before Field.__eq__.  Equal
fields built directly through Field(...) still combine; they only miss
the fast path.

One layer bypasses Scalar arithmetic: the multilinear evaluation
kernel ainfinity._expand, the sparse identity joins and the tensor
regrouping read the raw values of their Scalars (after the same field
check and coercion as the operators, ainfinity._raw), multiply and sum
them as ints mod p or as ints and Fractions, and wrap each result in a
canonical Scalar again (ainfinity._canonical).

>>> Q = Field.rationals()
>>> a = Q(3) / Q(2)
>>> a + Q("1/2")
Scalar(2, Q)
>>> F2 = Field.prime(2)
>>> F2(3) + F2(1)
Scalar(0, F2)

Scalars from different fields never mix:

>>> try:
...     Q(1) + F2(1)
... except FieldMismatch as exc:
...     print(exc)
cannot combine scalars over Q and F2

Integers are allowed as literals on either side of an operation; they
map through the canonical ring map Z -> k.  Comparison is stricter: an
integer equals only the canonical value, so F_5(3) == 3 but
F_5(3) != 8, and equal objects hash alike.
"""

from fractions import Fraction

from .errors import _integer


class FieldMismatch(TypeError):
    """Raised when scalars over different fields meet in one expression."""


# Miller-Rabin with the first 13 primes as bases is exact below this
# bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin; refuses p it cannot decide exactly."""
    if p < 2:
        return False
    if p >= _MR_BOUND:
        raise ValueError("modulus %r is too large to certify as prime" % (p,))
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Descriptor of the ground field, Q or F_p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind == "Q":
            if p is not None:
                raise ValueError("Q takes no modulus")
        elif kind == "Fp":
            if not _is_prime(_integer(p, "the modulus")):
                raise ValueError("modulus %r is not prime" % (p,))
        else:
            raise ValueError("unknown field kind %r" % (kind,))
        self.kind = kind
        self.p = p

    @classmethod
    def rationals(cls):
        return _QQ

    @classmethod
    def prime(cls, p):
        # checked before the lookup: 5.0 and True hash like 5 and 1
        p = _integer(p, "the modulus")
        field = _PRIME_FIELDS.get(p)
        if field is None:
            field = _PRIME_FIELDS[p] = cls("Fp", p)
        return field

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Q" if self.kind == "Q" else "F%d" % self.p

    # -- element construction ------------------------------------------

    def __call__(self, value):
        """Coerce an int, Fraction, Scalar or decimal string into this field."""
        p = self.p
        if type(value) is int:
            return Scalar(self, value if p is None else value % p)
        if isinstance(value, Scalar):
            if value.field is not self and value.field != self:
                raise FieldMismatch(
                    "cannot coerce a scalar over %r into %r" % (value.field, self)
                )
            return value
        if isinstance(value, (bool, float)):
            raise TypeError("refusing to treat %s as a scalar"
                            % type(value).__name__)
        value = Fraction(value)
        num, den = value.numerator, value.denominator
        if p is None:
            return Scalar(self, num if den == 1 else value)
        if den % p == 0:
            raise ZeroDivisionError(
                "denominator of %s vanishes in %r" % (value, self)
            )
        return Scalar(self, num * pow(den, -1, p) % p)

    @property
    def zero(self):
        return self(0)

    @property
    def one(self):
        return self(1)

    def sign(self, exponent):
        """(-1)^exponent as a Scalar; exponents are plain integers."""
        return self(1) if exponent % 2 == 0 else self(-1)

    def elements(self):
        """All field elements; only available over F_p."""
        if self.kind != "Fp":
            raise ValueError("cannot enumerate an infinite field")
        return [Scalar(self, v) for v in range(self.p)]


_QQ = Field("Q")
_PRIME_FIELDS = {}


class Scalar:
    """One exact field element.

    Over Q the value is an int when integral and a reduced Fraction
    (positive denominator, never 1) otherwise; over F_p it is an int in
    [0, p).  Arithmetic through the usual operators; operands over the
    same shared Field instance skip the coercion step.
    """

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(
                    "cannot combine scalars over %r and %r"
                    % (self.field, other.field)
                )
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return self.field(other)
        return None

    def __add__(self, other):
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        p = field.p
        if p is None:
            val = self.val + other.val
            if type(val) is not int and val.denominator == 1:
                val = val.numerator
            return Scalar(field, val)
        return Scalar(field, (self.val + other.val) % p)

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        if p is None:
            return Scalar(self.field, -self.val)
        return Scalar(self.field, -self.val % p)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        p = field.p
        if p is None:
            val = self.val * other.val
            if type(val) is not int and val.denominator == 1:
                val = val.numerator
            return Scalar(field, val)
        return Scalar(field, self.val * other.val % p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        p = self.field.p
        if p is None:
            val = Fraction(1) / self.val  # 1 / int would be a float
            if val.denominator == 1:
                val = val.numerator
            return Scalar(self.field, val)
        return Scalar(self.field, pow(self.val, -1, p))

    def __eq__(self, other):
        # an int equals only the canonical value (F5(3) == 3, F5(3) != 8),
        # so that equal objects hash alike
        if isinstance(other, Scalar):
            return ((other.field is self.field or other.field == self.field)
                    and self.val == other.val)
        if isinstance(other, int) and not isinstance(other, bool):
            return self.val == other
        return NotImplemented

    def __hash__(self):
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "Scalar(%s, %r)" % (self.as_string(), self.field)

    def as_string(self):
        """Decimal-string form used in serialized descriptions."""
        if self.field.kind == "Q":
            if self.val.denominator == 1:
                return str(self.val.numerator)
            return "%d/%d" % (self.val.numerator, self.val.denominator)
        return str(self.val)
