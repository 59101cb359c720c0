"""Sparse multivariate polynomials over arbitrary-precision integers.

Generators are identified by name.  The naming scheme is global so that a
polynomial is meaningful on its own, without a ring attached:

* ``l``       — the Hodge class lambda (degree 1); also the core class of a
                tail stratum, where the lift/restriction maps keep the name;
* ``nu``      — the degree-2 generator of the six-marking core ring;
* ``xi``      — the gerbe class on an elliptic-singularity stratum (degree 1);
* ``t{1,2}``  — a boundary divisor indexed by a marking subset (degree 1);
* ``d{1,2}``  — a genus-zero boundary divisor inside one stratum factor
                (degree 1).

A monomial is one integer, its *key*: a packed exponent vector
(Monagan–Pearce, CASC 2007).  Each name is interned on first sight, in one
registry for the process, and gets a field: bits ``8*i`` to ``8*i + 7``
of a key hold the exponent of the ``i``-th interned name, and field 0
holds the monomial's degree.  The top bit of every field is spare, so no
degree, and hence no exponent, exceeds ``MAX_DEGREE``; then the keys of
two monomials add without carry to the key of their product, and an entry
point or a product that would overflow raises ``ValueError``.

A key's value depends on the order in which names were interned, so no
output may depend on it.  Names enter through ``symbol``, ``monomial`` and
``parse``, and leave through ``sorted_terms`` (hence ``text`` and JSON),
``symbols_used`` and the plan building of :class:`Substitution`, in the
canonical symbol order ``l < nu < xi < braced names by (size, elements,
prefix letter)``.  The canonical text form sorts terms by (degree, exponent vector
descending-lexicographic), e.g. ``24*l^3 + 24*l^2*t{1,2}``, and round-trips
through :meth:`IntPolynomial.parse`.  The JSON form is a list of
``{"coeff": c, "exponents": [[name, e], ...]}`` objects in the same order.
"""

from __future__ import annotations

import re
import threading
from functools import reduce
from itertools import compress
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping

# A field is one byte, so ``int.to_bytes`` reads a key field by field.
FIELD_BITS = 8
DEGREE = (1 << FIELD_BITS) - 1  # the mask of field 0
MAX_DEGREE = DEGREE >> 1

# A marking has no leading zero, so that each subset has one name.
_MARK = r"(?:0|[1-9]\d*)"
_NAME_RE = re.compile(rf"^(l|nu|xi)$|^([a-z])\{{({_MARK}(?:,{_MARK})*)\}}$")
_KEY_CACHE: dict[str, tuple] = {}
_BASE_ORDER = {"l": 0, "nu": 1, "xi": 2}

# The registry: the name of each field (field 0 is the degree) and the key
# of each interned name to the first power.
_NAMES: list[str] = [""]
_UNITS: dict[str, int] = {}
_INTERN = threading.Lock()


def symbol_key(name: str) -> tuple:
    """Total order key for generator names; raises on malformed names."""
    key = _KEY_CACHE.get(name)
    if key is None:
        m = _NAME_RE.match(name)
        if m is None:
            raise ValueError(f"malformed symbol name: {name!r}")
        if m.group(1):
            key = (0, _BASE_ORDER[name], 0, (), "")
        else:
            elems = tuple(int(x) for x in m.group(3).split(","))
            if any(b <= a for a, b in zip(elems, elems[1:])):
                raise ValueError(f"subset elements not increasing: {name!r}")
            key = (1, 0, len(elems), elems, m.group(2))
        _KEY_CACHE[name] = key
    return key


def symbol_degree(name: str) -> int:
    """Cohomological degree of a generator: 2 for ``nu``, 1 otherwise."""
    symbol_key(name)
    return 2 if name == "nu" else 1


def subset_name(prefix: str, elems: Iterable[int]) -> str:
    """Build a braced generator name, e.g. ``subset_name('t', {2,1})`` -> ``t{1,2}``."""
    return prefix + "{" + ",".join(str(e) for e in sorted(elems)) + "}"


def name_elements(name: str) -> tuple[int, ...] | None:
    """The marking subset of a braced name, or None for ``l``/``nu``/``xi``."""
    key = symbol_key(name)
    return key[3] if key[0] == 1 else None


def unit_key(name: str) -> int:
    """The key of ``name`` to the first power; checks and interns a new name."""
    unit = _UNITS.get(name)
    if unit is None:
        degree = symbol_degree(name)
        with _INTERN:
            unit = _UNITS.get(name)
            if unit is None:
                _NAMES.append(name)
                unit = _UNITS[name] = degree + (1 << FIELD_BITS * (len(_NAMES) - 1))
    return unit


def key_fields(key: int) -> list[tuple[int, int]]:
    """The ``(field, exponent)`` pairs of a key's nonzero exponents, by field."""
    raw = key.to_bytes((key.bit_length() + 7) >> 3, "little")
    rest, out = raw[1:].lstrip(b"\0"), []
    while rest:
        out.append((len(raw) - len(rest), rest[0]))
        rest = rest[1:].lstrip(b"\0")
    return out


def _overflow(degree: int) -> ValueError:
    return ValueError(f"monomial degree {degree} exceeds {MAX_DEGREE}")


def _monomial_key(pairs: Iterable[tuple[str, int]]) -> int:
    """The key of the monomial of ``(name, exponent)`` pairs; repeated
    names multiply and zero exponents drop out."""
    key = degree = 0
    for name, e in pairs:
        unit = unit_key(name)
        if e < 0:
            raise ValueError(f"negative exponent {e} of {name}")
        key += e * unit
        degree += e * (unit & DEGREE)
    if degree > MAX_DEGREE:
        raise _overflow(degree)
    return key


def _terms_product(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The terms of the product of two polynomials given by their terms."""
    out: dict[int, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            # both summands fit, so a sum that does not is caught here
            if m & DEGREE > MAX_DEGREE:
                raise _overflow(m & DEGREE)
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def _poly(terms: dict[int, int]) -> "IntPolynomial":
    """The polynomial of ``terms``, a dict of its own with no zero coefficient."""
    res = IntPolynomial.__new__(IntPolynomial)
    res._terms = terms
    return res


class IntPolynomial:
    """Immutable sparse polynomial with integer coefficients, by monomial key."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        """The polynomial of the given coefficient of each monomial key."""
        for m in terms or ():
            if type(m) is not int or m < 0:
                raise TypeError(f"monomial key {m!r} is not a non-negative int")
        self._terms = {m: c for m, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls()

    @classmethod
    def const(cls, c: int) -> "IntPolynomial":
        return cls({0: c}) if c else cls()

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls.const(1)

    @classmethod
    def symbol(cls, name: str, exp: int = 1) -> "IntPolynomial":
        return cls.monomial(((name, exp),))

    @classmethod
    def monomial(cls, mono: Iterable[tuple[str, int]]) -> "IntPolynomial":
        return cls({_monomial_key(mono): 1})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        """The ``(key, coefficient)`` pairs of the terms."""
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[tuple[tuple[str, int], ...], int]]:
        """The terms as ``((name, exponent), ...)`` and coefficient, in canonical order."""
        named = []
        for m, c in self._terms.items():
            mono = tuple(sorted(((_NAMES[f], e) for f, e in key_fields(m)),
                                key=lambda p: symbol_key(p[0])))
            named.append(((m & DEGREE, [(symbol_key(nm), -e) for nm, e in mono]), mono, c))
        return [(mono, c) for _, mono, c in sorted(named)]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        return max((m & DEGREE for m in self._terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({m & DEGREE for m in self._terms}) <= 1

    def homogeneous_components(self) -> dict[int, "IntPolynomial"]:
        buckets: dict[int, dict[int, int]] = {}
        for m, c in self._terms.items():
            buckets.setdefault(m & DEGREE, {})[m] = c
        return {d: _poly(t) for d, t in sorted(buckets.items())}

    def symbols_used(self) -> set[str]:
        support = reduce(or_, self._terms, 0)
        raw = support.to_bytes((support.bit_length() + 7) >> 3, "little")
        return set(compress(_NAMES, raw)) - {""}  # "" names field 0, the degree

    def constant(self) -> int:
        return self._terms.get(0, 0)

    def coefficients_in(self, name: str) -> dict[int, "IntPolynomial"]:
        """The polynomial multiplying each power ``name^e`` (with that factor
        removed), keyed by the exponents ``e`` that occur."""
        unit = unit_key(name)
        shift = unit.bit_length() - 1  # the lowest bit of the name's field
        out: dict[int, dict[int, int]] = {}
        for m, c in self._terms.items():
            e = m >> shift & DEGREE
            out.setdefault(e, {})[m - e * unit] = c
        return {e: _poly(t) for e, t in out.items()}

    @classmethod
    def from_coefficients_in(cls, name: str, parts: Mapping) -> "IntPolynomial":
        """The inverse of :meth:`coefficients_in`: the sum over ``e`` of
        ``name^e`` times ``parts[e]``, each part free of ``name``."""
        terms: dict[int, int] = {}
        for e, part in parts.items():
            terms.update(_terms_product(part._terms, {_monomial_key(((name, e),)): 1}))
        return _poly(terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return self._plus(other, -1)

    def _plus(self, other: "IntPolynomial | int", sign: int) -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial.const(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            v = out.get(m, 0) + sign * c
            if v:
                out[m] = v
            else:
                del out[m]
        return _poly(out)

    def __neg__(self) -> "IntPolynomial":
        return self * -1

    def __rsub__(self, other: int) -> "IntPolynomial":
        return IntPolynomial.const(other) - self

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return self if other == 1 else _poly(
                {m: c * other for m, c in self._terms.items()} if other else {})
        return _poly(_terms_product(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "IntPolynomial":
        if exp < 0:
            raise ValueError("negative exponent")
        if len(self._terms) == 1:  # a monomial's key scales
            [(m, c)] = self._terms.items()
            if (m & DEGREE) * exp > MAX_DEGREE:
                raise _overflow((m & DEGREE) * exp)
            return _poly({m * exp: c**exp})
        result = self if exp else IntPolynomial.one()
        for _ in range(exp - 1):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == IntPolynomial.const(other)._terms
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its int (see __eq__), so it hashes as one.
        terms = self._terms
        return hash(terms.get(0, 0) if terms.keys() <= {0} else frozenset(terms.items()))

    # -- substitution ------------------------------------------------------

    def substitute(self, images: Mapping[str, "IntPolynomial"]) -> "IntPolynomial":
        """Ring-homomorphic substitution, compiled for this one call (see
        :class:`Substitution`); names absent from ``images`` map to themselves."""
        return Substitution(images.get)(self)

    # -- canonical text / JSON forms ----------------------------------------

    def text(self) -> str:
        out = ""
        for mono, coeff in self.sorted_terms():
            factors = [name if e == 1 else f"{name}^{e}" for name, e in mono]
            if abs(coeff) != 1 or not factors:
                factors.insert(0, str(abs(coeff)))
            if out:
                out += " - " if coeff < 0 else " + "
            elif coeff < 0:
                out = "-"
            out += "*".join(factors)
        return out or "0"

    def __repr__(self) -> str:
        return f"IntPolynomial({self.text()})"

    @classmethod
    def parse(cls, text: str) -> "IntPolynomial":
        compact = re.sub(r"\s+", "", text)
        if not compact:
            raise ValueError("empty polynomial text")
        total: dict[int, int] = {}
        # A sign right after "^" belongs to an exponent, not to a new term.
        chunks = re.findall(r"[+-]?[^+-]+(?:(?<=\^)[+-][^+-]*)*", compact)
        if "".join(chunks) != compact:
            raise ValueError(f"dangling operator in {text!r}")
        for chunk in chunks:
            coeff = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:] if chunk[0] in "+-" else chunk
            if not chunk:
                raise ValueError(f"dangling sign in {text!r}")
            mono: list[tuple[str, int]] = []
            for factor in chunk.split("*"):
                if re.fullmatch(r"\d+", factor):
                    coeff *= int(factor)
                    continue
                m = re.fullmatch(r"([a-z]+(?:\{[\d,]+\})?)(?:\^(-?\d+))?", factor)
                if m is None:
                    raise ValueError(f"malformed factor {factor!r} in {text!r}")
                name, e = m.group(1), int(m.group(2) or 1)
                if e < 0:
                    raise ValueError(f"negative exponent {e} of {name} in {text!r}")
                mono.append((name, e))
            key = _monomial_key(mono)
            total[key] = total.get(key, 0) + coeff
        return cls(total)

    def to_json_obj(self) -> list[dict]:
        return [
            {"coeff": c, "exponents": [[name, e] for name, e in mono]}
            for mono, c in self.sorted_terms()
        ]


_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}


class _FieldsOf(dict):
    """``key_fields`` of each key that substitution or factor-wise reduction
    walks, decoded once per process; equal pairs are one tuple."""

    def __missing__(self, key: int) -> tuple[tuple[int, int], ...]:
        fields = self[key] = tuple(_PAIRS.setdefault(p, p) for p in key_fields(key))
        return fields


FIELDS_OF = _FieldsOf()


class Substitution:
    """A ring-homomorphic substitution compiled field by field: ``image_of``
    gives a name's image, or None to keep it, once per name, on first sight
    (under a lock, so threads may share a plan).  A field joins the mask ``zero``
    of zero images, which skips a term by one test, or the one-term images
    ``(key, coeff, degree)``, folded into a term's key as ``e*key``, or the
    images with several terms, whose powers are multiplied in (each computed
    once per call).  A term of degree above ``MAX_DEGREE`` raises."""

    def __init__(self, image_of: Callable[[str], "IntPolynomial | None"]) -> None:
        self._image_of, self._known, self._zero = image_of, DEGREE, 0
        self._single, self._several = {}, {}  # field -> (key, coeff, degree), or terms
        self._lock = threading.Lock()

    def _learn(self, support: int) -> None:
        """Sort the fields of ``support`` not sorted yet; each is marked known last."""
        with self._lock:
            for f, _ in key_fields(support & ~self._known):
                image = self._image_of(_NAMES[f])
                terms = {_UNITS[_NAMES[f]]: 1} if image is None else image._terms
                if len(terms) == 1:
                    [(k, v)] = terms.items()
                    self._single[f] = k, v, k & DEGREE
                elif terms:
                    self._several[f] = terms
                else:
                    self._zero |= DEGREE << FIELD_BITS * f
                self._known |= DEGREE << FIELD_BITS * f

    def __call__(self, poly: IntPolynomial) -> IntPolynomial:
        """The image of ``poly``."""
        if (support := reduce(or_, poly._terms, 0)) & ~self._known:
            self._learn(support)
        zero, single, several_at = self._zero, self._single, self._several
        powers: dict[tuple[int, int], dict[int, int]] = {}
        total: dict[int, int] = {}
        for m, c in poly._terms.items():
            if m & zero:
                continue
            key, degree, several = 0, 0, []
            for pair in FIELDS_OF[m]:
                f, e = pair
                entry = single.get(f)
                if entry is None:  # a power is never zero
                    several.append(powers.get(pair) or powers.setdefault(
                        pair, (_poly(several_at[f]) ** e)._terms))
                    continue
                k, v, d = entry
                key += e * k
                degree += e * d
                c *= v**e
            if degree > MAX_DEGREE:
                raise _overflow(degree)
            if not several:
                total[key] = total.get(key, 0) + c
                continue
            term = {key: c}
            for power in several:
                term = _terms_product(term, power)
            for k, v in term.items():
                total[k] = total.get(k, 0) + v
        return _poly({k: v for k, v in total.items() if v})
