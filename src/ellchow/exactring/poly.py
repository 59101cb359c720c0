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

Monomials are stored as tuples of ``(name, exponent)`` pairs sorted by the
canonical symbol order ``l < nu < xi < braced names by (size, elements,
prefix letter)``.
The canonical text form sorts terms by (degree, exponent vector
descending-lexicographic), e.g. ``24*l^3 + 24*l^2*t{1,2}``, and round-trips
through :meth:`IntPolynomial.parse`.  The JSON form is a list of
``{"coeff": c, "exponents": [[name, e], ...]}`` objects in the same order.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

Mono = tuple[tuple[str, int], ...]

# A marking has no leading zero, so that each subset has one name.
_MARK = r"(?:0|[1-9]\d*)"
_NAME_RE = re.compile(rf"^(l|nu|xi)$|^([a-z])\{{({_MARK}(?:,{_MARK})*)\}}$")
_KEY_CACHE: dict[str, tuple] = {}
_BASE_ORDER = {"l": 0, "nu": 1, "xi": 2}


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


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Merge two sorted monomials, adding exponents."""
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[str, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        na, ea = a[i]
        nb, eb = b[j]
        if na == nb:
            out.append((na, ea + eb))
            i += 1
            j += 1
        elif symbol_key(na) < symbol_key(nb):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(m: Mono) -> int:
    return sum(symbol_degree(name) * e for name, e in m)


def _canonical_mono(pairs: Iterable[tuple[str, int]]) -> Mono:
    """The monomial of ``(name, exponent)`` pairs in canonical form: names
    checked, repeated names summed, zero exponents dropped, symbol order."""
    exps: dict[str, int] = {}
    for name, e in pairs:
        symbol_key(name)
        if e < 0:
            raise ValueError(f"negative exponent {e} of {name}")
        if e:
            exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items(), key=lambda p: symbol_key(p[0])))


def _terms_product(a: Mapping[Mono, int], b: Mapping[Mono, int]) -> dict[Mono, int]:
    """The terms of the product of two polynomials given by their terms."""
    out: dict[Mono, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def mono_sort_key(m: Mono) -> tuple:
    """Within a fixed degree: exponent-vector descending-lexicographic order."""
    return tuple((symbol_key(name), -e) for name, e in m)


def term_sort_key(m: Mono) -> tuple:
    return (mono_degree(m), mono_sort_key(m))


class IntPolynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        self._terms = {m: c for m, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls()

    @classmethod
    def const(cls, c: int) -> "IntPolynomial":
        return cls({(): c}) if c else cls()

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls.const(1)

    @classmethod
    def symbol(cls, name: str, exp: int = 1) -> "IntPolynomial":
        return cls.monomial(((name, exp),))

    @classmethod
    def monomial(cls, mono: Mono, coeff: int = 1) -> "IntPolynomial":
        return cls({_canonical_mono(mono): coeff})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Mono, int]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Mono, int]]:
        return sorted(self._terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(mono_degree(m) for m in self._terms)

    def is_homogeneous(self) -> bool:
        degrees = {mono_degree(m) for m in self._terms}
        return len(degrees) <= 1

    def homogeneous_components(self) -> dict[int, "IntPolynomial"]:
        buckets: dict[int, dict[Mono, int]] = {}
        for m, c in self._terms.items():
            buckets.setdefault(mono_degree(m), {})[m] = c
        return {d: IntPolynomial(t) for d, t in sorted(buckets.items())}

    def symbols_used(self) -> set[str]:
        return {name for m in self._terms for name, _ in m}

    def coefficient(self, mono: Mono) -> int:
        return self._terms.get(mono, 0)

    def constant(self) -> int:
        return self._terms.get((), 0)

    def coefficients_in(self, name: str) -> dict[int, "IntPolynomial"]:
        """The polynomial multiplying each power ``name^e`` (with that factor
        removed), keyed by the exponents ``e`` that occur."""
        out: dict[int, dict[Mono, int]] = {}
        for m, c in self._terms.items():
            rest = tuple(p for p in m if p[0] != name)
            out.setdefault(dict(m).get(name, 0), {})[rest] = c
        return {e: IntPolynomial(t) for e, t in out.items()}

    @classmethod
    def from_coefficients_in(cls, name: str, parts: Mapping) -> "IntPolynomial":
        """The inverse of :meth:`coefficients_in`: the sum over ``e`` of
        ``name^e`` times ``parts[e]``, each part free of ``name``."""
        return cls({
            _canonical_mono(m + ((name, e),)): c
            for e, part in parts.items() for m, c in part._terms.items()
        })

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial.const(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        res = IntPolynomial.__new__(IntPolynomial)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        res = IntPolynomial.__new__(IntPolynomial)
        res._terms = {m: -c for m, c in self._terms.items()}
        return res

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "IntPolynomial":
        return IntPolynomial.const(other) - self

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            if not other:
                return IntPolynomial.zero()
            res = IntPolynomial.__new__(IntPolynomial)
            res._terms = {m: c * other for m, c in self._terms.items()}
            return res
        res = IntPolynomial.__new__(IntPolynomial)
        res._terms = _terms_product(self._terms, other._terms)
        return res

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "IntPolynomial":
        if exp < 0:
            raise ValueError("negative exponent")
        result = None
        base = self
        while exp:
            if exp & 1:
                result = base if result is None else result * base
            exp >>= 1
            if exp:
                base = base * base
        return IntPolynomial.one() if result is None else result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == IntPolynomial.const(other)._terms
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its int (see __eq__), so it hashes as one.
        terms = self._terms
        return hash(terms.get((), 0) if terms.keys() <= {()} else frozenset(terms.items()))

    # -- substitution ------------------------------------------------------

    def substitute(self, images: Mapping[str, "IntPolynomial"]) -> "IntPolynomial":
        """Ring-homomorphic substitution; names absent from ``images`` map to
        themselves."""
        power_cache: dict[tuple[str, int], IntPolynomial] = {}

        def power(name: str, e: int) -> IntPolynomial:
            key = (name, e)
            got = power_cache.get(key)
            if got is None:
                base = images.get(name)
                if base is None:
                    got = IntPolynomial.symbol(name, e)
                else:
                    got = base**e
                power_cache[key] = got
            return got

        # Every term is summed into one dict; a term with a factor whose
        # image is zero is skipped before any multiplication.
        total: dict[Mono, int] = {}
        for m, c in self._terms.items():
            factors = [power(name, e)._terms for name, e in m]
            if not all(factors):
                continue
            term = {(): c}
            for factor in factors:
                term = _terms_product(term, factor)
            for mono, coeff in term.items():
                total[mono] = total.get(mono, 0) + coeff
        return IntPolynomial(total)

    def rename_symbols(self, mapping: Mapping[str, str]) -> "IntPolynomial":
        """Pure symbol renaming (a degree-preserving bijection on names)."""
        out: dict[Mono, int] = {}
        for m, c in self._terms.items():
            renamed = _canonical_mono((mapping.get(name, name), e) for name, e in m)
            out[renamed] = out.get(renamed, 0) + c
        return IntPolynomial(out)

    # -- canonical text / JSON forms ----------------------------------------

    def text(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for i, (mono, coeff) in enumerate(self.sorted_terms()):
            mag = abs(coeff)
            factors = [
                name if e == 1 else f"{name}^{e}" for name, e in mono
            ]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if i == 0:
                chunks.append(body if coeff > 0 else "-" + body)
            else:
                chunks.append((" + " if coeff > 0 else " - ") + body)
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.text()})"

    @classmethod
    def parse(cls, text: str) -> "IntPolynomial":
        compact = re.sub(r"\s+", "", text)
        if not compact:
            raise ValueError("empty polynomial text")
        if compact == "0":
            return cls.zero()
        total: dict[Mono, int] = {}
        # A sign right after "^" belongs to an exponent, not to a new term.
        chunks = re.findall(r"[+-]?[^+-]+(?:(?<=\^)[+-][^+-]*)*", compact)
        if "".join(chunks) != compact:
            raise ValueError(f"dangling operator in {text!r}")
        for chunk in chunks:
            sign = 1
            if chunk[0] == "+":
                chunk = chunk[1:]
            elif chunk[0] == "-":
                sign = -1
                chunk = chunk[1:]
            if not chunk:
                raise ValueError(f"dangling sign in {text!r}")
            coeff = sign
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
            key = _canonical_mono(mono)
            total[key] = total.get(key, 0) + coeff
        return cls(total)

    def to_json_obj(self) -> list[dict]:
        return [
            {"coeff": c, "exponents": [[name, e] for name, e in mono]}
            for mono, c in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "IntPolynomial":
        total: dict[Mono, int] = {}
        for entry in obj:
            mono = _canonical_mono(
                (str(name), int(e)) for name, e in entry["exponents"]
            )
            total[mono] = total.get(mono, 0) + int(entry["coeff"])
        return cls(total)
