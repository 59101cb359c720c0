"""Exact multivariate integer polynomials: arithmetic, ordering, text and
JSON round-trips, substitution."""

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ellchow import GradedPresentation, IntPolynomial
from ellchow.exactring.poly import (
    MAX_DEGREE,
    name_elements,
    subset_name,
    symbol_degree,
    symbol_key,
    unit_key,
)

ROOT = Path(__file__).resolve().parent.parent


L = IntPolynomial.symbol("l")
NU = IntPolynomial.symbol("nu")
XI = IntPolynomial.symbol("xi")


def t(*elems):
    return IntPolynomial.symbol(subset_name("t", elems))


# -- symbol bookkeeping -----------------------------------------------------


def test_subset_name_sorts_elements():
    assert subset_name("t", (2, 1)) == "t{1,2}"
    assert subset_name("d", (3, 1, 2)) == "d{1,2,3}"


def test_name_elements_round_trip():
    assert name_elements("t{1,2,5}") == (1, 2, 5)
    assert name_elements("d{4,6}") == (4, 6)


def test_symbol_degree():
    assert symbol_degree("l") == 1
    assert symbol_degree("xi") == 1
    assert symbol_degree("t{1,2}") == 1
    assert symbol_degree("nu") == 2


def test_symbol_order_plain_before_braced():
    # plain symbols first (l < nu < xi), then braced by (size, elements)
    # regardless of prefix letter
    names = ["t{1,2}", "nu", "xi", "l", "t{1,2,3}", "d{2,3}", "t{1,3}"]
    ordered = sorted(names, key=symbol_key)
    assert ordered == [
        "l",
        "nu",
        "xi",
        "t{1,2}",
        "t{1,3}",
        "d{2,3}",
        "t{1,2,3}",
    ]


def test_symbol_order_is_total_across_prefixes():
    # names differing only in their prefix letter are ordered by it, so a
    # monomial has one stored form whatever order its factors come in
    assert symbol_key("d{1,2}") < symbol_key("t{1,2}")
    P = IntPolynomial.parse
    assert P("t{1,2}*d{1,2}") == P("d{1,2}*t{1,2}")
    pres = GradedPresentation(["t{1,2}", "d{1,2}"], [])
    assert pres.normal_form(P("t{1,2}*d{1,2}")) == P("d{1,2}*t{1,2}")


def test_symbol_key_rejects_malformed():
    with pytest.raises(ValueError):
        symbol_key("t{1,")
    with pytest.raises(ValueError):
        symbol_key("T{1,2}")
    with pytest.raises(ValueError):
        symbol_key("lambda")


@pytest.mark.parametrize("name", ["t{1,02}", "t{01}", "d{00,1}"])
def test_marking_with_a_leading_zero_is_malformed(name):
    # t{1,02} would be a second name of t{1,2}, with the same order key
    message = f"malformed symbol name: {name!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        symbol_key(name)
    with pytest.raises(ValueError, match="malformed symbol name"):
        GradedPresentation(["t{1,2}", name], [])
    assert symbol_key("t{0,1}")[3] == (0, 1)


# -- arithmetic -------------------------------------------------------------


def test_zero_and_one():
    assert IntPolynomial.zero().is_zero()
    assert not IntPolynomial.one().is_zero()
    assert IntPolynomial.one().constant() == 1
    assert (L - L).is_zero()
    assert IntPolynomial.const(0).is_zero()


def test_ring_axioms_spot():
    a = 3 * L + t(1, 2)
    b = L - 2 * t(1, 2)
    c = NU + L**2
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a - a == IntPolynomial.zero()
    assert a * IntPolynomial.zero() == IntPolynomial.zero()


def test_integer_coefficients_exact():
    big = 10**40
    f = big * L
    assert f * f == big * big * IntPolynomial.monomial((("l", 2),))


def test_power():
    f = L + t(1, 2)
    assert f**0 == IntPolynomial.one()
    assert f**1 == f
    assert f**3 == f * f * f
    with pytest.raises(ValueError):
        f ** (-1)


def test_degree_bookkeeping():
    f = 2 * L**3 + NU * L  # both terms have degree 3 (nu counts double)
    assert f.degree() == 3
    assert f.is_homogeneous()
    g = L + NU
    assert not g.is_homogeneous()
    comps = g.homogeneous_components()
    assert comps[1] == L and comps[2] == NU


def test_coefficients_in():
    f = 3 * L**2 * t(1, 2) + 5 * L - 7 * t(1, 2) ** 3
    assert f.coefficients_in("l") == {
        2: 3 * t(1, 2),
        1: IntPolynomial.const(5),
        0: -7 * t(1, 2) ** 3,
    }
    assert f.coefficients_in("t{1,2}") == {
        1: 3 * L**2,
        0: 5 * L,
        3: IntPolynomial.const(-7),
    }
    assert IntPolynomial.zero().coefficients_in("l") == {}


def test_substitute_is_ring_hom():
    f = 2 * L**2 - 3 * L * t(1, 2) + t(1, 2) ** 2
    images = {"l": XI + IntPolynomial.one(), "t{1,2}": 2 * XI}
    g = f.substitute(images)
    x = XI + IntPolynomial.one()
    y = 2 * XI
    assert g == 2 * x**2 - 3 * x * y + y * y


def test_substitute_renames_by_symbol_images():
    f = L * t(1, 2) + t(1, 2, 3)
    d12 = IntPolynomial.symbol("d{1,2}")
    d123 = IntPolynomial.symbol("d{1,2,3}")
    g = f.substitute({"t{1,2}": d12, "t{1,2,3}": d123})
    assert g == L * d12 + d123
    # a function may keep a name by giving None
    assert f.substitute(lambda nm: None if nm == "l" else d12) == L * d12 + d12


# -- canonical text ---------------------------------------------------------


def test_text_canonical_forms():
    assert IntPolynomial.zero().text() == "0"
    assert (24 * L**3 + 24 * L**2 * t(1, 2)).text() == (
        "24*l^3 + 24*l^2*t{1,2}"
    )
    assert (L - t(1, 2)).text() == "l - t{1,2}"
    assert (-L).text() == "-l"
    assert IntPolynomial.const(-7).text() == "-7"


def test_text_orders_terms_by_degree_then_lex():
    f = t(1, 2) ** 2 + L + L**2
    # degree ascending; within a degree, exponent-vectors lex descending
    assert f.text() == "l + l^2 + t{1,2}^2"


def test_parse_round_trip_examples():
    for s in [
        "0",
        "-7",
        "24*l^3 + 24*l^2*t{1,2}",
        "l - t{1,2} + 3*nu",
        "l^2*nu - nu^2",
        "-l - t{1,2,3}",
    ]:
        assert IntPolynomial.parse(s).text() == s


def test_parse_accepts_whitespace_and_signs():
    assert IntPolynomial.parse(" l+t{1,2} ") == L + t(1, 2)
    assert IntPolynomial.parse("l -2*nu") == L - 2 * NU
    assert IntPolynomial.parse("+3") == IntPolynomial.const(3)


def test_parse_rejects_garbage():
    for s in ["l +", "t{1,", "2**l", "l^", "{1,2}", "x y", "", "- "]:
        with pytest.raises(ValueError):
            IntPolynomial.parse(s)


def test_zero_exponents_drop_out():
    assert IntPolynomial.parse("l^0") == IntPolynomial.one()
    assert IntPolynomial.parse("l^0").text() == "1"
    assert IntPolynomial.parse("24*l^2*t{1,2}^0") == 24 * L**2
    assert IntPolynomial.monomial((("nu", 0), ("l", 1))) == L


def test_repeated_names_multiply():
    assert IntPolynomial.parse("l*xi*l") == L**2 * XI
    assert IntPolynomial.monomial((("l", 1), ("l", 1))) == L**2
    assert (L * XI).substitute({"xi": L}) == L**2


def test_negative_and_malformed_exponents_rejected():
    with pytest.raises(ValueError):
        IntPolynomial.monomial((("l", -2),))
    with pytest.raises(ValueError):
        IntPolynomial.monomial((("x1", 1),))


def test_symbol_names_a_negative_exponent_like_monomial():
    message = "negative exponent -1 of l"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IntPolynomial.symbol("l", -1)
    assert IntPolynomial.symbol("l", 0) == IntPolynomial.one()


def test_degree_at_the_top_of_a_field_fits():
    # 127 fills l's field and field 0 up to their spare top bits
    top = L**MAX_DEGREE
    assert top == L**64 * L**63 == IntPolynomial.symbol("l", MAX_DEGREE)
    assert top.text() == f"l^{MAX_DEGREE}" and top.degree() == MAX_DEGREE
    assert top.coefficients_in("l") == {MAX_DEGREE: IntPolynomial.one()}
    assert (NU**63 * L).degree() == MAX_DEGREE


@pytest.mark.parametrize(
    "build",
    [
        lambda: L**100 * L**100,
        lambda: L**200,
        lambda: L**MAX_DEGREE * XI,
        lambda: NU**64,
        lambda: IntPolynomial.symbol("l", 10**3),
        lambda: IntPolynomial.monomial((("l", 100), ("xi", 28))),
        lambda: IntPolynomial.parse("l^128"),
        lambda: IntPolynomial.monomial((("nu", 64),)),
        lambda: IntPolynomial.from_coefficients_in("l", {128: IntPolynomial.one()}),
        lambda: IntPolynomial.from_coefficients_in("l", {100: L**28}),
        lambda: (L**101 * XI).substitute({"xi": L**27 + XI**27}),
        lambda: (L**101 * XI).substitute({"xi": L**27}),
        lambda: (L**100 * XI).substitute({"xi": NU}) * L**27,
        lambda: (L**64 * XI**63).substitute({"xi": NU}),
    ],
)
def test_a_degree_past_the_field_raises(build):
    # an exponent or degree that would reach a field's spare bit raises
    # instead of carrying into the next field
    with pytest.raises(ValueError, match="exceeds 127"):
        build()


@pytest.mark.parametrize(
    "terms, key",
    [
        ({(("l", 1),): 1}, r"\(\('l', 1\),\)"),
        ({"l": 1}, "'l'"),
        ({True: 1}, "True"),
        ({1.0: 1}, "1.0"),
        ({-1: 1}, "-1"),
        ({0: 1, -257: 0}, "-257"),
    ],
    ids=["tuple", "name", "bool", "float", "negative", "negative-with-zero-coefficient"],
)
def test_the_raw_constructor_refuses_a_key_that_is_no_natural_number(terms, key):
    # refused at construction, not later in text() or arithmetic
    with pytest.raises(TypeError, match=rf"^monomial key {key} is not a non-negative int$"):
        IntPolynomial(terms)


def test_the_raw_constructor_keeps_int_keys():
    key = next(L.items())[0]
    assert IntPolynomial({key: 3, 0: -1, 2 * key: 0}) == 3 * L - 1


INTERNING_ORDER = """
import json, sys
from ellchow import SetPartition, ell_class, gorenstein_presentation
from ellchow.exactring import IntPolynomial, subset_name
from itertools import combinations

names = ["l", "nu", "xi"] + [
    subset_name(p, b) for p in "dt" for k in (2, 3, 4)
    for b in combinations(range(1, 5), k)
]
for name in (names if sys.argv[1] == "forward" else names[::-1]):
    IntPolynomial.symbol(name)
value = ell_class(4, SetPartition.parse("1 2|3 4", 4))
pres = gorenstein_presentation(4)
rest = pres.normal_form(value * IntPolynomial.parse("l + t{1,2}"))
for f in (value, rest, IntPolynomial.parse("d{2,3}*t{1,2} + xi^2*nu - l")):
    print(f.text())
    print(json.dumps(f.to_json_obj()))
"""


def test_output_does_not_depend_on_the_order_names_are_interned():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", INTERNING_ORDER, order],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True,
        ).stdout
        for order in ("forward", "backward")
    ]
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 6
    json.loads(outputs[0].splitlines()[1])


def test_concurrent_interning_gives_each_name_its_own_field():
    # fresh names interned from more threads than cores, switching often
    names = [[f"d{{{1000 + 10 * k + j},{2000 + k}}}" for j in range(8)] for k in range(6)]
    units: dict[str, int] = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda batch=batch: units.update(
                (name, unit_key(name)) for name in batch))
            for batch in names
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    flat = [name for batch in names for name in batch]
    assert sorted(units) == sorted(flat)
    assert len(set(units.values())) == len(flat)
    for name in flat:
        assert unit_key(name) == units[name]
        assert IntPolynomial.symbol(name).symbols_used() == {name}


@pytest.mark.parametrize(
    "text, message",
    [
        ("l^-1", "negative exponent -1 of l in 'l^-1'"),
        ("l^+1", "malformed factor 'l^+1' in 'l^+1'"),
        ("2*t{1,2}^-3 + l", "negative exponent -3 of t{1,2} in '2*t{1,2}^-3 + l'"),
    ],
)
def test_signed_exponent_is_named_with_the_input_text(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IntPolynomial.parse(text)


# -- random round-trip properties ------------------------------------------


@st.composite
def polynomials(draw, bound=10**6):
    symbols = ["l", "nu", "t{1,2}", "t{1,3}", "t{1,2,3}"]
    n_terms = draw(st.integers(min_value=0, max_value=6))
    poly = IntPolynomial.zero()
    for _ in range(n_terms):
        coeff = draw(st.integers(min_value=-bound, max_value=bound))
        mono = IntPolynomial.one()
        for name in draw(
            st.lists(st.sampled_from(symbols), max_size=3)
        ):
            mono = mono * IntPolynomial.symbol(name) ** draw(
                st.integers(min_value=1, max_value=3)
            )
        poly = poly + coeff * mono
    return poly


@given(polynomials())
@settings(max_examples=120, deadline=None)
def test_text_parse_round_trip(poly):
    assert IntPolynomial.parse(poly.text()) == poly


@given(polynomials())
@settings(max_examples=120, deadline=None)
def test_json_round_trip(poly):
    # the JSON form lists the canonical terms, and they sum back to the class
    obj = json.loads(json.dumps(poly.to_json_obj()))
    terms = [(tuple(map(tuple, t["exponents"])), t["coeff"]) for t in obj]
    assert terms == poly.sorted_terms()
    assert sum((c * IntPolynomial.monomial(m) for m, c in terms), IntPolynomial.zero()) == poly


@given(polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_hash_consistent_with_eq(a, b):
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("c", [0, 3, -5])
def test_constant_hashes_as_the_int_it_equals(c):
    p = IntPolynomial.const(c)
    assert p == c and hash(p) == hash(c)
    assert c in {p} and p in {c}
    assert len({p, c}) == 1


@given(polynomials(), st.sampled_from(["l", "nu", "t{1,2,3}"]))
@settings(max_examples=60, deadline=None)
def test_from_coefficients_in_inverts_coefficients_in(poly, name):
    assert IntPolynomial.from_coefficients_in(name, poly.coefficients_in(name)) == poly


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=40, deadline=None)
def test_distributivity_random(a, b, c):
    assert a * (b + c) == a * b + a * c


def substitute_term_by_term(f, images):
    total = IntPolynomial.zero()
    for mono, coeff in f.sorted_terms():
        term = IntPolynomial.const(coeff)
        for name, e in mono:
            term = term * images.get(name, IntPolynomial.symbol(name)) ** e
        total = total + term
    return total


# Few distinct images, zero among them, so that terms often cancel.
IMAGES = st.dictionaries(
    st.sampled_from(["l", "nu", "t{1,2}", "t{1,3}", "t{1,2,3}"]),
    st.sampled_from(
        [IntPolynomial.zero(), L, -L, L + XI, 2 * XI, XI**2 - NU, L * XI]
    ),
)


@given(polynomials(bound=2), IMAGES)
@settings(max_examples=150, deadline=None)
def test_substitute_matches_term_by_term(f, images):
    assert f.substitute(images) == substitute_term_by_term(f, images)
    assert 0 not in dict(f.substitute(images).items()).values()
