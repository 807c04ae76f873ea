"""Packed exponent-vector monomials against the tuple-monomial oracle, the
exponent field budget, the fixed low slots, and independence of the slot
order."""

import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

import strategies as strat
from metalie import poly
from metalie.poly import (
    MAX_EXPONENT,
    W,
    ExponentOverflow,
    ParseError,
    Poly,
    decode,
    encode,
    mono_mul,
)
from oracles import (
    tuple_mul,
    tuple_partial,
    tuple_pow,
    tuple_rename,
    tuple_str,
    tuple_substitute,
    tuple_terms,
)

# mixed alphabets, with indices of two digits so that x10 must sort after x2
MIXED = ("a1", "a12", "t1", "t2", "x2", "x10", "x11", "y3", "y20", "z")
mixed_polys = strat.polys(variables=MIXED, max_degree=4, max_terms=5)


class TestAgainstTupleOracle:
    @given(mixed_polys, mixed_polys)
    def test_product(self, p, q):
        assert tuple_terms(p * q) == tuple_mul(tuple_terms(p), tuple_terms(q))

    @given(mixed_polys, st.integers(0, 3))
    def test_power(self, p, n):
        assert tuple_terms(p ** n) == tuple_pow(tuple_terms(p), n)

    @given(mixed_polys, st.sampled_from(MIXED))
    def test_partial(self, p, var):
        assert tuple_terms(p.partial(var)) == tuple_partial(tuple_terms(p), var)

    @given(mixed_polys, st.dictionaries(st.sampled_from(MIXED), mixed_polys, max_size=3))
    def test_substitute(self, p, images):
        expected = tuple_substitute(tuple_terms(p),
                                    {v: tuple_terms(image) for v, image in images.items()})
        assert tuple_terms(p.substitute(images)) == expected

    @given(mixed_polys, st.permutations(MIXED))
    def test_rename(self, p, targets):
        mapping = dict(zip(MIXED, targets))
        assert tuple_terms(p.rename(mapping)) == tuple_rename(tuple_terms(p), mapping)

    @given(mixed_polys)
    def test_printed_form(self, p):
        assert str(p) == tuple_str(tuple_terms(p))

    @given(strat.monomials(MIXED, max_degree=6))
    def test_decode_inverts_encode(self, m):
        assert encode(decode(m)) == m

    def test_renaming_two_variables_onto_one_collides(self):
        with pytest.raises(ValueError, match="collides"):
            Poly.parse("x1*y1 + x2").rename({"x1": "y1"})


class TestFieldBoundary:
    def test_budget_is_the_field_below_its_guard_bit(self):
        assert W == 16
        assert MAX_EXPONENT == 2 ** (W - 1) - 1

    def test_exponent_at_the_budget_is_accepted(self):
        top = Poly.variable("x1") ** MAX_EXPONENT * Poly.variable("x2") ** 3
        assert decode(next(iter(top.terms))) == (("x1", MAX_EXPONENT), ("x2", 3))
        assert Poly.parse(f"x1^{MAX_EXPONENT}") == Poly.variable("x1") ** MAX_EXPONENT

    def test_one_more_is_refused(self):
        x1 = Poly.variable("x1")
        with pytest.raises(ExponentOverflow, match=f"budget of {MAX_EXPONENT}"):
            x1 ** MAX_EXPONENT * x1
        with pytest.raises(ExponentOverflow):
            x1 ** (MAX_EXPONENT + 1)
        with pytest.raises(ExponentOverflow):
            encode((("x1", MAX_EXPONENT + 1),))
        with pytest.raises(ExponentOverflow):
            mono_mul(encode((("x1", MAX_EXPONENT),)), encode((("x1", 1),)))
        with pytest.raises(ParseError, match="budget"):
            Poly.parse(f"x1^{MAX_EXPONENT + 1}")

    def test_substitution_refuses_an_overflowing_image(self):
        x1, x2 = Poly.variable("x1"), Poly.variable("x2")
        half = (MAX_EXPONENT + 1) // 2
        assert (x1 * x1).substitute({"x1": x2 ** (half - 1)}) == x2 ** (2 * half - 2)
        with pytest.raises(ExponentOverflow):
            (x1 * x1).substitute({"x1": x2 ** half})

    def test_overflow_is_a_value_error(self):
        assert issubclass(ExponentOverflow, ValueError)


ROOT = Path(__file__).resolve().parent.parent
COMMANDS = [
    ["normalize", "x11*y2 - 3*x2^2*z + a1*(x2 + x10)^2 - t2*t1"],
    ["normalize", "[x4,x1,x2] - 2[x3,x2].x1^2 + [x3,x1].(x2 + x10)^2"],
    ["normalize", "x0^2*x + x^2 - x0"],
    ["pi", "2,1", "x2^2 - x1*x3", "x4"],
    ["check", "2,1", "-", "--json"],
    ["witness", "2,1", "--count", "4", "--json"],
]
CHECK_INPUT = "[x2,x1].x4 + [x3,x1].(x1 + x2)"
# registered before the command runs, in the reverse of the order a fresh
# process meets them
NAMES = ["x0", "x"] + [f"{letter}{j}" for letter in "xya" for j in range(1, 13)] \
    + ["z", "t1", "t2"]
REVERSED = f"""
import sys
from metalie import cli, poly
for name in {list(reversed(NAMES))!r}:
    poly.slot(name)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_output_does_not_depend_on_slot_order(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    stdin = CHECK_INPUT if "check" in argv else None
    fresh = subprocess.run([sys.executable, "-m", "metalie.cli", *argv], input=stdin,
                           env=env, capture_output=True, text=True, timeout=120)
    reordered = subprocess.run([sys.executable, "-c", REVERSED, *argv], input=stdin,
                               env=env, capture_output=True, text=True, timeout=120)
    assert fresh.returncode == reordered.returncode
    assert fresh.returncode in (0, 1), fresh.stderr
    assert fresh.stdout and fresh.stdout == reordered.stdout


WIDE_FIRST = """
import json
from metalie import poly
from metalie.invariants import load_catalog
from metalie.metabelian import WreathElement
from metalie.poly import Poly
from metalie.sl2 import derivations

for i in range(1000):
    poly.slot(f"w{i}")
case = load_catalog()["vii"]
delta1 = derivations(case.spec)[0]
gens = list(case.module_generators)
# the generators are invariant, so delta1 kills them: take the images of their terms
images = [delta1.act(WreathElement(u.ctx, Poly({m: c}))) for u in gens
          for m, c in u.poly.terms.items()]
print(json.dumps({
    "slots": [poly.slot(f"{c}{j}") for j in range(1, 17) for c in "ax"],
    "first_wide": poly.slot("w0"),
    "bit_lengths": [m.bit_length() for u in gens + images for m in u.poly.terms],
}))
"""


def test_low_alphabets_keep_fixed_slots_after_a_wide_registry():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", WIDE_FIRST], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert run.returncode == 0, run.stderr
    found = json.loads(run.stdout)
    # a1, x1, ..., a16, x16 hold slots 0-31, in that order
    assert found["slots"] == list(range(32))
    assert found["first_wide"] >= 32
    # every monomial is below 1 << 32 * W
    assert found["bit_lengths"] and max(found["bit_lengths"]) <= 32 * W


def test_substitution_work_does_not_depend_on_registration_order(monkeypatch):
    for name in ("p1", "p2", "p3", "q3", "q2", "q1"):
        poly.slot(name)
    to_q = {f"p{j}": f"q{j}" for j in (1, 2, 3)}
    f = Poly.parse("p1^3*p2*p3^2 - 2*p1^2*p3 + p1*p2^2*p3 + 3*p2*p3^3 - p1*p3 + p2^4 - 5")
    images = {"p1": Poly.parse("p2 + x1 - 1"), "p2": Poly.parse("x1*x2 - p3"),
              "p3": Poly.parse("p1 + 2*x2 + 3")}
    calls = []
    multiply = poly._mul_terms

    def recording(a, b):
        calls.append((len(a), len(b)))
        return multiply(a, b)

    monkeypatch.setattr(poly, "_mul_terms", recording)
    by_p = f.substitute(images)
    p_calls, calls[:] = calls[:], []
    by_q = f.rename(to_q).substitute({to_q[v]: image.rename(to_q)
                                      for v, image in images.items()})
    assert calls == p_calls and len(calls) > 3
    assert by_q == by_p.rename(to_q)


# the foreign variables registered in the reverse of their variable order; each
# refusal must still name the first one in that order
FIRST_FOREIGN = """
import contextlib, io, json, sys
from metalie import cli, poly
from metalie.metabelian import ContextMismatch, LieContext, WreathElement
from metalie.poly import Poly
from metalie.sl2 import ModuleSpec, bidegree_components

for name in ("w7", "z5", "q7", "y9"):
    poly.slot(name)
out = {}
for argv, stdin in ((["normalize", "[x2,x1].(q7*w7)"], ""), (["check", "2", "-"], "q7*w7"),
                    (["pi", "2", "q7*w7", "x1"], "")):
    sys.stdin, err = io.StringIO(stdin), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out[argv[0]] = [code, err.getvalue()]
p = Poly.parse("a1*z5 + y9")
for name, build in (("wreath", lambda: WreathElement(LieContext(2), p)),
                    ("bidegree", lambda: bidegree_components(p, ModuleSpec((1,))))):
    try:
        build()
    except ContextMismatch as exc:
        out[name] = str(exc)
print(json.dumps(out))
"""


def test_refusals_name_the_first_foreign_variable_whatever_the_slot_order():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", FIRST_FOREIGN], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {
        "normalize": [2, "error: variable q7 is not one of x1..x2\n"],
        "check": [2, "error: variable q7 is not one of x1..x3\n"],
        "pi": [2, "error: variable q7 is not one of x1..x3\n"],
        "wreath": "variable y9 is not one of a1..a2, x1..x2",
        "bidegree": "variable y9 is not one of a1..a2, x1..x2",
    }
