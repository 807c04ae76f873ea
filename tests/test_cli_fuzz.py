"""Random command lines never reach an internal error or a traceback.

Hypothesis drives `cli.main` in-process with grammar-shaped expressions for
`normalize`, `check` and `pi`, and with malformed specifications and flags
for `hilbert`, `witness` and `decide`.  Further draws sit at the edges of the
budgets: module actions and `pi` pairs built from powers of one linear form
near `MAX_TERM_PAIRS`, a module element bracketed with a wide linear form near
the same budget, and single-generator specifications on every `hilbert`
target.  Every input must exit 0, 1 or 2 within the deadline of one example:
exit 3 is an internal error, any exception other than a `UsageError` or an
`OSError`.
"""

import contextlib
import io
import sys
from datetime import timedelta

import hypothesis.strategies as st
from hypothesis import given, settings

from metalie import cli

fuzz = settings(derandomize=True, max_examples=150, deadline=timedelta(seconds=20))

# low generators are drawn more often, so that many inputs evaluate
atoms = st.sampled_from(["x1", "x2", "x3"] * 4 + [f"x{j}" for j in range(10)]
                        + ["y1", "a2", "2", "3/2", "0", "1/0"])


def _extend(children, lie):
    return st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda items: "[" + ",".join(items) + "]")
        if lie else children.map(lambda item: f"-{item}"),
        children.map(lambda item: f"({item})"),
        st.tuples(children, st.sampled_from(["0", "1", "2", "3"])).map("^".join),
        st.tuples(children, st.sampled_from([" + ", " - ", "*", "."][:4 if lie else 3]),
                  children).map("".join),
        st.tuples(st.sampled_from(["-", "2*", "3/2*", "1/0*"]), children).map("".join))


lie_texts = st.recursive(atoms, lambda children: _extend(children, lie=True), max_leaves=8)
poly_texts = st.recursive(atoms, lambda children: _extend(children, lie=False), max_leaves=6)
specs = st.sampled_from(["2,1", "3", "1,1", "4", "2,0", "1,1,1", "0", "", "-1", "2,,1",
                         "a", "1,", " 2", "9999", "2, 1", "3.5", "1" + ",1" * 1100])
targets = st.sampled_from(["polyring", "metabelian", "invariant-ring", "invariant-module",
                           "ring", ""])
flags = st.lists(st.sampled_from(["--json", "--count", "-N", "-1", "0", "3", "65", "x",
                                  "99999999999", "--bogus", "-h", "polyring"]),
                 max_size=4)


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, err.getvalue()


def assert_handled(argv, stdin=""):
    code, err = run(argv, stdin)
    assert code in (0, 1, 2), (argv, stdin, code, err)
    assert "internal error" not in err and "Traceback" not in err, (argv, stdin, err)


@fuzz
@given(lie_texts)
def test_normalize(text):
    assert_handled(["normalize", text])


@fuzz
@given(specs, lie_texts | poly_texts)
def test_check(spec, text):
    assert_handled(["check", spec, "-"], text)


@fuzz
@given(specs, poly_texts, poly_texts)
def test_pi(spec, f1, f2):
    assert_handled(["pi", spec, f1, f2])


@fuzz
@given(specs, targets, flags)
def test_hilbert(spec, target, extra):
    assert_handled(["hilbert", spec, target, *extra])


@fuzz
@given(st.sampled_from(["witness", "decide"]), specs, flags)
def test_witness_and_decide(command, spec, extra):
    assert_handled([command, spec, *extra])


# S = x1 + ... + x6; S^a * S^b needs C(a+5, 5) * C(b+5, 5) term pairs, and the
# product of the partials of S^a and S^b C(a+4, 5) * C(b+4, 5), so the draws
# straddle MAX_TERM_PAIRS: S^7 * S^7 is formed, S^7 * S^8 refused
S = "(x1+x2+x3+x4+x5+x6)"
powers = st.integers(0, 14).map(lambda n: f"{S}^{n}")


@settings(fuzz, max_examples=20)
@given(st.booleans(), powers, powers)
def test_module_action_chains(by_check, p1, p2):
    text = f"[x2,x1].{p1}*{p2}"
    if by_check:
        assert_handled(["check", "5", "-"], text)
    else:
        assert_handled(["normalize", text])


@settings(fuzz, max_examples=8)
@given(st.integers(4, 12), st.integers(4, 12))
def test_pi_powers(a, b):
    assert_handled(["pi", "5", "--", f"{S}^{a}", f"{S}^{b}"])


# [[x2,x1].S^a, x1 + ... + x81]: the two a-coefficients of the module element have
# C(a+5, 5) terms each and the y-part of the linear form 81, so the bracket needs
# 2 * 81 * C(a+5, 5) term pairs, each giving a term of its own: a = 11 is formed
# (707 616 pairs, about 10 s), a = 12 refused (1 002 456)
WIDE = "+".join(f"x{j}" for j in range(1, 82))


@settings(fuzz, max_examples=5)
@given(st.integers(10, 14))
def test_nested_brackets_with_a_wide_linear_form(a):
    assert_handled(["normalize", f"[[x2,x1].{S}^{a}, {WIDE}]"])


@fuzz
@given(st.sampled_from(["0", "0,", "-0"]), targets, st.sampled_from(["0", "1", "2", "4", "64"]),
       st.booleans())
def test_single_generator_hilbert(spec, target, n, json_flag):
    assert_handled(["hilbert", spec, target, "-N", n] + ["--json"] * json_flag)
