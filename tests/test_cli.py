"""Command-line interface: outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from metalie import cli, invariants, sl2
from metalie.cli import MAX_RANK, MAX_WITNESS_COUNT, main
from metalie.invariants import NoKnownWitness, NonHomogeneousInput, SpanBudgetExceeded
from metalie.linalg import LinearSolveError
from metalie.metabelian import (ContextMismatch, LieContext, NotInCommutatorIdeal, WreathElement,
                                parse_lie_expr)
from metalie.poly import (MAX_EXPONENT, MAX_MINORS, MAX_TERM_PAIRS, ExponentOverflow, ParseError,
                          Poly, UsageError)
from metalie.series import NotACharacter, TruncationMismatch
from metalie.sl2 import NotUnipotent
from oracles import stream_parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def deeply_nested(text, depth=3000):
    return "(" * depth + text + ")" * depth


class TestDecide:
    def test_finitely_generated_with_generators(self, capsys):
        code, out, _ = run(capsys, "decide", "1,0,0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["finitelyGenerated"] is True
        assert payload["generators"] == ["[x2,x1]", "x3", "x4"]

    def test_not_finitely_generated(self, capsys):
        code, out, _ = run(capsys, "decide", "3", "--json")
        assert code == 0
        assert json.loads(out)["finitelyGenerated"] is False

    def test_missing_spec_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "decide")
        assert code == 2

    def test_malformed_spec(self, capsys):
        code, _, err = run(capsys, "decide", "2,,1")
        assert code == 2
        assert "error" in err


class TestHilbert:
    def test_invariant_ring_of_single_degree_two_block(self, capsys):
        code, out, _ = run(capsys, "hilbert", "2", "invariant-ring", "-N", "6", "--json")
        assert code == 0
        assert json.loads(out) == [1, 0, 1, 0, 1, 0, 1]

    def test_vanishing_module(self, capsys):
        code, out, _ = run(capsys, "hilbert", "2", "invariant-module", "-N", "8", "--json")
        assert code == 0
        assert json.loads(out) == [0] * 9

    def test_cubic_block_module(self, capsys):
        code, out, _ = run(capsys, "hilbert", "3", "invariant-module", "-N", "8", "--json")
        assert code == 0
        assert json.loads(out) == [0, 0, 1, 0, 0, 0, 1, 0, 0]

    def test_two_v1_blocks_module(self, capsys):
        code, out, _ = run(capsys, "hilbert", "1,1", "invariant-module", "-N", "4", "--json")
        assert code == 0
        assert json.loads(out) == [0, 0, 3, 0, 3]

    def test_polyring_total_dimensions(self, capsys):
        code, out, _ = run(capsys, "hilbert", "1", "polyring", "-N", "3", "--json")
        assert code == 0
        assert json.loads(out) == [1, 2, 3, 4]

    def test_metabelian_total_dimensions(self, capsys):
        code, out, _ = run(capsys, "hilbert", "1", "metabelian", "-N", "4", "--json")
        assert code == 0
        assert json.loads(out) == [0, 2, 1, 2, 3]

    def test_truncation_guard(self, capsys):
        code, _, err = run(capsys, "hilbert", "2", "polyring", "-N", "65")
        assert code == 2
        assert "64" in err

    def test_metabelian_targets_need_two_generators(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the series pipeline was reached")

        # refused up front, before the series pipeline and its own guard
        monkeypatch.setattr(cli, "invariant_dimension_series", fail)
        for argv in (("0", "invariant-module", "-N", "4"), ("0", "metabelian")):
            assert run(capsys, "hilbert", *argv) == (2, "", "error: need at least two generators\n")

    def test_metabelian_at_truncation_zero(self, capsys):
        code, out, _ = run(capsys, "hilbert", "1", "metabelian", "-N", "0", "--json")
        assert code == 0
        assert json.loads(out) == [0]

    def test_polyring_totals_have_no_work_budget(self, capsys):
        code, out, _ = run(capsys, "hilbert", "1000", "polyring", "-N", "2", "--json")
        assert code == 0
        assert json.loads(out) == [1, 1001, 1001 * 1002 // 2]

    def test_oversized_input_is_refused(self, capsys):
        code, out, err = run(capsys, "hilbert", "1000", "invariant-ring", "-N", "64")
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_rank_thirty_at_truncation_64(self, capsys):
        code, out, _ = run(capsys, "hilbert", "29", "invariant-ring", "-N", "64", "--json")
        assert code == 0
        dims = json.loads(out)
        assert len(dims) == 65
        assert dims[:6] == [1, 0, 0, 0, 5, 0]  # a form of odd degree has no quadratic invariant


class TestCheck:
    def test_invariant_polynomial(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("x2^2 - x1*x3")
        code, out, _ = run(capsys, "check", "2", str(path))
        assert code == 0
        assert "invariant" in out

    def test_not_invariant_reports_failing_image(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("x1")
        code, out, _ = run(capsys, "check", "1", str(path), "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["invariant"] is False
        assert payload["failing"]["derivation"] in ("delta1", "delta2")

    # the envelope stores y_j as x_j; its printed elements keep the name y_j
    def test_failing_image_prints_the_envelope_in_y(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[x3,x1]"))
        code, out, _ = run(capsys, "check", "2", "-", "--json")
        assert code == 1
        assert json.loads(out)["failing"] == {"derivation": "delta1",
                                              "image": "-2*a1*y2 + 2*a2*y1"}
        monkeypatch.setattr("sys.stdin", io.StringIO("[x2,x1].(x1)"))
        code, out, _ = run(capsys, "check", "1", "-")
        assert (code, out) == (1, "not invariant: delta2 maps it to -a1*y2^2 + a2*y1*y2\n")

    def test_lie_expression(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("[x4,x1] - 3*[x3,x2]")
        code, out, _ = run(capsys, "check", "3", str(path))
        assert code == 0
        assert "invariant" in out

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("x1 +")
        code, _, err = run(capsys, "check", "1", str(path))
        assert code == 2

    def test_empty_stdin_names_the_end_of_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, _, err = run(capsys, "check", "1", "-")
        assert code == 2
        assert err == "error: unexpected end of input at position 0\n"

    def test_variable_outside_the_module_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("x3")
        code, _, err = run(capsys, "check", "1", str(path))
        assert code == 2
        assert "x3" in err

    def test_deep_nesting_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text(deeply_nested("[x2,x1]"))
        code, _, err = run(capsys, "check", "1", str(path))
        assert code == 2
        assert err.startswith("error: nesting deeper than")

    def test_directory_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "1", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")

    def test_zero_denominator_is_parse_error(self, capsys, tmp_path):
        for text in ("1/0*x1", "1/0*[x2,x1]"):
            path = tmp_path / "expr.txt"
            path.write_text(text)
            code, _, err = run(capsys, "check", "1", str(path))
            assert code == 2
            assert err.startswith("error: division by zero")


class TestPi:
    def test_known_element(self, capsys):
        code, out, _ = run(capsys, "pi", "2,0", "x4", "x2^2 - x1*x3")
        assert code == 0
        expansion = out.strip()
        ctx = LieContext(4)
        value = parse_lie_expr(expansion).evaluate(ctx)
        expected = parse_lie_expr("2*[x4,x2,x2] - [x4,x1,x3] - [x4,x3,x1]").evaluate(ctx)
        assert value == expected

    def test_dependent_inputs_print_zero(self, capsys):
        code, out, _ = run(capsys, "pi", "2,0", "x4", "x4^2")
        assert code == 0
        assert out.startswith("0")

    def test_non_homogeneous_is_usage_error(self, capsys):
        code, _, err = run(capsys, "pi", "2,0", "x4 + x4^2", "x1")
        assert code == 2

    def test_deep_nesting_is_parse_error(self, capsys):
        code, _, err = run(capsys, "pi", "2", deeply_nested("x1"), "x2")
        assert code == 2
        assert err.startswith("error: nesting deeper than")

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "pi", "2,0", "x4", "x2^2 - x1*x3")
        _, second, _ = run(capsys, "pi", "2,0", "x4", "x2^2 - x1*x3")
        assert first == second

    def test_quartic_block_ring_generators(self, capsys):
        code, out, _ = run(capsys, "pi", "4", "x1*x5 - 4*x2*x4 + 3*x3^2",
                           "-x1*x3*x5 - 2*x2*x3*x4 + x3^3 + x1*x4^2 + x2^2*x5",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["zero"] is False
        assert payload["terms"]


class TestWitness:
    def test_emits_increasing_degrees(self, capsys):
        code, out, _ = run(capsys, "witness", "1,1", "--count", "3", "--json")
        assert code == 0
        rows = json.loads(out)
        assert [r["degree"] for r in rows] == [2, 4, 6]
        assert all(r["invariant"] for r in rows)

    def test_unknown_spec(self, capsys):
        code, _, err = run(capsys, "witness", "1,1,1,1")
        assert code == 2

    @pytest.mark.parametrize("count", ["-1", str(10 ** 20), str(MAX_WITNESS_COUNT + 1)])
    def test_count_out_of_range_is_usage_error(self, capsys, count):
        code, out, err = run(capsys, "witness", "1,1", "--count", count)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --count must be between 0 and")


def counted(fn, calls):
    def wrapper(*args):
        calls.append(fn.__name__)
        return fn(*args)
    return wrapper


# every specification `witness` supports, with the most members up to six
# that each is accepted for
WITNESS_SPECS = [("2,0", 6), ("3", 6), ("1,1", 6), ("4", 6), ("2,1", 6), ("1,1,1", 6),
                 ("2,2", 6), ("5", 3), ("7", 2)]


class TestWitnessDecision:
    @pytest.mark.parametrize("spec, count", WITNESS_SPECS)
    def test_first_member_substituted_every_member_derived(self, capsys, monkeypatch,
                                                             spec, count):
        calls = []
        monkeypatch.setattr(cli, "is_invariant", counted(cli.is_invariant, calls))
        monkeypatch.setattr(cli, "is_invariant_by_derivations",
                            counted(cli.is_invariant_by_derivations, calls))
        code, out, _ = run(capsys, "witness", spec, "--count", str(count), "--json")
        assert code == 0
        assert all(row["invariant"] for row in json.loads(out))
        assert calls.count("is_invariant") == 1
        assert calls.count("is_invariant_by_derivations") == count

    def test_substitution_decides_the_first_row_only(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "is_invariant", lambda u, spec: False)
        code, out, _ = run(capsys, "witness", "2,1", "--count", "6", "--json")
        assert code == 0
        assert [row["invariant"] for row in json.loads(out)] == [False] + [True] * 5

    # the substitution oracle, outside the CLI: g1 and g2 fix the first member
    # of every family the CLI builds, and not that member plus x1
    @pytest.mark.parametrize("spec", [spec for spec, _ in WITNESS_SPECS])
    def test_first_member_fixed_by_substitution(self, spec):
        module = sl2.ModuleSpec.parse(spec)
        [u] = cli._witness_family(module, 1)
        assert sl2.is_invariant(u, module)
        assert not sl2.is_invariant(u + module.context().generator(1), module)

    def test_derivations_decide_every_row(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "is_invariant_by_derivations", lambda u, spec: False)
        code, out, _ = run(capsys, "witness", "2,1", "--count", "6", "--json")
        assert code == 0
        assert [row["invariant"] for row in json.loads(out)] == [False] * 6


class TestWitnessBudget:
    @pytest.mark.parametrize("spec", ["6", "8", "9", "12"])
    def test_block_over_the_budget_is_refused_before_the_pair(self, capsys, monkeypatch,
                                                              spec):
        def unbuilt(spec):
            raise AssertionError("the witness pair was built")
        monkeypatch.setattr(cli, "witness_pair", unbuilt)
        code, out, err = run(capsys, "witness", spec, "--count", "1")
        assert (code, out) == (2, "")
        assert "budget" in err

    @pytest.mark.parametrize("spec", ["3", "5"])
    def test_family_over_the_budget_is_refused(self, capsys, spec):
        start = perf_counter()
        code, out, err = run(capsys, "witness", spec, "--count", "64", "--json")
        assert (code, out) == (2, "")
        assert "budget" in err
        assert perf_counter() - start < 2

    # the first count past the budget of each single block that reaches it
    @pytest.mark.parametrize("spec, count", [("3", 28), ("4", 26), ("5", 5), ("7", 3)])
    def test_first_count_past_the_budget_is_refused_before_the_work(self, capsys, monkeypatch,
                                                                    spec, count):
        built = []

        def members(spec, pair):
            for u in invariants.infinite_family_witness(spec, pair):
                built.append(u)
                yield u

        def undecided(u, spec):
            raise AssertionError("a member was decided")
        monkeypatch.setattr(cli, "infinite_family_witness", members)
        monkeypatch.setattr(cli, "is_invariant", undecided)
        monkeypatch.setattr(cli, "is_invariant_by_derivations", undecided)
        code, out, err = run(capsys, "witness", spec, "--count", str(count))
        assert (code, out) == (2, "")
        assert f"member {count} could take the family past the budget" in err
        assert len(built) == count - 1

    @pytest.mark.parametrize("spec, count", [
        # the shapes the benchmark draws, at their largest counts
        ("2,0", 6), ("1,1", 6), ("2,1", 6), ("1,1,1", 6), ("2,2", 6), ("3", 3), ("4", 2),
        ("3", 6), ("4", 6), ("1,1", 40), ("5", 4),
        *[(spec, MAX_WITNESS_COUNT) for spec in ("2,0", "1,1", "2,1", "1,1,1", "2,2")],
    ])
    def test_accepted_edges(self, capsys, spec, count):
        code, out, _ = run(capsys, "witness", spec, "--count", str(count), "--json")
        assert code == 0
        assert len(json.loads(out)) == count


class TestCatalog:
    def test_verify_single_case(self, capsys):
        code, out, _ = run(capsys, "catalog", "verify", "--case", "iii",
                           "--degree", "8", "--rank-degree", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_show_lists_generators(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "--case", "vii")
        assert code == 0
        assert "v6" in out and "f3" in out and "relation" in out

    def test_unknown_case(self, capsys):
        code, _, err = run(capsys, "catalog", "verify", "--case", "viii")
        assert code == 2

    def test_rank_degree_above_the_degree_is_usage_error(self, capsys):
        code, out, err = run(capsys, "catalog", "verify", "--case", "i", "--degree", "6",
                             "--rank-degree", "9")
        assert (code, out) == (2, "")
        assert err.startswith("error: --rank-degree")


class TestNormalize:
    def test_poly_idempotent(self, capsys):
        code, first, _ = run(capsys, "normalize", "x2^2 - x1*x3")
        assert code == 0
        code, second, _ = run(capsys, "normalize", first.strip())
        assert code == 0
        assert first == second

    def test_lie_expression_canonicalizes(self, capsys):
        code, out, _ = run(capsys, "normalize", "[x1,x2] + [x2,x1]")
        assert code == 0
        assert out.strip() == "0"

    def test_lie_idempotent(self, capsys):
        code, first, _ = run(capsys, "normalize", "x3 + [x2,x1,x1] - 2*[x2,x1]")
        assert code == 0
        code, second, _ = run(capsys, "normalize", first.strip())
        assert first == second

    @pytest.mark.parametrize("text, expected", [
        ("3/2*[x4,x2,x1,x4].(x1^2) + [x3,x1]",
         "[x3,x1] - 3/2[x2,x1,x1,x1,x4,x4] + 3/2[x4,x1,x1,x1,x2,x4]"),
        ("x3 + [x2,x1,x1] - 2*[x2,x1]", "x3 - 2[x2,x1] + [x2,x1,x1]")])
    def test_the_element_is_split_once(self, text, expected, capsys, monkeypatch):
        # the linear part and the ideal mark are carried to the word expansion
        splits, real_split = [], WreathElement.split
        monkeypatch.setattr(WreathElement, "split",
                            lambda self: splits.append(self) or real_split(self))
        code, out, _ = run(capsys, "normalize", text)
        assert (code, out.strip(), len(splits)) == (0, expected, 1)

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "normalize", "[x1,")
        assert code == 2

    def test_rank_covers_module_action_generators(self, capsys):
        code, out, _ = run(capsys, "normalize", "[x2,x1].x3")
        assert code == 0
        assert out.strip() == "[x2,x1,x3]"

    def test_deep_nesting_is_parse_error(self, capsys):
        code, _, err = run(capsys, "normalize", deeply_nested("[x2,x1]"))
        assert code == 2
        assert err.startswith("error: nesting deeper than")


class TestLeadingMinus:
    """An expression that begins with `-` must follow `--`; before it,
    argparse reads the expression as an option."""

    def test_normalize_after_double_dash(self, capsys):
        assert run(capsys, "normalize", "-[x2,x1]")[0] == 2
        code, out, _ = run(capsys, "normalize", "--", "-[x2,x1]")
        assert (code, out) == (0, "-[x2,x1]\n")

    def test_pi_after_double_dash(self, capsys):
        assert run(capsys, "pi", "2", "-x1", "x2")[0] == 2
        code, out, _ = run(capsys, "pi", "2", "--", "-x1", "x2")
        assert (code, out) == (0, "[x2,x1]\n")
        code, positive, _ = run(capsys, "pi", "2", "x1", "x2")
        assert (code, positive) == (0, "-[x2,x1]\n")


class TestZeroPaddedNames:
    """A variable index takes no leading zero: x01 is refused, not read as x1."""

    def test_pi_refuses_a_padded_generator(self, capsys):
        code, out, err = run(capsys, "pi", "2", "x01", "x2")
        assert (code, out) == (2, "")
        assert err == "error: variable 'x01' at position 0: an index takes no leading zero\n"

    def test_check_refuses_a_padded_generator(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x01*x2 - x1*x2"))
        code, out, err = run(capsys, "check", "2", "-")
        assert (code, out) == (2, "")
        assert "'x01' at position 0" in err

    def test_normalize_refuses_a_padded_multiplier(self, capsys):
        code, out, err = run(capsys, "normalize", "[x2,x1].(x01 - x1)")
        assert (code, out) == (2, "")
        assert "'x01' at position 9" in err

    def test_unpadded_indices_stay_names(self, capsys):
        for text in ("x0^2*x + x^2 - x0", "x10*x1"):
            code, out, _ = run(capsys, "normalize", text)
            assert code == 0, text
        assert run(capsys, "normalize", "x00")[0] == 2


class TestRankBudget:
    def test_huge_block_is_refused(self, capsys):
        code, out, err = run(capsys, "hilbert", str(10 ** 70), "polyring", "-N", "64")
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_huge_normalize_rank_is_refused(self, capsys):
        code, out, err = run(capsys, "normalize", "[x1000000,x1]")
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_check_over_the_budget_is_refused(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("x1")
        code, out, err = run(capsys, "check", "2000", str(path))
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_rank_at_the_budget_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("x1")
        code, _, _ = run(capsys, "check", str(MAX_RANK - 1), str(path), "--json")
        assert code == 1
        code, out, _ = run(capsys, "pi", str(MAX_RANK - 1), "x1", "x2")
        assert (code, out.strip()) == (0, "-[x2,x1]")
        code, _, err = run(capsys, "check", str(MAX_RANK), str(path))
        assert code == 2 and "budget" in err


SEXTIC_12 = "(x1+x2+x3+x4+x5+x6)^12"


def seconds_to_read_two_factors():
    start = perf_counter()
    Poly.parse(SEXTIC_12), Poly.parse(SEXTIC_12)
    return perf_counter() - start


class TestExpressionBudget:
    def test_power_over_the_budget_is_refused_before_expanding(self, capsys):
        start = perf_counter()
        code, out, err = run(capsys, "normalize", "(x1+x2+x3+x4+x5+x6)^40")
        assert perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert f"budget of {MAX_TERM_PAIRS}" in err

    def test_power_within_the_budget_is_expanded(self, capsys):
        code, out, _ = run(capsys, "normalize", "(x1+x2+x3)^12")
        assert code == 0
        assert len(out.split(" + ")) == 91

    def test_product_over_the_budget_is_refused(self, capsys):
        code, out, err = run(capsys, "normalize",
                             "(x1+x2+x3+x4+x5+x6)^12*(x1+x2+x3+x4+x5+x6)^12")
        assert (code, out) == (2, "")
        assert "product at position" in err and "budget" in err

    # each refusal below comes after its two factors S^12 are read (6188 terms
    # each, about 0.08 s together), and before the product, which would take
    # minutes; so the time past reading them is what is bounded
    @pytest.mark.parametrize("expression", [
        f"[x2,x1].{SEXTIC_12}*{SEXTIC_12}",
        f"[x2,x1].{SEXTIC_12}.{SEXTIC_12}",
        f"[x2,x1].({SEXTIC_12}*{SEXTIC_12})",
    ])
    def test_module_action_product_over_the_budget_is_refused(self, capsys, expression):
        reading = seconds_to_read_two_factors()
        start = perf_counter()
        code, out, err = run(capsys, "normalize", expression)
        assert perf_counter() - start < reading + 0.1
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: product at position \d+ needs up to 38291344 term "
                            f"pairs, over the budget of {MAX_TERM_PAIRS}\n", err)

    # the action of S^8 (1287 terms) on [x2,x1].S^8 (2574 terms) needs 3 312 738
    # term pairs, and the refusal comes before any of them is formed
    ACTED_TWICE = "([x2,x1].(x1+x2+x3+x4+x5+x6)^8).(x1+x2+x3+x4+x5+x6)^8"
    ACTION_REFUSED = ("error: module action at position 31 needs up to 3312738 term pairs, "
                      f"over the budget of {MAX_TERM_PAIRS}\n")

    def test_module_action_over_the_budget_is_refused_by_normalize(self, capsys):
        start = perf_counter()
        code, out, err = run(capsys, "normalize", self.ACTED_TWICE)
        assert perf_counter() - start < 0.1
        assert (code, out, err) == (2, "", self.ACTION_REFUSED)

    def test_module_action_over_the_budget_is_refused_by_check(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.ACTED_TWICE))
        start = perf_counter()
        code, out, err = run(capsys, "check", "5", "-")
        assert perf_counter() - start < 0.1
        assert (code, out, err) == (2, "", self.ACTION_REFUSED)

    def test_pi_with_too_many_minors_is_refused(self, capsys):
        f1, f2 = ("+".join(f"{c}x{j}" for j in range(1, 401)) for c in ("", "2*"))
        code, out, err = run(capsys, "pi", "399", "--", f1, f2)
        assert (code, out) == (2, "")
        assert err == f"error: 79800 Jacobian minors, over the budget of {MAX_MINORS}\n"

    def test_pi_minor_product_over_the_budget_is_refused(self, capsys):
        reading = seconds_to_read_two_factors()
        start = perf_counter()
        code, out, err = run(capsys, "pi", "5", "--", SEXTIC_12, SEXTIC_12)
        assert perf_counter() - start < reading + 0.1
        assert (code, out) == (2, "")
        assert err == ("error: a Jacobian minor product needs up to 19079424 term pairs, "
                       f"over the budget of {MAX_TERM_PAIRS}\n")

    def test_pi_minor_products_within_the_budget_are_formed(self, capsys):
        code, out, _ = run(capsys, "pi", "3", "--json", "--", "(x1+x2+x3+x4)^14",
                           "(x1+x2+x3+x4)^14")
        assert code == 0
        assert json.loads(out)["zero"] is True

    def test_exponent_over_the_field_is_refused(self, capsys):
        code, out, err = run(capsys, "normalize", "x1^123456789012")
        assert (code, out) == (2, "")
        assert f"budget of {MAX_EXPONENT}" in err
        code, out, _ = run(capsys, "normalize", f"x1^{MAX_EXPONENT}")
        assert (code, out.strip()) == (0, f"x1^{MAX_EXPONENT}")

    def test_exponent_overflow_in_a_product_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("x1^20000*x1^20000")
        code, out, err = run(capsys, "check", "1", str(path))
        assert (code, out) == (2, "")
        assert err.strip() == f"error: exponent over the budget of {MAX_EXPONENT}"


class TestCatalogBudget:
    def test_degree_64_is_refused_up_front(self, capsys):
        start = perf_counter()
        code, out, err = run(capsys, "catalog", "verify", "--degree", "64")
        assert perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "rows, over the budget" in err

    def test_single_case_over_the_budget(self, capsys):
        code, out, err = run(capsys, "catalog", "verify", "--case", "vii", "--degree", "28")
        assert (code, out) == (2, "")
        assert err.startswith("error: case vii: span checks to degree 28 need 3515 rows")

    def test_small_rank_degree_keeps_a_high_truncation(self, capsys):
        code, out, _ = run(capsys, "catalog", "verify", "--case", "vi", "--degree", "28",
                           "--rank-degree", "12", "--json")
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestInternalErrors:
    @pytest.mark.parametrize("error", [
        NotACharacter("degree 3 slice: multiplicity -1 at weight (2, 1)"),
        TruncationMismatch("series shapes differ"),
        LinearSolveError("inconsistent linear system"),
        AssertionError("unreachable"),
        RuntimeError("first line\nsecond line"),
        ValueError("y-part is not linear"),
    ])
    def test_exit_three_with_one_line(self, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(invariants, "decompose_slice", fail)
        code, out, err = run(capsys, "catalog", "verify", "--case", "i", "--degree", "4")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ")
        assert err.count("\n") == 1
        assert type(error).__name__ in err
        assert "Traceback" not in err


class TestRefusalTypes:
    """The type of an exception decides the exit code, not where it is raised:
    every refusal is a `UsageError` (exit 2), anything else an internal error."""

    def test_refusal_raised_in_a_kernel_exits_two(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ParseError("refused deep inside")

        monkeypatch.setattr(invariants, "decompose_slice", fail)
        code, out, err = run(capsys, "catalog", "verify", "--case", "i", "--degree", "4")
        assert (code, out, err) == (2, "", "error: refused deep inside\n")

    @pytest.mark.parametrize("error", [ParseError, ExponentOverflow, ContextMismatch,
                                       NotInCommutatorIdeal, NonHomogeneousInput,
                                       SpanBudgetExceeded, NoKnownWitness])
    def test_refusals_derive_from_one_base(self, error):
        assert issubclass(error, UsageError)
        assert issubclass(error, ValueError)    # callers catching ValueError still catch it

    def test_no_known_witness_stays_a_lookup_error(self):
        assert issubclass(NoKnownWitness, LookupError)

    @pytest.mark.parametrize("error", [NotACharacter, TruncationMismatch, LinearSolveError,
                                       NotUnipotent])
    def test_internal_types_are_not_refusals(self, error):
        assert not issubclass(error, UsageError)

    def test_cli_reexports_the_refusal_base(self):
        assert cli.UsageError is UsageError

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on the digits of an int")
    @pytest.mark.parametrize("argv", [
        ("normalize", "1" * 5000 + "*x1"),      # a number read past the limit
        ("normalize", "1/" + "1" * 5000),
        ("normalize", "x" + "1" * 5000),         # a variable index past the limit
        ("normalize", "99^3000"),                # a coefficient printed past the limit
        ("normalize", "[x2,x1].(99^3000)"),
        ("pi", "2", "--", "99^3000*x1", "x2"),
    ])
    def test_numbers_past_the_digit_limit_are_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on the digits of an int")
    @pytest.mark.parametrize("argv", [
        ("pi", "2", "--", "99^3000*x1", "x2"),
        ("pi", "2", "--", "x1 + 99^1500*99^1500*x2", "x2"),
        ("pi", "2", "--", "(1/99)^3000*x1", "x2"),     # a denominator past the limit
        ("pi", "2", "--", "(x1 + 99^3*x2)^1000", "x2"),
        ("normalize", "[x2,x1].(99^3000)"),
        ("normalize", "[x2,x1].(99^1500*x1).(99^1500)"),
        ("normalize", "0*99^3000"),    # refused when it is formed, although 0 prints
    ])
    def test_digit_limit_is_met_as_coefficients_are_formed(self, capsys, monkeypatch, argv):
        def reached(*args):
            raise AssertionError("a minor or a module action was formed")

        monkeypatch.setattr(invariants, "jacobian_minors", reached)
        monkeypatch.setattr(WreathElement, "ad_action", reached)
        with pytest.raises(ValueError) as printing:    # the message printing would give
            str(99 ** 3000)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {printing.value}\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on the digits of an int")
    def test_power_past_the_digit_limit_is_refused_before_it_is_formed(self, capsys):
        start = perf_counter()    # forming (10^4000 - 1)^32767 would take minutes
        code, out, err = run(capsys, "normalize", "9" * 4000 + "^32767*x1")
        assert perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1

    def test_coefficients_under_the_digit_limit_are_kept(self, capsys):
        for text in ("99^2000*x1", "(1/99)^2000*x1 + 99^1000*99^1000*x2", "(x1 + 99^40*x2)^50"):
            code, out, _ = run(capsys, "normalize", text)
            assert (code, out) == (0, f"{stream_parse_poly(text)}\n")

    @pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
    def test_undecodable_stdin_is_refused_as_a_file_is(self, tmp_path, locale):
        path = tmp_path / "expr.txt"
        path.write_bytes(b"\xff\xfe")
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**{k: v for k, v in os.environ.items() if not k.startswith(("PYTHONIO", "LC_"))},
               "PYTHONPATH": src, "LC_ALL": locale}
        piped, filed = (subprocess.run([sys.executable, "-m", "metalie.cli", "check", "2", name],
                                       input=b"\xff\xfe", env=env, capture_output=True,
                                       timeout=60) for name in ("-", str(path)))
        expected = (b"error: 'utf-8' codec can't decode byte 0xff in position 0: "
                    b"invalid start byte\n")
        assert (piped.returncode, piped.stdout, piped.stderr) == (2, b"", expected)
        assert (filed.returncode, filed.stdout, filed.stderr) == (2, b"", expected)

    def test_undecodable_file_is_refused(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_bytes(b"x1 + \xff")
        code, out, err = run(capsys, "check", "1", str(path))
        assert (code, out) == (2, "")    # a decode error, or an unexpected character
        assert err.startswith("error: ") and err.count("\n") == 1


# (argv, stdin): every subcommand, help, usage errors (2), a failed check (1),
# and stdin input; the specifications are few enough for the operator caches
REPEATED = [
    (["decide", "2,1", "--json"], ""),
    (["decide", "1,0,0"], ""),
    (["hilbert", "2,1", "invariant-module", "-N", "8", "--json"], ""),
    (["hilbert", "3", "invariant-ring", "-N", "6"], ""),
    (["hilbert", "2", "metabelian", "-N", "5"], ""),
    (["check", "2", "-", "--json"], "x2^2 - x1*x3"),
    (["check", "1,1", "-"], "x1"),
    (["check", "2", "-"], "x1 +"),
    (["pi", "2,0", "x4", "x2^2 - x1*x3", "--json"], ""),
    (["witness", "3", "--count", "3", "--json"], ""),
    (["witness", "1,1", "--count", "2"], ""),
    (["catalog", "show", "--case", "iii"], ""),
    (["catalog", "verify", "--case", "v", "--degree", "6", "--json"], ""),
    (["catalog", "verify", "--case", "ii", "--degree", "5"], ""),
    (["normalize", "[x3,x1,x2] + [x2,x1,x3]"], ""),
    (["normalize", "x1*x2 + x2*x1"], ""),
    (["--help"], ""),
    (["hilbert", "--help"], ""),
    ([], ""),
    (["decide", "2,,1"], ""),
    (["hilbert", "2", "invariant-ring", "-N", "999"], ""),
    (["catalog", "verify", "--case", "nope"], ""),
]


def masked(out):
    """Output with the seconds of `catalog verify --json` taken out."""
    return re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": _', out)


class TestRepeatedCalls:
    """`main` called again and again in one process answers as a fresh
    interpreter does; equal specifications share the sl2 operator caches."""

    def in_process(self, monkeypatch, argv, stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, masked(out.getvalue()), err.getvalue()

    def test_repeated_calls_match_fresh_interpreters(self, monkeypatch):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
        monkeypatch.setenv("COLUMNS", "80")
        fresh = []
        for argv, stdin in REPEATED:
            done = subprocess.run([sys.executable, "-m", "metalie.cli", *argv], input=stdin,
                                  env=env, capture_output=True, text=True, timeout=120)
            fresh.append((done.returncode, masked(done.stdout), done.stderr))
        assert {code for code, _, _ in fresh} == {0, 1, 2}

        def run_all(indices):
            for i in indices:
                argv, stdin = REPEATED[i]
                assert self.in_process(monkeypatch, argv, stdin) == fresh[i], argv

        caches = (sl2.g1_matrix, sl2.g2_matrix, sl2.derivations)
        for cache in caches:
            cache.cache_clear()
        indices = range(len(REPEATED))
        run_all(indices)
        misses = [cache.cache_info().misses for cache in caches]
        run_all(reversed(indices))
        run_all(indices)
        # later rounds build no operator again: equal specifications hit the caches
        assert [cache.cache_info().misses for cache in caches] == misses
        assert all(cache.cache_info().hits for cache in caches)
