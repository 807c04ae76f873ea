"""Command-line interface: outputs, exit codes, determinism."""

import json

from metalie.cli import main
from metalie.metabelian import LieContext, parse_lie_expr


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_variable_outside_the_module_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("x3")
        code, _, err = run(capsys, "check", "1", str(path))
        assert code == 2
        assert "x3" in err


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

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "normalize", "[x1,")
        assert code == 2
