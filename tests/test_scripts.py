"""The experiment scripts run end to end and report failures in their exit status."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def test_invariant_dimensions_cross_check():
    result = run_script("invariant_dimensions.py", "2,1", "-N", "10", "--cross-check")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "MISMATCH" not in result.stdout


@pytest.mark.parametrize("spec", ["0", "2,,1"])
def test_invariant_dimensions_refuses_bad_specs(spec):
    result = run_script("invariant_dimensions.py", spec, "-N", "3")
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_reproduce_catalog():
    result = run_script("reproduce_catalog.py", "--degree", "6")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "FAIL" not in result.stdout
    check_lines = [line for line in result.stdout.splitlines() if "[ok  ]" in line]
    assert len(check_lines) == 7 * 8
    assert all(re.search(r" \d+\.\d{3}s  size +\d+$", line) for line in check_lines)


def test_cross_check_mismatch_fails_the_run(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("invariant_dimensions",
                                                  SCRIPTS / "invariant_dimensions.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "invariant_dimension", lambda spec, n, space: 99)
    monkeypatch.setattr(sys, "argv", ["invariant_dimensions.py", "2,1", "-N", "3",
                                      "--cross-check"])
    assert script.main() == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_bench_at_a_tiny_size(tmp_path):
    out = tmp_path / "bench.json"
    for column in ("before", "after"):
        result = run_script("bench.py", "--tiny", "--out", str(out), "--column", column)
        assert result.returncode == 0, result.stdout + result.stderr
    entries = json.loads(out.read_text())["entries"]
    assert {"poly.mul", "poly.substitute", "poly.partial", "metabelian.bracket",
            "sl2.derivation_act", "linalg.rank", "linalg.rank.full", "text.parse check",
            "text.parse pi", "text.parse normalize", "text.expand witness",
            "text.expand pi", "catalog.span_checks"} <= set(entries)
    # the rows `catalog verify` ranks are the restriction of the full rows
    sliced, full = (entries[name]["after"]["sizes"]
                    for name in ("linalg.rank", "linalg.rank.full"))
    assert sliced["rows"] == full["rows"] and sliced["rank"] == full["rank"]
    assert sliced["columns"] < full["columns"]
    # the span checks form rows only in the degrees the leading monomials leave
    spans = entries["catalog.span_checks"]["after"]["sizes"]
    assert 0 < spans["rows_formed"] < spans["rows"]
    for entry in entries.values():
        assert entry["before"]["sizes"] == entry["after"]["sizes"]
        assert entry["after"]["seconds"] >= 0 and entry["after"]["peak_kb"] > 0
    assert entries["poly.mul"]["after"]["sizes"]["terms_a"] == 20


def test_bench_alternates_columns_in_one_run(tmp_path):
    out = tmp_path / "bench.json"
    src = str(ROOT / "src")
    result = run_script("bench.py", "--tiny", "--out", str(out),
                        "--column", f"parent={src}", "--column", "change")
    assert result.returncode == 0, result.stdout + result.stderr
    entries = json.loads(out.read_text())["entries"]
    assert "witness 4 --count 2" in entries
    for entry in entries.values():
        assert entry["parent"]["sizes"] == entry["change"]["sizes"]
        assert entry["parent"]["seconds"] >= 0 and entry["change"]["peak_kb"] > 0
