"""The help and usage text of the CLI, pinned byte for byte.

`cli_text.json` holds the exit code, stdout and stderr of `metalie -h`, of
`metalie <command> -h` for every command and of one usage error each, at three
terminal widths.  An intended change of the text rewrites it with

    PYTHONPATH=src python3 tests/test_cli_text.py
"""

import contextlib
import io
import json
import os
import shutil
from pathlib import Path
from unittest import mock

import pytest

from metalie import cli

GOLDEN = Path(__file__).with_name("cli_text.json")
COLUMNS = (40, 80, 200)
ARGVS = (
    ["-h"], [], ["bogus"], ["decide", "2", "--bogus"],
    ["decide", "-h"], ["decide"],
    ["hilbert", "-h"], ["hilbert", "2", "bogus"],
    ["check", "-h"], ["check", "2"],
    ["pi", "-h"], ["pi", "2", "x1"],
    ["witness", "-h"], ["witness", "2", "--count", "abc"],
    ["catalog", "-h"], ["catalog", "frob"],
    ["normalize", "-h"], ["normalize"],
)


def capture(argv, columns):
    """{argv, columns, code, stdout, stderr} of one in-process `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": str(columns)}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "columns": columns, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_goldens_cover_every_command_at_every_width():
    names = {entry["argv"][0] for entry in golden() if entry["argv"]} - {"-h", "bogus"}
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert names == set(commands.choices)
    assert [(e["argv"], e["columns"]) for e in golden()] == \
        [(argv, columns) for argv in ARGVS for columns in COLUMNS]


@pytest.mark.parametrize("entry", golden() if GOLDEN.exists() else [], ids=lambda e: f"{' '.join(e['argv'])}@{e['columns']}")
def test_the_text_is_byte_equal(entry):
    assert capture(entry["argv"], entry["columns"]) == entry


def test_one_build_reads_the_terminal_size_once(monkeypatch):
    calls, real = [], shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or real(*a))
    cli.build_parser()
    assert len(calls) == 1
    capture(["catalog", "-h"], 40)    # the help formats at the width the build read
    capture(["witness", "2", "--count", "abc"], 40)
    assert len(calls) == 3    # and every call builds its parser anew


if __name__ == "__main__":
    entries = [capture(argv, columns) for argv in ARGVS for columns in COLUMNS]
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
