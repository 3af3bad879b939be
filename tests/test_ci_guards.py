"""Every guard line in CI's workflow can fail its step.

A step's ``run:`` script runs under ``bash -e``, which never stops for a
command whose status is inverted with ``!``:
``bash -e -c '! true; echo continued'`` prints ``continued``.  So a bare
``! grep ...`` decides its step only as the last command of the script;
anywhere else — before another command, or inside a loop body — it must
end in ``|| exit 1``.
"""

from __future__ import annotations

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"

_RUN = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")
_EXITS = re.compile(r"\|\|\s*exit\s+1\s*$")


def run_scripts(text: str) -> list[tuple[int, list[str]]]:
    """(line number, commands) of every ``run:`` script in a workflow, one
    command per line with ``\\``-continued lines joined and comments
    dropped."""
    lines = text.splitlines()
    scripts = []
    for number, line in enumerate(lines, 1):
        match = _RUN.match(line)
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2).strip()
        if value not in ("|", ">", "|-", ">-"):
            body = [value.strip("\"'")]
        else:
            body = []
            for following in lines[number:]:
                if following.strip() and len(following) - len(following.lstrip()) <= indent:
                    break
                body.append(following.strip())
        commands: list[str] = []
        pending = ""
        for piece in body:
            if not piece or piece.startswith("#"):
                continue
            pending += piece
            if pending.endswith("\\"):
                pending = pending[:-1] + " "
                continue
            commands.append(pending)
            pending = ""
        if pending:
            commands.append(pending)
        scripts.append((number, commands))
    return scripts


def inert_guards(text: str) -> list[str]:
    """The bare ``!`` commands of ``text`` that cannot fail their step."""
    found = []
    for number, commands in run_scripts(text):
        for command in commands[:-1]:
            if command.startswith("!") and not _EXITS.search(command):
                found.append(f"run: at line {number}: {command}")
    return found


def test_no_guard_is_inert():
    assert inert_guards(WORKFLOW.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_inert_guard():
    workflow = """\
      - name: guard
        run: |
          ! grep -rn 'first' src/
          ! grep -rn 'second' src/ || exit 1
          for name in a b; do
            ! grep -q old "$name" \\
              src/
          done
          ! grep -rn 'last' src/
      - run: "! grep -rq 'alone' src/"
"""
    assert inert_guards(workflow) == [
        "run: at line 2: ! grep -rn 'first' src/",
        "run: at line 2: ! grep -q old \"$name\"  src/",
    ]
