"""The README's Python examples run as written, its config tables match
the CLI's config schema, and its constants table the modules."""

import importlib
import json
import re
from pathlib import Path

from sanovdual.cli import COMMANDS, EXTENDED, TAILBOUND, _grid, _kinded, _made

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _render(key, entry):
    """A key of a config table as the README's key table writes it."""
    _, domain, *default = entry
    text = f"`{key}`"
    if domain is EXTENDED:
        text += " (±inf)"
    if default and default[0] is None:
        text += " (optional)"
    elif default:
        text += f" = {json.dumps(default[0])}"
    return text


def schema_rows():
    """One README row per config table: a subcommand's (one per experiment
    for `tailbound`), and each kind's of a nested object, named by the
    dotted key that holds it."""
    rows, seen = [], set()

    def visit(name, kind, table):
        if (name, kind) in seen:
            return
        seen.add((name, kind))
        keys = ", ".join(_render(k, e) for k, e in table.items())
        rows.append(f"| `{name}` | {f'`{kind}`' if kind else ''} | "
                    f"{keys or '(none)'} |")
        for key, (read, domain, *_) in table.items():
            path = key if name in COMMANDS else f"{name}.{key}"
            if read in (_made, _kinded):
                for sub, (_, sub_table) in domain["kinds"].items():
                    visit(path, sub, sub_table)
            elif read is _grid:
                visit(path, None, domain)

    for command, (_, read, schema) in COMMANDS.items():
        if read is _kinded:
            for kind, (_, table) in schema["kinds"].items():
                visit(command, kind, table)
        else:
            visit(command, None, schema)
    return rows


def test_key_table_matches_the_config_schema():
    # Every key, default and extended-real (±inf) field of every config
    # table is in README's key table, as one row per table.
    text = README.read_text()
    missing = [row for row in schema_rows() if row not in text.splitlines()]
    assert not missing, "\n".join(missing)


def test_law_table_matches_the_config_schema():
    # The law table's yes/no columns say which law kinds each command
    # reads: every kind for cramer, the sampled kinds for Monte Carlo.
    tables = {"cramer": COMMANDS["cramer"][2]["law"][1],
              "tailbound": TAILBOUND["kinds"]["mean_tail"][1]["law"][1],
              "saa": COMMANDS["saa"][2]["law"][1]}
    lines = README.read_text().splitlines()
    for kind in tables["cramer"]["kinds"]:
        row = next(line for line in lines if line.startswith(f"| `{kind}` |"))
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[-3:] == ["yes" if kind in t["kinds"] else "no"
                              for t in tables.values()], row


def _printed(cell, value):
    """Whether a value cell of the constants table prints ``value``: a
    number, 2^k, a count with thousands commas, or the leading digits of
    the value followed by "..."."""
    if cell.endswith("..."):
        return repr(value).startswith(cell[:-3])
    base, _, power = cell.partition("^")
    if power:
        return value == int(base) ** int(power)
    return value == float(cell.replace(",", ""))


def test_constants_table_matches_the_modules():
    # Every row names a module constant of sanovdual and prints its value.
    lines = README.read_text().splitlines()
    start = lines.index("| constant | value | what it sets |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([c.strip() for c in line.strip("|").split("|")][:2])
    assert rows
    for name, cell in rows:
        module, attr = name.strip("`").split(".")
        value = getattr(importlib.import_module(f"sanovdual.{module}"), attr)
        assert _printed(cell, value), (name, cell, value)
