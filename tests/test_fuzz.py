"""Seeded single mutations of the fixtures through the CLI boundary.

Each case deletes one key or list entry of a fixture, or gives one value a
wrong type, sign or size, and runs the result through `solve --t-order 6`,
`polygon` and `estimate --t-order 12`.  Every command must exit 0, 1 or 2
without an uncaught exception, and an exit 2 must write exactly one JSON
object to stderr.  The drawn sizes are capped at 50, so every case stays
small.  The module needs only the standard library, so it also runs
without pytest:

    PYTHONPATH=src python tests/test_fuzz.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from momentpde import cli

PROBLEMS = Path(__file__).parent / "problems"
SEED = 2110
CASES = 200
CAP = 50
COMMANDS = (("solve", "--t-order", "6"), ("polygon",),
            ("estimate", "--t-order", "12"))


def _paths(node, path=()):
    """Every (path, value) below node, node itself first."""
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _wrong(rng: random.Random, value):
    """value with a wrong type, sign or size."""
    kind = rng.choice(("type", "sign", "size"))
    if kind == "type":
        return rng.choice(("x", [1], {}, 1.5, None, True, 7, "1/0"))
    if kind == "sign":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return -value if value else -1
        return "-" + value if isinstance(value, str) else -1
    size = rng.randint(0, CAP)
    if isinstance(value, list):
        return [rng.choice(value) if value else size] * rng.randint(0, 4)
    return str(size) if isinstance(value, str) else size


def mutation(rng: random.Random, fixtures: dict) -> tuple[str, str, dict]:
    """(fixture, description, mutated document): a top-level section drawn
    first, then one node within it, so every section is hit about as
    often as every other."""
    name = rng.choice(sorted(fixtures))
    doc = json.loads(json.dumps(fixtures[name]))
    section = rng.choice(sorted(doc))
    path, value = rng.choice(list(_paths(doc[section], (section,))))
    *parents, last = path
    parent = doc
    for key in parents:
        parent = parent[key]
    if rng.random() < 0.25:
        del parent[last]
        return name, f"delete {list(path)}", doc
    parent[last] = _wrong(rng, value)
    return name, f"set {list(path)} = {parent[last]!r}", doc


def run(*argv) -> tuple[int, str]:
    """cli.main's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def test_mutated_fixtures_exit_cleanly():
    fixtures = {path.stem: json.loads(path.read_text(encoding="utf-8"))
                for path in PROBLEMS.glob("*.json")}
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "problem.json"
        for case in range(CASES):
            name, what, doc = mutation(rng, fixtures)
            problem.write_text(json.dumps(doc), encoding="utf-8")
            for command, *flags in COMMANDS:
                label = f"case {case}: {name}, {what}, {command} {flags}"
                try:
                    code, err = run(command, problem, *flags)
                except Exception as exc:  # an uncaught exception fails
                    raise AssertionError(f"{label}: {exc!r}") from exc
                assert code in (0, 1, 2), (label, code)
                if code == 2:
                    assert isinstance(json.loads(err), dict), (label, err)


if __name__ == "__main__":
    test_mutated_fixtures_exit_cleanly()
    print(f"{CASES} mutations exit cleanly")
