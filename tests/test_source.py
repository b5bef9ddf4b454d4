"""Source-level checks on the package."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "codesync"


def test_no_bare_asserts_in_package():
    """``python -O`` strips ``assert``; invariants must raise InternalInvariantError."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare asserts: {found}"


def test_only_the_kernels_raise_the_subset_cap():
    """Searches get their cap from ``subset_bfs`` or ``layered_search``; the
    memoized families re-check a smaller cap in ``_context_families``."""
    raisers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                exc = node.exc if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id == "SubsetCapExceeded":
                    raisers.add(f"{path.stem}.{func.name}")
    assert raisers == {
        "automata.subset_bfs",
        "automata.layered_search",
        "synchrony._context_families",
    }


def test_one_function_builds_the_experiment_reports():
    """The R and C sweeps share `experiments._sweep`, the only place a report is made."""
    builders = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "ExperimentReport"
                ):
                    builders.add(f"{path.stem}.{func.name}")
    assert builders == {"experiments._sweep"}


def test_internal_invariant_errors_carry_a_payload():
    """Every ``InternalInvariantError`` raised in the package passes a message
    and a nonempty details payload, so a failure reproduces its run."""
    raises, missing = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            call = exc if isinstance(exc, ast.Call) else None
            name = call.func if call else exc
            if not (isinstance(name, ast.Name) and name.id == "InternalInvariantError"):
                continue
            raises += 1
            args = [*call.args, *(k.value for k in call.keywords)] if call else []
            details = args[1] if len(args) > 1 else None
            if details is None or isinstance(details, ast.Constant) or (
                isinstance(details, ast.Dict) and not details.keys
            ):
                missing.append(f"{path.name}:{node.lineno}")
    assert raises > 20
    assert not missing, f"InternalInvariantError without a payload: {missing}"


def test_the_test_extra_declares_every_third_party_test_import():
    """A module imported under ``tests/`` is in the standard library, local
    (the package or a test module) or named in pyproject's ``test`` extra."""
    # a text match, since tomllib is not in Python 3.10's standard library
    extra = re.search(r"^test = \[(.*)\]$", (ROOT / "pyproject.toml").read_text(), re.M)
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in re.findall(r'"([^"]+)"', extra.group(1))
    }
    local = {"codesync"} | {path.stem for path in TESTS.glob("*.py")}
    imported = set()
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert "hypothesis" in third_party and "pytest" in third_party
    assert third_party <= declared, f"missing from the test extra: {sorted(third_party - declared)}"


def test_only_bounded_queries_take_a_pair_budget():
    """A pair budget bounds a query its caller asks; a search that must
    produce an answer (a sweep, an encoding, ``experiment``) runs without one."""
    import argparse

    from codesync.cli import build_parser

    takers = set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = (*func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs)
                if "budget" in {a.arg for a in params}:
                    takers.add(f"{path.stem}.{func.name}")
    assert takers == {
        "synchrony.shortest_sync_pair",
        "synchrony._pair_search",
        "synchrony._one_sided_pair",
        "reduction.synchronizing_pair_via_reduction",
        "experiments.verify_main_bound",
    }
    verbs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {
        name for name, p in verbs.choices.items() if any("--budget" in a.option_strings for a in p._actions)
    } == {"analyze", "syncpair", "reduce"}


def test_only_the_dispatchers_call_the_pair_searches():
    """``shortest_sync_pair`` is the one language-level entry to the least-pair
    searches; besides it only the C sweep's evaluator, on a pool view, and the
    uniform encoding, which asks for a letter change, call one directly."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):  # nested functions count as their enclosing one
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in ("_pair_search", "_one_sided_pair"):
                        callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {
        "synchrony.shortest_sync_pair",
        "experiments.estimate_C",
        "encoding.uniform_sync_encoding",
    }
