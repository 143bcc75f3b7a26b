"""Layout guard: every top-level name in src/sanovdual is reachable from the
CLI, so code that only tests use lives in tests/.

The walk starts at ``cli.main`` and ``cli.COMMANDS`` and follows every name
a reached definition reads: local top-level functions, classes and
module-level aliases, ``from .x import y as z`` imports and attributes of
imported sibling modules (``mc.saa_run``).  A reached class brings its
whole body along.
"""

import ast
import importlib.util
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sanovdual"

ALLOWED = {
    # perfbench/tracer.py reads it; ROADMAP item 1 deletes it
    "spaces.compositions",
    # perfbench/tracer.py reads it; ROADMAP item 1 deletes it
    "cramer.plus_power_moment",
    # perfbench/tracer.py reads it; ROADMAP item 1 deletes it
    "montecarlo.ParetoSampler",
    # perfbench/tracer.py reads it; ROADMAP item 1 deletes it
    "montecarlo.StudentTSampler",
    # perfbench/tracer.py reads it; ROADMAP item 1 deletes it
    "montecarlo.LogNormalSampler",
    # perfbench/tracer.py reads it; ROADMAP item 1 deletes it
    "montecarlo.FiniteSampler",
    # perfbench/tracer.py reads it; ROADMAP item 1 deletes it
    "optim.bisect_nonincreasing",
    # perfbench/tracer.py reads it; ROADMAP item 1 deletes it
    "montecarlo.rep_rng",
}


def _is_alias(value) -> bool:
    """A name, attribute, ``A | B`` union or ``Union[...]`` of them."""
    if isinstance(value, (ast.Name, ast.Attribute)):
        return True
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.BitOr):
        return _is_alias(value.left) and _is_alias(value.right)
    if isinstance(value, ast.Subscript):
        return _is_alias(value.value)
    return False


def _scan():
    """Per module: its top-level definitions (name -> node) and its
    bindings (local name -> ("def" | "name" | "module", module, name))."""
    defs, binds = {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        d, b = {}, {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                d[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if _is_alias(node.value) or target.id == "COMMANDS":
                            d[target.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:      # from . import dp
                        kind = "module" if (SRC / f"{alias.name}.py").exists() \
                            else "name"
                        b[local] = (kind, "__init__" if kind == "name"
                                    else alias.name, alias.name)
                    else:
                        b[local] = ("name", node.module, alias.name)
        for name in d:
            b[name] = ("def", mod, name)
        defs[mod], binds[mod] = d, b
    return defs, binds


def _resolve(binds, mod, name, seen=()):
    """The (module, name) definition a binding stands for, or a module."""
    kind, target_mod, target = binds[mod][name]
    if kind in ("def", "module"):
        return kind, target_mod, target
    if (target_mod, target) in seen or target not in binds.get(target_mod, {}):
        return None
    return _resolve(binds, target_mod, target, seen + ((target_mod, target),))


def reachable() -> set[str]:
    defs, binds = _scan()
    todo = [("cli", "main"), ("cli", "COMMANDS")]
    seen = set()
    while todo:
        mod, name = todo.pop()
        if (mod, name) in seen:
            continue
        seen.add((mod, name))
        for node in ast.walk(defs[mod][name]):
            refs = []
            if isinstance(node, ast.Name):
                refs.append((mod, node.id))
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in binds[mod]:
                hit = _resolve(binds, mod, node.value.id)
                if hit is not None and hit[0] == "module":
                    refs.append((hit[1], node.attr))
            for ref_mod, ref in refs:
                if ref not in binds.get(ref_mod, {}):
                    continue
                hit = _resolve(binds, ref_mod, ref)
                if hit is not None and hit[0] == "def":
                    todo.append(hit[1:])
    return {f"{mod}.{name}" for mod, name in seen}


def test_every_src_name_is_reachable_from_the_cli():
    defs, _ = _scan()
    every = {f"{mod}.{name}" for mod, d in defs.items() for name in d}
    unreachable = every - reachable()
    assert unreachable == ALLOWED, (
        f"only tests use: {sorted(unreachable - ALLOWED)}; "
        f"allowlisted but reachable: {sorted(ALLOWED - unreachable)}")


def test_risk_is_a_module():
    import sanovdual
    import sanovdual.risk as R
    assert isinstance(R, types.ModuleType)
    assert isinstance(sanovdual.risk, types.ModuleType)


def test_tracer_finds_every_name_it_reads():
    # perfbench/tracer.py patches sanovdual functions by name; a deleted
    # name would break ``perfbench/run.py --trace 1`` and nothing else.
    import sanovdual.cli  # noqa: F401  (imports every traced module)
    from sanovdual import cramer, optim, penalties, risk
    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    modules = [m for name, m in sys.modules.items()
               if name == "sanovdual" or name.startswith("sanovdual.")]
    before = [dict(vars(m)) for m in modules]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        # The alias bisect_nonincreasing reaches every root-finder caller.
        solver = optim.__dict__["bisect_nonincreasing"]
        assert risk.newton_nonincreasing is solver
        assert cramer.newton_nonincreasing is solver
        assert penalties.newton_nonincreasing is solver
    finally:
        tracer.uninstall()
    for m, names in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in names.items())
