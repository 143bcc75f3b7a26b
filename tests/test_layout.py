"""Layout guard: every top-level name in src/sanovdual, and every method
and property of a reached class, is reachable from the CLI, so code that
only tests use lives in tests/; and every keyword option of a src/
function has a src/ caller that sets it, so a value that only one caller
uses is a constant.

The walk starts at ``cli.main`` and ``cli.COMMANDS`` and follows every name
a reached definition reads: local top-level functions, classes,
module-level aliases and dict registries (``COMMANDS``), ``from .x import
y as z`` imports and attributes of imported sibling modules
(``mc.saa_run``).  A reached class brings along its bases, decorators and
class-level statements, its dunder methods, and each method or property
whose name reached code reads as an attribute (``law.expect``); methods
are matched by name, not by type.  Dataclass fields are not members.
"""

import ast
import importlib.util
import math
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
    "dp.backward_value_symmetric",
    # perfbench/tracer.py reads it; ROADMAP item 1 deletes it
    "optim.golden_min",
    # perfbench/tracer.py reads it; the CLI's conjugate_pair checks once
    # and takes the unchecked _cumulant
    "cramer.cumulant",
    # perfbench/tracer.py reads it; the CLI's conjugate_pair checks once
    # and takes the unchecked _rate_function
    "cramer.rate_function",
    # README's quick tour, which tests/test_readme.py runs, calls it
    "spaces.Dist.uniform",
}

# Keyword options that no src/ call sets: (module.function, option).
OPTIONS_WITHOUT_CALLER = {
    # perfbench/worker.py and the tests call cli.main(argv)
    ("cli.main", "argv"),
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
    """Per module: its top-level definitions (name -> node), with each
    method of a class as "Class.method", and its bindings (local name ->
    ("def" | "name" | "module", module, name))."""
    defs, binds = {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        d, b = {}, {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                d[node.name] = node
                if isinstance(node, ast.ClassDef):
                    d.update((f"{node.name}.{item.name}", item)
                             for item in node.body
                             if isinstance(item, ast.FunctionDef))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if _is_alias(node.value) or \
                                isinstance(node.value, ast.Dict):
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
            if "." not in name:
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


def _own_nodes(node):
    """The nodes of a definition; a class's without its method bodies."""
    if not isinstance(node, ast.ClassDef):
        return ast.walk(node)
    return (n for part in (*node.bases, *node.decorator_list, *node.body)
            if not isinstance(part, ast.FunctionDef) for n in ast.walk(part))


def reachable() -> set[str]:
    defs, binds = _scan()
    todo = [("cli", "main"), ("cli", "COMMANDS")]
    seen, attrs = set(), set()
    while todo:
        while todo:
            mod, name = todo.pop()
            if (mod, name) in seen:
                continue
            seen.add((mod, name))
            for node in _own_nodes(defs[mod][name]):
                refs = []
                if isinstance(node, ast.Name):
                    refs.append((mod, node.id))
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                    if isinstance(node.value, ast.Name) and \
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
        # Members of the reached classes that reached code reads.
        for mod, d in defs.items():
            for name in d:
                cls, _, member = name.partition(".")
                if member and (mod, cls) in seen and (mod, name) not in seen \
                        and (member in attrs or member.startswith("__")):
                    todo.append((mod, name))
    return {f"{mod}.{name}" for mod, name in seen}


def test_every_src_name_is_reachable_from_the_cli():
    defs, _ = _scan()
    every = {f"{mod}.{name}" for mod, d in defs.items() for name in d}
    unreachable = every - reachable()
    assert unreachable == ALLOWED, (
        f"only tests use: {sorted(unreachable - ALLOWED)}; "
        f"allowlisted but reachable: {sorted(ALLOWED - unreachable)}")


def _options():
    """((module.function, option), callee name, position) for every option
    (a parameter with a default) of a src/ function or method; position is
    None for a keyword-only option, and a method's does not count self."""
    out = []

    def visit(node, mod, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, mod, child.name)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, mod, cls)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            if cls is not None and not static:
                positional = positional[1:]
            label = ".".join((mod, *([cls] if cls else []), child.name))
            callee = cls if child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                out.append(((label, arg.arg), callee, i))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.append(((label, arg.arg), callee, None))
            visit(child, mod, None)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return out


def _calls():
    """Callee name -> (positional count, keyword names) per src/ call.  A
    ``*args`` may fill any position from its own on, and a ``**kwargs``
    (keyword None) any keyword."""
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append(
                (math.inf if starred else len(node.args),
                 {k.arg for k in node.keywords}))
    return calls


def test_every_option_has_a_src_caller():
    # An option that every src/ call leaves at its default is a constant
    # with extra steps; callees are matched by name, not by type.
    calls = _calls()
    unset = set()
    for option, callee, position in _options():
        if not any(None in keywords or option[1] in keywords or
                   (position is not None and count > position)
                   for count, keywords in calls.get(callee, ())):
            unset.add(option)
    assert unset == OPTIONS_WITHOUT_CALLER, (
        f"no src/ caller sets: {sorted(unset - OPTIONS_WITHOUT_CALLER)}; "
        f"allowlisted but set: {sorted(OPTIONS_WITHOUT_CALLER - unset)}")


def test_a_state_space_is_its_size():
    # A finite space is its number of states m: src/ defines no space type
    # and no function takes a ``space`` beside the law, spec or F that
    # already fixes m.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name == "FiniteSpace":
                found.append(f"{path.name}:{node.lineno} class FiniteSpace")
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)]
                if "space" in names:
                    found.append(f"{path.name}:{node.lineno} parameter space")
    assert not found, found


def test_risk_is_a_module():
    import sanovdual
    import sanovdual.risk as R
    assert isinstance(R, types.ModuleType)
    assert isinstance(sanovdual.risk, types.ModuleType)


def test_tracer_finds_every_name_it_reads():
    # perfbench/tracer.py patches sanovdual functions by name; a deleted
    # name would break ``perfbench/run.py --trace 1`` and nothing else.
    import sanovdual.cli  # noqa: F401  (imports every traced module)
    from sanovdual import cramer, optim, penalties
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
        assert cramer.newton_nonincreasing is solver
        assert penalties.newton_nonincreasing is solver
    finally:
        tracer.uninstall()
    for m, names in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in names.items())


def test_no_type_switch_on_a_penalty_family():
    # Each penalty family owns its operations as methods, so neither
    # penalties.py nor risk.py branches on a family's type outside the
    # family classes themselves.
    from sanovdual import penalties
    families = {name for name, obj in vars(penalties).items()
                if isinstance(obj, type) and
                issubclass(obj, penalties.AlphaSpec)}
    found = []
    for mod in ("penalties", "risk"):
        tree = ast.parse((SRC / f"{mod}.py").read_text())
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name in families
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and
                    isinstance(node.func, ast.Name) and
                    node.func.id == "isinstance" and len(node.args) == 2):
                continue
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if named & families and id(node) not in inside:
                found.append(f"{mod}.py:{node.lineno}")
    assert not found, f"isinstance on a penalty family at {found}"


def test_no_type_switch_on_a_law_family():
    # Each law family owns its expectation, dimension, moment check and
    # sampler, and each martingale increment family its exact tail, so
    # neither cramer.py, montecarlo.py nor cli.py imports the quadrature or
    # branches on a family's type, whether by its name or by an alias of it.
    from sanovdual import cli, cramer, laws, montecarlo
    classes = {obj for obj in vars(laws).values()
               if isinstance(obj, type) and obj.__module__ == laws.__name__}
    classes |= set(montecarlo.INCREMENT_FAMILIES.values())
    found = []
    for module in (cramer, montecarlo, cli):
        mod = module.__name__.rsplit(".", 1)[1]
        families = {name for name, obj in vars(module).items()
                    if isinstance(obj, type) and obj in classes} | \
            {cls.__name__ for cls in classes}
        for node in ast.walk(ast.parse((SRC / f"{mod}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and "quadrature" in \
                    {node.module, *(alias.name for alias in node.names)}:
                found.append(f"{mod}.py:{node.lineno} imports quadrature")
            if not (isinstance(node, ast.Call) and
                    isinstance(node.func, ast.Name) and
                    node.func.id == "isinstance" and len(node.args) == 2):
                continue
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if named & families:
                found.append(f"{mod}.py:{node.lineno} isinstance on a family")
    assert not found, found


def test_one_form_per_concept():
    # An empirical law is a finite law of equal weights, a symmetric field
    # is its array of values by type class, and a martingale increment
    # family's log-mgf comes only from its phi_derivatives.
    from sanovdual import montecarlo
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name in \
                    ("SymmetricField", "EmpiricalLaw", "_AtomLaw"):
                found.append(f"{path.name}:{node.lineno} class {node.name}")
    for family in montecarlo.INCREMENT_FAMILIES.values():
        if any("phi" in vars(cls) for cls in family.__mro__):
            found.append(f"{family.__name__}.phi")
    assert not found, found
