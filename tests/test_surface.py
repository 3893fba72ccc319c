"""Every public top-level name in src/cosrel is reached from the CLI or the benchmark,
and no public function takes a tolerance.

The reference graph is name-level: a top-level definition reaches every name it
reads, every name it imports with `from ... import`, and every attribute it reads
off a cosrel module.  An attribute of anything else (`np.exp`, a dataclass
field such as `rep.energy_momentum`) reaches nothing, so a name collision
cannot keep a library function alive.  The roots are `cli.main`, the names that
`bench/run.py` and `bench/workloads.py` mention, and the functions the
benchmark's tracer wraps.  A public name that no root reaches is surface that
no check, command or benchmark reports on.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from tracing import TARGETS  # noqa: E402


#: The library's module names: an attribute counts as a reference only on one of these.
_MODULES = {path.stem for path in (ROOT / "src" / "cosrel").glob("*.py")}


def _mentions(node) -> set:
    """The names node reads: loaded names, `from ... import` names and attributes of a
    cosrel module (`weyssenhoff.split_momentum`, not `np.exp` or `rep.energy_momentum`)."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.ImportFrom):
            found.update(alias.name for alias in n.names)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in _MODULES):
            found.add(n.attr)
    return found


def _defined_names(node) -> list:
    """The top-level names a module-body statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _definitions():
    """{name: the names its definitions mention} and the public names, as module.name."""
    edges, public = {}, set()
    for path in sorted((ROOT / "src" / "cosrel").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for name in _defined_names(node):
                edges.setdefault(name, set()).update(_mentions(node))
                if not name.startswith("_"):
                    public.add(f"{path.stem}.{name}")
    return edges, public


def _reached(edges, roots) -> set:
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(edges.get(name, ()))
    return seen


def _roots() -> set:
    roots = {"main"} | {part for t in TARGETS for part in t.attr.split(".")}
    for script in ("run.py", "workloads.py"):
        roots |= _mentions(ast.parse((ROOT / "bench" / script).read_text()))
    return roots


def test_every_public_name_is_reached():
    edges, public = _definitions()
    reached = _reached(edges, _roots())
    assert sorted(n for n in public if n.split(".")[1] not in reached) == []


def test_every_top_level_name_is_read():
    """Every top-level definition in src/cosrel, private ones included, is read by some
    other statement of src/cosrel or bench/, or named by the benchmark's tracer: a
    helper whose last caller was deleted goes with it.  Dunder names are read by tools."""
    read = {part for t in TARGETS for part in t.attr.split(".")}
    defined = set()
    paths = sorted((ROOT / "src" / "cosrel").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            read |= _mentions(node) - set(_defined_names(node))
            if path.parent.name == "cosrel":
                defined |= {f"{path.stem}.{name}" for name in _defined_names(node)}
    assert sorted(n for n in defined
                  if n.split(".")[1] not in read and not n.split(".")[1].startswith("__")) == []



def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def test_no_public_function_takes_a_tolerance():
    """Each gate's threshold is a constant of the module that applies it: no public
    function or method of a public class has a parameter whose name ends in `tol`."""
    found = []
    for path in sorted((ROOT / "src" / "cosrel").glob("*.py")):
        body = ast.parse(path.read_text()).body
        functions = [(node.name, node) for node in body if isinstance(node, ast.FunctionDef)]
        functions += [(f"{cls.name}.{node.name}", node) for cls in body
                       if isinstance(cls, ast.ClassDef) and _is_public(cls.name)
                       for node in cls.body if isinstance(node, ast.FunctionDef)]
        for name, node in functions:
            if not _is_public(name.rsplit(".", 1)[-1]):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            found += [f"{path.stem}.{name}({p.arg})" for p in params if p.arg.endswith("tol")]
    assert found == []
