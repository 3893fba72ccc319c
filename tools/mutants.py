"""One-operator mutation sweep of cosrel modules against the five check suites.

    PYTHONPATH=src python tools/mutants.py lattice deformation

Each mutant of a function in the named modules swaps + and -, or * and /, or
drops a unary minus.  It runs `run_suite("all", 0, {"grids": (5, 9)})` in a
fresh process with the mutated module loaded in place of the original.  A
mutant is killed when a check fails, an error when the run raises or times
out, and a survivor when every check passes.  Survivors and errors are printed
with their outcome, then one count line per module.  Two mutants run at a time.
"""

import ast
import concurrent.futures
import importlib.util
import pathlib
import subprocess
import sys
import tempfile

SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}

#: the child: load the mutated file as cosrel.<module>, run every suite, print the outcome
CHILD = """
import importlib.util, sys
name, path = sys.argv[1:]
spec = importlib.util.spec_from_file_location("cosrel." + name, path)
module = sys.modules["cosrel." + name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
from cosrel.suites import run_suite
checks = [c for rep in run_suite("all", 0, {"grids": (5, 9)}) for c in rep.checks]
failed = [c.check_id for c in checks if not c.passed]
print(f"failed {' '.join(failed)}" if failed else f"passed all {len(checks)} checks")
"""


def sites(tree):
    """(function name, line, description, node) of every mutable operator inside a function,
    named by its innermost function, in source order."""
    found = {}
    for fn in ast.walk(tree):    # outer functions first, so an inner one overwrites its nodes
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
                    swap = f"{type(node.op).__name__} -> {SWAP[type(node.op)].__name__}"
                    found[id(node)] = (fn.name, node.lineno, swap, node)
                elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                    found[id(node)] = (fn.name, node.lineno, "drop unary minus", node)
    return sorted(found.values(), key=lambda site: (site[3].lineno, site[3].col_offset))


class Mutate(ast.NodeTransformer):
    def __init__(self, target):
        self.target = target

    def visit(self, node):
        node = self.generic_visit(node)
        if node is not self.target:
            return node
        if isinstance(node, ast.UnaryOp):
            return node.operand
        node.op = SWAP[type(node.op)]()
        return node


def parse(name):
    """The syntax tree of the cosrel module name, from the cosrel on the import path."""
    return ast.parse(pathlib.Path(importlib.util.find_spec(f"cosrel.{name}").origin).read_text())


def run(name, index):
    """The outcome line of the name module's index-th mutant (None: the unmutated module)."""
    tree = parse(name)
    if index is not None:
        tree = Mutate(sites(tree)[index][3]).visit(tree)
    with tempfile.NamedTemporaryFile("w", suffix=".py") as fh:
        fh.write(ast.unparse(tree))
        fh.flush()
        try:
            proc = subprocess.run([sys.executable, "-c", CHILD, name, fh.name],
                                  capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            return "error: timed out"
    if proc.returncode:
        return "error: " + (proc.stderr.strip().splitlines() or ["exit %d" % proc.returncode])[-1]
    return proc.stdout.strip()


def main(names):
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        for name in names:
            clean = run(name, None)
            if not clean.startswith("passed"):
                sys.exit(f"{name}: the unmutated module does not pass: {clean}")
            found = sites(parse(name))
            outcomes = list(pool.map(lambda i: run(name, i), range(len(found))))
            for (fn, line, what, _), outcome in zip(found, outcomes):
                if not outcome.startswith("failed"):
                    print(f"{name}.py:{line} {fn}: {what}: {outcome}")
            killed = sum(o.startswith("failed") for o in outcomes)
            errors = sum(o.startswith("error") for o in outcomes)
            print(f"{name}: {len(found)} mutants, {killed} killed, {errors} errors, "
                  f"{len(found) - killed - errors} survivors")


if __name__ == "__main__":
    main(sys.argv[1:] or sys.exit(__doc__))
