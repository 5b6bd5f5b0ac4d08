"""Every function in src/ is reached by a run of the command line, apart from
a named few kept for a stated reason.  A profile hook records each function
called while ``harness.main`` runs the default suite at genus 2 to 6 (JSON
with timings, and text) and one curve file with a tolerance override.  It
runs in a fresh interpreter: a function behind a warm ``lru_cache`` is not
called again."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thomae_lab"

# "module.qualified.name" -> why no run reaches it
UNREACHED = {
    # traced by name in bench/layers.py until ROADMAP item 10 removes them
    "characteristics.char_of_set": "bench-traced characteristics.* entry point",
    "characteristics.HalfCharacteristic.eps_prime": "bench tracer's class key",
    "context.CurveContext.const": "bench-traced context.* lookup",
    "context.CurveContext.deriv": "bench-traced context.* lookup",
    "theta.ThetaEngine.theta": "bench-traced theta.const.* entry point",
    "theta.ThetaEngine.theta_deriv": "bench-traced theta.deriv.* entry point",
    "theta.ThetaEngine._check": "argument check of the two entry points above",
    "harness.Report.to_json": "bench/worker.py's report digest; the CLI writes json_slabs",
    # record rows: a run and its reports read the tables' columns
    "harness.Report.records": "bench/worker.py and tests read records as rows",
    "relations.RecordTable.__iter__": "bench/worker.py and tests read records as rows",
    "relations.RecordTable.__getitem__": "the text report's failed lines and tests",
    "relations.RecordTable.rows": "the text report's failed lines, bench/worker.py and tests",
    "relations.VerificationRecord.as_dict": "bench/worker.py and tests",
    "relations.VerificationRecord.passed": "tests",
    "characteristics.Partition.__str__": "only an error message prints a partition",
    "characteristics.HalfCharacteristic.__str__": "only an error message prints a characteristic",
    "characteristics._char": "called by char_of_set above and by the coset error message",
    # the Abel-map cross-check of the characteristic table (ROADMAP item 4(c))
    "periods.abel_images": "Abel-map oracle",
    "periods.halfperiod_residual": "Abel-map oracle",
    "periods.branch_point_char_residuals": "Abel-map oracle",
}

PROBE = r"""
import contextlib, io, json, sys, tempfile
from pathlib import Path

package = sys.argv[1]
reached = set()


def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(hook)
from thomae_lab.harness import main

codes = []
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    for g in range(2, 7):
        base = ["verify", "--genus", str(g), "--seed", "1", "--cap", "50"]
        codes.append(main(base + ["--format", "json", "--timings"]))
        codes.append(main(base + ["--format", "text"]))
    curve = Path(tmp) / "curve.json"
    curve.write_text(json.dumps({"label": "probe", "genus": 3,
                                 "branch_points": [-3.1, -1.9, -0.4, 0.8, 2.2, 3.7, 5.1]}))
    codes.append(main(["verify", "--curve", str(curve), "--cap", "50",
                       "--tol-family", "GRAD2=1e-7"]))
sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def _defs(path: Path) -> dict:
    """(file, first line) -> qualified name of every def in a module; the
    first line is a decorator's, as in the function's code object."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = prefix + child.name
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")

    visit(ast.parse(path.read_text()), path.stem + ".")
    return out


def test_every_function_in_src_is_reached_by_a_run():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(PACKAGE)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 11
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs.update(_defs(path.resolve()))
    reached = {tuple(item) for item in result["reached"]}
    unreached = sorted(name for key, name in defs.items() if key not in reached)
    unlisted = [name for name in unreached if name not in UNREACHED]
    assert not unlisted, f"functions no run reaches: {unlisted}"
    # an entry leaves the list once a run reaches it, or the function goes
    stale = sorted(set(UNREACHED) - set(unreached))
    assert not stale, f"listed as unreached, but reached or gone: {stale}"


def _found(match) -> list[str]:
    """"module:qualified.name" of the function (or module) around every node
    of src/ that ``match`` accepts, once per node."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}{'.' if where[-1] != ':' else ''}{child.name}"
            elif match(child):
                found.append(where)
            visit(child, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}:")
    return found


def _called(node, *names) -> bool:
    """A call of a function or method with one of these names."""
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in names


def test_records_are_built_only_by_make_records():
    # one function owns the record table, its binding format and the
    # precondition override; a record row is only ever a view of a table
    assert _found(lambda node: _called(node, "RecordTable")) == ["relations:make_records"]
    assert _found(lambda node: _called(node, "VerificationRecord")) == ["relations:RecordTable.rows"]


def _is(node, op, right=None) -> bool:
    """A binary operation ``op``, with the constant ``right`` on its right if given."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, op) and (
        right is None or isinstance(node.right, ast.Constant) and node.right.value == right)


def test_masks_and_the_parity_rule_have_one_implementation_each():
    # sum(1 << i for i in s) builds a mask only in indexsets.index_mask
    def builds_mask(node):
        arg = node.args[0] if _called(node, "sum") and node.args else None
        return (isinstance(arg, (ast.GeneratorExp, ast.ListComp)) and _is(arg.elt, ast.LShift)
                and isinstance(arg.elt.left, ast.Constant) and arg.elt.left.value == 1)

    # a size's parity is compared with (g + 1) % 2 only in characteristics.completed_part
    def compares_parity(node):
        sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
        return any(_is(x, ast.Mod, 2) and _is(x.left, ast.Add, 1) for x in sides)

    assert _found(builds_mask) == ["indexsets:index_mask"]
    assert _found(compares_parity) == ["characteristics:completed_part"]
