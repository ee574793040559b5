"""Package metadata and source hygiene that pytest would otherwise never touch."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
TRACER = ROOT / "bench" / "tracer.py"
JOBS = ROOT / "bench" / "jobs.py"
CHILD = ROOT / "bench" / "child.py"
SOURCES = sorted((ROOT / "src" / "barmc").glob("*.py"))


def test_every_console_script_target_imports():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_every_benchmark_tracer_hook_resolves():
    """A renamed hooked or counted symbol would otherwise surface only in
    the bench: the layer hooks, and the elementwise primitives the tracer
    counts (vector helpers in linalg, Scalar dunders, Field.__call__)."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.HOOKS and tracer.VECTOR_OPS and tracer.SCALAR_OPS
    for dotted in tracer.HOOKS:
        owner, name = tracer.resolve(dotted)
        assert callable(getattr(owner, name)), dotted
    linalg = tracer.layer_module("linalg")
    scalars = tracer.layer_module("scalars")
    for name in tracer.VECTOR_OPS:
        assert callable(vars(linalg).get(name)), name
    for name in tracer.SCALAR_OPS:
        assert callable(vars(scalars.Scalar).get(name)), name
    assert callable(vars(scalars.Field).get("__call__"))


# The counters bench/selftest.py requires on each workload: a refactor that
# routed these calls around their hooked names would otherwise pass here.
# ainfinity.residual_tuples counts per-tuple residuals, which only name a
# failure witness, so a correct certify pass reads 0 there.
POSITIVE_COUNTERS = {
    "koszul": ("linalg.eliminations", "linalg.subspace_builds",
               "linalg.span_queries", "bar.duals_built", "bar.dual_dim"),
    "gauge": ("mc.category_ops", "mc.candidates", "mc.homsets",
              "twisting.induced_maps", "twisting.algebra_maps"),
    "certify": ("ainfinity.tensor_builds", "ainfinity.tensor_entries",
                "transfer.splittings"),
}


@pytest.mark.parametrize("workload", ["koszul", "gauge", "certify"])
def test_every_benchmark_workload_runs_traced(workload):
    """One span-traced pass of the workload, as the benchmark runs it."""
    done = subprocess.run(
        [sys.executable, str(CHILD), "--workload", workload, "--seed", "1",
         "--mode", "spans"],
        capture_output=True, text=True, timeout=300, check=True)
    out = json.loads(done.stdout)
    assert [(job["job"], job["error"]) for job in out["jobs"]
            if job["error"]] == []
    metrics = out["metrics"]
    assert [c for c in POSITIVE_COUNTERS[workload] if not metrics[c]] == []
    if workload == "certify":
        assert metrics["ainfinity.residual_tuples"] == 0
    if workload != "gauge":
        # every mc counter reads 0 where no MC work runs; mc.self_s is a time
        assert [c for c in metrics if c.startswith("mc.")
                and not c.endswith("_s") and metrics[c]] == []


@pytest.mark.parametrize("workload", ["koszul", "gauge", "certify"])
def test_every_benchmark_workload_builds(workload):
    """The benchmark's imports and input builders run; the jobs do not."""
    spec = importlib.util.spec_from_file_location("bench_jobs", JOBS)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    plan = jobs.build(workload, 1)
    assert plan
    assert all(isinstance(name, str) and callable(thunk)
               for name, thunk in plan)


def _unread_locals(fn):
    """Names a function assigns in its own scope and never reads.

    Reads inside nested functions count, since closures see the
    enclosing locals; global and nonlocal declarations count as reads.
    """
    stores, loads = {}, set()

    def visit(node, own):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                if isinstance(child.ctx, ast.Load):
                    loads.add(child.id)
                elif own:
                    stores.setdefault(child.id, child.lineno)
            elif isinstance(child, (ast.Global, ast.Nonlocal)):
                loads.update(child.names)
            nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.Lambda, ast.ClassDef))
            visit(child, own and not nested)

    visit(fn, True)
    return [(line, name) for name, line in stores.items()
            if name not in loads and not name.startswith("_")]


def _dead_names(path):
    tree = ast.parse(path.read_text(), str(path))
    loads = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in loads | exported and not name.startswith("_"):
                    found.append("%s:%d unused import %s"
                                 % (path.name, node.lineno, name))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for line, name in _unread_locals(node):
                found.append("%s:%d local %s of %s is never read"
                             % (path.name, line, name, node.name))
    return found


def test_sources_have_no_unused_imports_or_unread_locals():
    """No linter ships with the toolchain; names starting with _ are exempt."""
    assert SOURCES
    found = [msg for path in SOURCES for msg in _dead_names(path)]
    assert found == []


# The identity checkers and the transfer recursion join the structure
# tables; the tuple replay lives in tests/oracles.py.
REPLAY_CALLS = {"stasheff_residual", "morphism_residual"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _callee(node):
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _replay_loops(path, replay_calls=REPLAY_CALLS):
    """Loops over product/iter_product that call one of replay_calls."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, COMPREHENSIONS):
                iters = [g.iter for g in node.generators]
            else:
                continue
            if not any(_callee(i) in ("product", "iter_product") for i in iters):
                continue
            calls = {_callee(n) for n in ast.walk(node)} & replay_calls
            if calls:
                found.append("%s:%d %s replays %s over a product"
                             % (path.name, node.lineno, fn.name,
                                ", ".join(sorted(calls))))
    return found


def test_identity_checks_do_not_replay_tuples():
    found = [msg for path in SOURCES for msg in _replay_loops(path)]
    assert found == []


# The twisted tables are read off the tensor algebra in one join per
# arity; sweeping every tuple of basis labels is what the oracles do.


def _label_sweeps(path):
    """Calls of product/iter_product with repeat= over some x.space.labels."""
    tree = ast.parse(path.read_text(), str(path))
    return ["%s:%d %s" % (path.name, node.lineno, ast.unparse(node))
            for node in ast.walk(tree)
            if _callee(node) in ("product", "iter_product")
            and any(k.arg == "repeat" for k in node.keywords)
            and any(isinstance(a, ast.Attribute) and a.attr == "labels"
                    and isinstance(a.value, ast.Attribute)
                    and a.value.attr == "space" for a in node.args)]


def test_twisted_tables_do_not_sweep_label_tuples():
    assert _label_sweeps(ROOT / "tests" / "oracles.py")
    assert _label_sweeps(ROOT / "src" / "barmc" / "twisting.py") == []


def test_mc_sets_are_not_found_by_sweeping_candidates():
    """MC(R) is lifted along the tower; the sweep is enumerate_mc_oracle."""
    path = ROOT / "src" / "barmc" / "mc.py"
    assert _replay_loops(path, {"mc_residual", "_residual_raw"}) == []


# Label-keyed systems go through SpanSolver; only linalg.py itself
# builds and eliminates an integer-indexed Matrix (in Complex.block).
MATRIX_CALLS = {"Matrix", "Elimination", "matrix_of_d"}


def _matrix_calls(path):
    tree = ast.parse(path.read_text(), str(path))
    return ["%s:%d calls %s" % (path.name, node.lineno, _callee(node))
            for node in ast.walk(tree) if _callee(node) in MATRIX_CALLS]


def test_only_linalg_builds_matrices():
    found = [msg for path in SOURCES if path.name != "linalg.py"
             for msg in _matrix_calls(path)]
    assert found == []


# One public name per constructor: a top-level function that only
# forwards its own parameters, in order, to a barmc class is a second
# name for that class.


def _docstring_free_body(fn):
    body = fn.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    return body


def _forwarded_names(call):
    """The argument names of call when each is a bare name, else None."""
    names = []
    for arg in call.args:
        if not isinstance(arg, ast.Name):
            return None
        names.append(arg.id)
    for kw in call.keywords:
        if kw.arg is None or not isinstance(kw.value, ast.Name) \
                or kw.value.id != kw.arg:
            return None
        names.append(kw.arg)
    return names


def _constructor_aliases(paths):
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    found = []
    for path, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = _docstring_free_body(fn)
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            if not isinstance(call, ast.Call) \
                    or not isinstance(call.func, ast.Name) \
                    or call.func.id not in classes:
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs]
            if _forwarded_names(call) == params:
                found.append("%s:%d %s is an alias of %s"
                             % (path.name, fn.lineno, fn.name, call.func.id))
    return found


def test_no_function_is_a_second_name_for_a_class():
    assert _constructor_aliases(SOURCES) == []


# S_N and the maps out of it are certified on the generators of S_N.
# DualTruncation writes its product from the word-degree sign
# (-1)^(|U||V|), so it is associative by construction, checks d^2 = 0
# once through its Complex, and checks the Leibniz rule on letters times
# words once per build.  A corepresenting map checks its letters and d on
# the generators per element; its products follow from the word signs.  A
# full word table goes through bar.first_dg_map_failure.  The all-pairs
# checks of S_N and of maps out of it, and the eager corepresenting table,
# live in tests/oracles.py.


def _calls_outside(path, cls, names):
    """Calls to names in path that are not inside the class cls."""
    tree = ast.parse(path.read_text(), str(path))
    inside = {id(node) for c in ast.walk(tree)
              if isinstance(c, ast.ClassDef) and c.name == cls
              for node in ast.walk(c)}
    return ["%s:%d calls %s" % (path.name, node.lineno, _callee(node))
            for node in ast.walk(tree)
            if _callee(node) in names and id(node) not in inside]


def test_only_the_dual_builds_a_complex_or_an_algebra_in_bar():
    """bar.py certifies S_N once: the Complex and the AInfAlgebra of S_N
    are built in DualTruncation, and nowhere else in the module."""
    path = ROOT / "src" / "barmc" / "bar.py"
    names = {"Complex", "AInfAlgebra"}
    assert _calls_outside(path, "DualTruncation", names) == []
    assert len(_calls_outside(path, None, names)) == 2  # one each, there


def _word_loops(node):
    """The loops and comprehension generators of node that run over .words."""
    if isinstance(node, ast.For):
        iters = [node.iter]
    elif isinstance(node, COMPREHENSIONS):
        iters = [g.iter for g in node.generators]
    else:
        return 0
    return sum(isinstance(i, ast.Attribute) and i.attr == "words"
               for i in iters)


def _nested_word_loops(path):
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            own = _word_loops(node)
            inner = sum(_word_loops(n) for n in ast.walk(node) if n is not node)
            if own and own + inner > 1:
                found.append("%s:%d %s nests two loops over .words"
                             % (path.name, node.lineno, fn.name))
    return found


def test_no_function_certifies_on_all_word_pairs():
    assert [msg for path in SOURCES for msg in _nested_word_loops(path)] == []


# The comparison reads H^0(S_N) off the tables of A (twisting.H0Presentation);
# it builds no S_N, and the Koszulness probe is no hypothesis of it.


def _imported_names(path):
    tree = ast.parse(path.read_text(), str(path))
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def test_the_comparison_does_not_import_the_koszul_probe():
    assert "koszul_probe" in _imported_names(ROOT / "tests" / "test_golden.py")
    imported = _imported_names(ROOT / "src" / "barmc" / "twisting.py")
    assert "SHatCohomology" in _imported_names(ROOT / "tests" / "oracles.py")
    for name in ("koszul_probe", "SHatCohomology", "_admissible_cohomology"):
        assert name not in imported, name
