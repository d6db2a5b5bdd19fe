"""Static checks on the source of the dsx package."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "dsx")
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_no_module_imports_random():
    # every dsx verdict is exact and deterministic; sampling belongs in
    # the tests
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert "random" not in [n.split(".")[0] for n in names], path


def test_the_cli_loads_openssl_only_for_certificates():
    # hashlib loads OpenSSL (3.6 MB resident); only the certificate
    # digests need it, so a moore or homology run never pays for it
    import subprocess
    import sys
    code = ("import sys, dsx.cli\n"
            "assert '_hashlib' not in sys.modules, 'hashlib was imported'\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.abspath(os.path.join(SRC, os.pardir)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_no_module_keeps_a_process_wide_cache():
    # a memoized function keeps what one build made for the life of the
    # process, so a later build's speed and memory would depend on it
    import importlib
    import inspect
    cached = []
    for path in MODULES:
        name = "dsx." + os.path.basename(path)[:-3]
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            bound = [(attr, obj)]
            if inspect.isclass(obj):
                bound += [(f"{attr}.{m}", v) for m, v in vars(obj).items()]
            cached += [f"{name}.{label}" for label, fn in bound
                       if hasattr(fn, "cache_info")]
    assert cached == []


def test_a_symmetric_power_leaves_nothing_behind():
    # build P^3 of the one-cell S^2 and drop it: every table the build
    # made goes with it
    import subprocess
    import sys
    code = ("import gc, tracemalloc\n"
            "from dsx import DeltaSet, symmetric_power_of\n"
            "S2 = DeltaSet({2: ['z']}, {'z': (None,) * 3},\n"
            "              sort_keys={'z': (0,)}, based=True)\n"
            "tracemalloc.start()\n"
            "built = symmetric_power_of(S2, 3)\n"
            "assert built[0].n_cells() > 1\n"
            "del built\n"
            "gc.collect()  # which also empties the interpreter's free lists\n"
            "left = tracemalloc.get_traced_memory()[0]\n"
            "assert left < 100_000, f'{left} bytes left behind'\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.abspath(os.path.join(SRC, os.pardir)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
