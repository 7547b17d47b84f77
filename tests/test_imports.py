"""What the package imports.

Every name a module of the package imports is used in that module: a stdlib
``ast`` scan, so it needs no linter. ``__init__.py`` is exempt: its imports
are the public API. And a local run loads no third-party module but numpy:
the HTTP client comes in with the first ``RemoteSampler``.
"""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qals"

# perfbench's assert_untraced() reads these from qals.solver to show that solve calls
# neither; they go with perfbench's encode and decode wrappers (ROADMAP item 7)
READ_FROM_OUTSIDE = {"solver.py": {"encode", "decode"}}


def _imported(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert _imported(tree) - used == READ_FROM_OUTSIDE.get(path.name, set())


# solves with every local backend and a `qals gen`, then builds a RemoteSampler, which
# sends nothing until it samples; Cython's runtime modules, which numpy's extensions
# register, have no file and come from no package
LOCAL_RUN = """
import contextlib, io, json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import numpy as np
import qals
from qals import cli
from qals.harness import make_sampler

problem = qals.random_qubo(5, 0.5, (-1.0, 1.0), np.random.default_rng(0))
for selector in ("exact", "sa", "random"):
    qals.solve(problem, qals.complete_graph(5), make_sampler(selector), qals.QalsParams(i_max=5, seed=1))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["gen", "--n", "6", "--seed", "3"]) == 0
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
third_party = sorted(
    name for name in loaded - set(sys.stdlib_module_names) - {"qals", "numpy"}
    if getattr(sys.modules[name], "__file__", None) is not None
)
qals.RemoteSampler("http://127.0.0.1:9")
print(json.dumps({"third_party": third_party, "requests": "requests" in sys.modules}))
"""


def test_a_local_run_loads_no_third_party_module_but_numpy():
    run = subprocess.run(
        [sys.executable, "-c", LOCAL_RUN, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert seen["third_party"] == []  # requests and urllib3 above all
    assert seen["requests"]
