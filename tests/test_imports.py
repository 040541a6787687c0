"""SciPy stays off eqkit's import path.

Importing the package or the CLI must not load SciPy, and every CLI
subcommand must run with SciPy made unimportable.  ``kernel.real_schur`` is
the one function that needs it (the optional ``eqkit[schur]`` extra) and
imports it on first use; without SciPy it raises an ImportError naming the extra.
``from eqkit import *`` binds the public names and none of the submodules.
Every name a module imports is used in it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eqkit
from eqkit.ea import sr_decompose
from eqkit.io import write_matrix
from eqkit.kernel import real_schur

SRC = str(Path(eqkit.__file__).resolve().parents[1])

# Run in a child with sys.modules["scipy"] = None, so any SciPy import raises.
# Prints {subcommand label: [exit code, report]} as JSON.
RUN_WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from eqkit.cli import main
out = {}
for label, argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out[label] = [code, json.loads(buf.getvalue())]
print(json.dumps(out))
"""


def run_python(args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_star_import_leaves_the_stdlib_io_alone():
    import io
    import types

    namespace = {}
    exec("import io\nfrom eqkit import *", namespace)
    assert namespace["io"] is io
    assert "sr_decompose" in namespace
    assert not [name for name in eqkit.__all__ if isinstance(getattr(eqkit, name), types.ModuleType)]


def test_import_does_not_load_scipy():
    for module in ("eqkit", "eqkit.cli"):
        out = run_python(["-c", f"import sys, {module}; print('scipy' in sys.modules)"])
        assert out.strip() == "False", module


def test_every_subcommand_runs_without_scipy(tmp_path):
    rng = np.random.default_rng(3)
    a, s, d = (str(tmp_path / f) for f in ("a.csv", "s.mtx", "d.csv"))
    write_matrix(a, rng.standard_normal((5, 5)))
    write_matrix(s, sr_decompose(rng.standard_normal((5, 5)), 1.2).S.mat)
    write_matrix(d, np.diag([1.0, 2.0, 3.0]))
    out = f"{tmp_path}/"
    cases = [
        ("sr", ["sr", a, "--alpha", "0.3", "--out", out]),
        ("inverse", ["inverse", s, "--out", out]),
        ("dea", ["dea", a, "--alpha", "0.25", "--out", out]),
        ("frame", ["frame", "--n", "4", "--out", out, "--format", "mtx"]),
        ("check", ["check", s]),
        ("sdst", ["sdst", d, "--alpha", "0.1", "--out", out]),
        ("sdst_bound", ["sdst", d, "--find-alpha-bound"]),
    ]
    results = json.loads(run_python(["-c", RUN_WITHOUT_SCIPY, json.dumps(cases)]))
    checks = {
        "sr": {"sr_residual", "alpha_certified", "r_diag_positive"},
        "inverse": {"inverse_residual"},
        "dea": {"columns_gram", "rows_gram", "row_sums", "col_sums"},
        "frame": {"gram_offdiag", "unit_columns", "row_sums", "tight", "welch"},
        "check": set(),
        "sdst": {"sdst_residual", "trace_match"},
        "sdst_bound": set(),
    }
    for label, argv in cases:
        code, rep = results[label]
        assert code == 0, (label, rep)
        assert rep["command"] == argv[0] and rep["passed"] is True
        assert set(rep["checks"]) == checks[label]
    assert results["check"][1]["equiangular_alpha"] is not None
    assert 0.0 < results["sdst_bound"][1]["alpha_real_root_bound"] < 1.0


def test_real_schur_without_scipy_names_the_extra():
    script = (
        'import sys; sys.modules["scipy"] = None\n'
        "import numpy as np\n"
        "from eqkit.factor import schur_equiangular\n"
        "try:\n"
        "    schur_equiangular(np.diag([1.0, 2.0, 3.0]), 0.2)\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    assert "eqkit[schur]" in run_python(["-c", script])


def test_real_schur_still_works(rng):
    pytest.importorskip("scipy")
    A = rng.standard_normal((6, 6))
    Q, T = real_schur(A)
    assert np.abs(Q @ T @ Q.T - A).max() <= 1e-12 * np.abs(A).max() * 6
    assert np.abs(Q.T @ Q - np.eye(6)).max() <= 1e-13
    assert np.allclose(np.tril(T, -2), 0.0)


def test_every_imported_name_is_used():
    # __init__.py re-exports, and "# noqa: F401" marks the imports that
    # perfbench/spans.py patches by name; __future__ imports bind nothing.
    unused = []
    for path in sorted(Path(eqkit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []
