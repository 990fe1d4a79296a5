"""The package runs on its declared dependencies alone.

``pyproject.toml`` declares numpy as the only runtime dependency, and a
clean ``pip install -e .`` installs nothing else.  Two guards keep that
true:

* a static scan of every module under ``src/repro`` for imports outside the
  standard library, ``repro`` itself and the declared dependencies (imports
  inside functions included: a lazy import fails too, only later);
* a fresh interpreter that cannot import scipy builds an engine, serves a
  short trace and runs ``calibrate()`` — the paths that price codecs
  through the Appendix-A exponent pmf.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def _declared_dependencies() -> set[str]:
    """Import names of ``[project] dependencies`` in ``pyproject.toml``.

    Read with a regex rather than ``tomllib``, which Python 3.10 lacks.
    """
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1),
                     re.M | re.S)
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in re.findall(r"[\"']([^\"']+)[\"']", deps.group(1))
    }


def _imported_modules(path: Path):
    """``(line, dotted module)`` of every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_src_imports_only_stdlib_repro_and_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    allowed |= _declared_dependencies()
    undeclared = [
        f"{path.relative_to(PACKAGE)}:{line} {module}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, module in _imported_modules(path)
        if module.partition(".")[0] not in allowed
    ]
    assert not undeclared, (
        "imports outside the standard library and pyproject.toml's"
        f" [project] dependencies: {undeclared}"
    )


_WITHOUT_SCIPY = textwrap.dedent("""
    import sys

    sys.modules["scipy"] = None  # any ``import scipy...`` now fails

    import repro
    from repro.compression import calibrate, tensor_classes_for_model
    from repro.gpu.specs import get_gpu
    from repro.serving.backends import get_backend
    from repro.serving.engine import InferenceEngine
    from repro.serving.models import get_model
    from repro.serving.profiles import get_profile
    from repro.serving.serve import ServingConfig

    model = get_model("llama3.1-8b")
    engine = InferenceEngine(model, get_gpu("rtx4090"),
                             get_backend("zipserv"))
    requests = get_profile("chat").trace([0.25 * i for i in range(20)])
    result = engine.serve(requests,
                          config=ServingConfig(prefill_mode="chunked"))
    assert result.n_requests == 20, result.n_requests
    profile = calibrate(classes=tensor_classes_for_model(model)[:1])
    assert len(profile) > 0
    print("served", result.n_requests, "calibrated", len(profile))
""")


def test_serving_and_calibration_run_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("served 20 calibrated"), proc.stdout
