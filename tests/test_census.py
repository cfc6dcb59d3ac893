"""Census: every module and public definition in ``src/repro`` has a caller.

A module counts as used when a file under ``src/``, ``benchmarks/`` or
``examples/`` imports it.  Its own package's ``__init__`` re-exporting it does
not count, but importing a name the package re-exports from it does.  A
public top-level function or class counts as used when such a file names it
in code outside its own definition, an ``__init__`` re-export and
``__all__``; docstrings and comments are not uses.  Tests are not callers:
code only its own tests reach is not part of the artefact.  The scan is
name-based, so a name shared by two definitions keeps both.

An orphan stays only through ``ALLOWLIST``.  Each entry cites the paper
artefact it backs together with the bench or ``analysis.tables`` row that
runs it, or the tests that use it as a reference implementation (an oracle).
The drill harness in ``repro.testing`` is the one other kind: shard processes
unpickle its circuits, so it cannot live under ``tests/``, and its entries
cite the tests that drive it.
"""

from __future__ import annotations

import ast
import io
import shutil
import subprocess
import tarfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples")
MAX_ALLOWLIST = 10

ALLOWLIST = {
    "repro.poly.negacyclic.negacyclic_convolve": (
        "oracle: the schoolbook negacyclic product the ring, RNS, NTT-plan and "
        "pipeline tests check against (tests/test_negacyclic.py, test_ring.py, "
        "test_rns_poly.py, test_ntt3step.py, test_integration_cross_pipeline.py)"
    ),
    "repro.poly.ntt_reference.negacyclic_evaluate_direct": (
        "oracle: O(N^2) evaluation at the odd powers of psi, the definition the "
        "reference NTT is checked against (tests/test_ntt_reference.py)"
    ),
    "repro.poly.modmat": (
        "oracle: the chunked-uint64 modular matmul the kernel, MAT, BAT and "
        "NTT-plan tests check against (tests/test_modmat.py, test_gemm_mod.py, "
        "test_mat.py, test_bat.py, test_ntt_backend.py, "
        "test_integration_cross_pipeline.py)"
    ),
    "repro.ckks.bootstrapping.special_fft_matrix": (
        "oracle: the dense special-FFT matrix the factored CoeffToSlot and "
        "SlotToCoeff stages must reproduce (tests/test_bootstrapping.py)"
    ),
    "repro.ckks.bootstrapping.composed_matrix": (
        "oracle: multiplies a factored transform's stages back into one matrix "
        "to compare with special_fft_matrix (tests/test_bootstrapping.py)"
    ),
    "repro.ckks.poly_eval.clenshaw": (
        "oracle: exact Chebyshev evaluation over fractions.Fraction that the "
        "Chebyshev division and series tests check against (tests/test_poly_eval.py)"
    ),
    "repro.testing.chaos.run_process_chaos": (
        "harness: the process-kill drills (SIGKILL, hang, poison, restart storm) "
        "tests/test_supervisor.py runs in the CI supervision job"
    ),
    "repro.testing.chaos.BatchCrashCircuit": (
        "harness: the circuit a shard unpickles to crash on a stacked batch in "
        "tests/test_supervisor.py's batch-crash drill"
    ),
}


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_all(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _names(node: ast.AST) -> set[str]:
    """Every identifier ``node`` mentions in code (docstrings and comments do not count)."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
            if sub.asname:
                found.add(sub.asname)
    return found


def _absolute(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    base = module.split(".")
    base = base[: len(base) - node.level + (1 if is_package else 0)]
    return ".".join(base + ([node.module] if node.module else []))


class _File:
    def __init__(self, path: Path, module: str | None) -> None:
        self.module = module
        self.is_init = path.name == "__init__.py"
        self.tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        # Top-level statements as (defined name or None, names mentioned).
        self.uses: list[tuple[str | None, set[str]]] = []
        self.defs: list[str] = []
        # Imports as (absolute module, imported name or None).
        self.imports: list[tuple[str, str | None]] = []
        for stmt in self.tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    self.defs.append(owner)
            reexport = self.is_init and isinstance(stmt, (ast.Import, ast.ImportFrom))
            if not (reexport or _is_all(stmt)):
                self.uses.append((owner, _names(stmt)))
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                self.imports.extend((alias.name, None) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (module or not node.level):
                base = _absolute(module or "", self.is_init, node)
                self.imports.extend((base, alias.name) for alias in node.names)


def census(root: Path) -> list[str]:
    """Dotted names of the orphan modules and definitions of ``root/src/repro``."""
    src = root / "src"
    files: list[_File] = []
    for top in CALLER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            files.append(_File(path, _module_name(path, src) if top == "src" else None))
    modules = {f.module: f for f in files if f.module}
    # Package __init__ re-exports: (package, name) -> defining module.
    reexports = {
        (f.module, alias.asname or alias.name): _absolute(f.module, True, node)
        for f in files
        if f.is_init and f.module
        for node in f.tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }

    imported: set[str] = set()
    for f in files:
        for base, name in f.imports:
            targets = {base}
            if name is not None:
                targets.add(f"{base}.{name}")
                source = reexports.get((base, name))
                while source is not None and source not in targets:
                    targets.add(source)
                    source = reexports.get((source, name))
            for target in targets:
                if target not in modules or target == f.module:
                    continue
                own_init = f.is_init and target.rpartition(".")[0] == f.module
                if not own_init:
                    imported.add(target)

    orphans = sorted(
        name for name, f in modules.items() if not f.is_init and name not in imported
    )
    mentioned: dict[str, set[int]] = {}
    for index, f in enumerate(files):
        for _, names in f.uses:
            for name in names:
                mentioned.setdefault(name, set()).add(index)
    for index, f in enumerate(files):
        if f.module is None or f.module in orphans:
            continue
        for name in f.defs:
            elsewhere = mentioned.get(name, set()) - {index}
            at_home = any(name in names for owner, names in f.uses if owner != name)
            if not (elsewhere or at_home):
                orphans.append(f"{f.module}.{name}")
    return sorted(orphans)


def test_src_has_no_orphans_outside_the_allowlist():
    assert census(ROOT) == sorted(ALLOWLIST)


def test_allowlist_is_small_and_every_entry_cites_a_reason():
    assert len(ALLOWLIST) <= MAX_ALLOWLIST
    for name, citation in ALLOWLIST.items():
        kind, _, source = citation.partition(": ")
        assert kind in ("artefact", "oracle", "harness"), name
        if kind == "artefact":
            assert "benchmarks/" in source or "analysis.tables" in source, name
        else:
            assert "tests/" in source, name
        assert kind != "harness" or name.startswith("repro.testing."), name


def _write(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_scanner_flags_planted_orphans_and_honours_bench_callers(tmp_path):
    """A definition only a benchmark names is used; a module only its own
    package re-exports, and a definition only itself calls, are not."""
    _write(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": (
                "from repro.pkg.lonely import stranded\n"
                "from repro.pkg.used import bench_only, helper, planted\n"
                "__all__ = ['bench_only', 'helper', 'planted', 'stranded']\n"
            ),
            "src/repro/pkg/lonely.py": "def stranded():\n    return stranded\n",
            "src/repro/pkg/used.py": (
                "def helper():\n    return 1\n\n"
                "def bench_only():\n    return helper()\n\n"
                "def planted():\n    return planted()\n"
            ),
            "src/repro/app.py": "from .pkg import used\n\ndef main():\n    return used.helper()\n",
            "benchmarks/bench_x.py": (
                "from repro.pkg import bench_only\nfrom repro.app import main\n"
                "bench_only(); main()\n"
            ),
            "examples/demo.py": "print('no callers here')\n",
        },
    )
    assert census(tmp_path) == ["repro.pkg.lonely", "repro.pkg.used.planted"]


# The census at the commit before its first clean-up: the 4 modules and the
# definitions that went, the oracles and harness the allowlist keeps, and
# CkksBootstrapper, which the Table IX bench now runs.
FIRST_CENSUS_COMMIT = "f08c4047b45db3c3b8556fb5b2fc1631e50ba48b"
FIRST_CENSUS = [
    "repro.analysis.tables.side_by_side",
    "repro.baselines.gpu_flow.gpu_baseline_compiler",
    "repro.baselines.gpu_flow.radix2_baseline_compiler",
    "repro.baselines.sparse_toeplitz",
    "repro.cancellation.cancel_scope",
    "repro.cancellation.current_scope",
    "repro.ckks.bootstrapping.CkksBootstrapper",
    "repro.ckks.bootstrapping.composed_matrix",
    "repro.ckks.bootstrapping.slot_permutation",
    "repro.ckks.bootstrapping.special_fft_matrix",
    "repro.ckks.linear_transform.bsgs_rotation_counts",
    "repro.ckks.poly_eval.chebyshev_to_power",
    "repro.ckks.poly_eval.clenshaw",
    "repro.ckks.poly_eval.horner",
    "repro.ckks.poly_eval.ps_evaluate_plain",
    "repro.core.bat.bat_modmatmul",
    "repro.core.bat_scalar.hp_scalar_mult_bat",
    "repro.core.chunks.chunk_merge",
    "repro.core.fallback_conv",
    "repro.core.lazy_reduction",
    "repro.core.mat.bit_reverse_rows_and_cols",
    "repro.core.mat.fold_elementwise_permutation",
    "repro.core.mat.fuse_permutations",
    "repro.core.mat.transpose_stride_permutation",
    "repro.core.ntt3step.default_tile_shape",
    "repro.diagnostics.clear_caches",
    "repro.numtheory.barrett.mulmod_barrett",
    "repro.numtheory.barrett.mulmod_barrett_vector",
    "repro.numtheory.bitrev.bit_reverse_permute",
    "repro.numtheory.bitrev.stride_permutation_indices",
    "repro.numtheory.crt.garner_compose",
    "repro.numtheory.modular.centered_mod",
    "repro.numtheory.modular.mod_exp",
    "repro.numtheory.montgomery.mulmod_montgomery",
    "repro.numtheory.montgomery.mulmod_montgomery_vector",
    "repro.numtheory.primes.next_prime",
    "repro.numtheory.primes.previous_prime",
    "repro.numtheory.shoup",
    "repro.perf.energy.throughput_per_watt",
    "repro.poly.fused_kernels.accelerated",
    "repro.poly.fused_kernels.available_modes",
    "repro.poly.fused_kernels.implementations",
    "repro.poly.fused_kernels.kernel_counts",
    "repro.poly.fused_kernels.reset_kernel_counts",
    "repro.poly.modmat.modmatvec",
    "repro.poly.negacyclic.negacyclic_convolve",
    "repro.poly.negacyclic.poly_scalar_mul",
    "repro.poly.ntt_reference.negacyclic_evaluate_direct",
    "repro.poly.ntt_reference.ntt_multiply",
    "repro.serving.shard.worker_shard",
    "repro.testing.chaos.BatchCrashCircuit",
    "repro.testing.chaos.run_process_chaos",
    "repro.tpu.specs.comparison_device",
    "repro.workloads.logistic_regression.encrypted_matvec",
    "repro.workloads.logistic_regression.hoisted_rotation_sum",
    "repro.workloads.mnist.run_encrypted_conv_taps",
]


def _extract(commit: str, dest: Path) -> Path:
    """The caller directories at ``commit``, through ``git archive`` (or skip)."""
    git = shutil.which("git")
    if git is None:
        pytest.skip("git is not installed")
    archive = subprocess.run(
        [git, "archive", commit, *CALLER_DIRS], cwd=ROOT, capture_output=True
    )
    if archive.returncode:
        pytest.skip(f"commit {commit[:7]} is not in this checkout")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def test_scanner_reports_the_first_census_on_its_tree(tmp_path):
    assert census(_extract(FIRST_CENSUS_COMMIT, tmp_path)) == FIRST_CENSUS


# ------------------------------------------------------------ unused imports
def _annotation_names(node: ast.AST) -> set[str]:
    """Identifiers an annotation names, quoted (string) annotations included."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                found |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return found


def _referenced(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads in code or in an annotation."""
    found = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            annotations = [arg.annotation for arg in every if arg is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            if annotation is not None:
                found |= _annotation_names(annotation)
    return found


def unused_imports(root: Path) -> list[str]:
    """``module: name`` for every unused import binding under ``root/src/repro``.

    Package ``__init__`` modules (re-exports), ``from __future__`` and lines
    marked ``# noqa: F401`` (a deliberate re-export) are skipped.
    """
    unused = []
    src = root / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        referenced = _referenced(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in referenced:
                    unused.append(f"{_module_name(path, src)}: {bound}")
    return unused


def test_src_has_no_unused_imports():
    assert unused_imports(ROOT) == []


def test_import_scan_flags_planted_imports_and_honours_exemptions(tmp_path):
    """Quoted annotations count as uses; ``__future__``, ``noqa`` lines and
    package ``__init__`` re-exports are exempt."""
    _write(
        tmp_path,
        {
            "src/repro/__init__.py": "import json\n",
            "src/repro/mod.py": (
                "from __future__ import annotations\n"
                "import os.path\n"
                "import time\n"
                "from typing import Optional, Sequence\n"
                "from dataclasses import dataclass, field\n"
                "from repro import helper  # noqa: F401\n"
                "import numpy as np\n\n"
                "@dataclass\n"
                "class Box:\n"
                "    size: 'Sequence[int]'\n\n"
                "def f(x: 'Optional[int]') -> int:\n"
                "    return os.path.sep and np.zeros(1)\n"
            ),
        },
    )
    assert unused_imports(tmp_path) == ["repro.mod: time", "repro.mod: field"]


# The parent of the import scan's first commit imported two names it never used.
IMPORT_SCAN_PARENT = "79466ef2b1dce69780726818e5aedd7245c0eafd"


def test_import_scan_reports_the_unused_imports_it_found(tmp_path):
    unused = unused_imports(_extract(IMPORT_SCAN_PARENT, tmp_path))
    assert unused == ["repro.serving.shard: time", "repro.serving.shard: field"]
