from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import powerperm

# The public names, by the submodule that defines them.
EXPORTS = {
    "analysis": ["AuditResult", "CycleReport", "ScatterData", "audit_bijectivity",
                 "cycle_structure", "export_scatter"],
    "binomial": ["DIRECT_BOUND", "ValuationReport", "kummer_carries", "valuation_direct",
                 "valuation_legendre", "valuation_lemma1"],
    "coding": ["CodingParams", "PermutationTable", "PowerSpec", "compose_decomposition",
               "decode", "encode", "encode_via_composition", "extended_shift", "iter_codes",
               "permutation_table", "roots", "shift"],
    "errors": ["DomainError", "EnumerationBoundExceeded", "InternalBijectivityViolation",
               "PowerPermError"],
    "padic": ["PrimeBase", "valuation"],
}


def test_exports_load_on_first_use_from_their_submodules():
    script = """if True:
        import importlib, json, sys
        import powerperm
        loaded = sorted(m for m in sys.modules if m.startswith("powerperm."))
        listed = dir(powerperm)
        exports = json.loads(sys.argv[1])
        print(json.dumps({
            "loaded": loaded,
            "all": powerperm.__all__,
            "dir": [name for name in ["__all__", *powerperm.__all__] if name in listed],
            "same": [name for module, names in exports.items() for name in names
                     if getattr(powerperm, name)
                     is getattr(importlib.import_module("powerperm." + module), name)],
        }))
    """
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(EXPORTS)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == []
    assert got["all"] == sorted(name for names in EXPORTS.values() for name in names)
    assert len(got["all"]) == 30
    assert got["dir"] == ["__all__", *got["all"]]
    assert sorted(got["same"]) == got["all"]


def test_every_top_level_definition_is_exported_or_used_in_the_package():
    # No public API that nothing in the system uses: each top-level function
    # or class of src/powerperm is exported, or named by another top-level
    # statement of the package. A helper only the tests call fails here.
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(Path(powerperm.__file__).parent.glob("*.py"))}
    exported = {name for names in powerperm._EXPORTS.values() for name in names}
    used: dict[int, set[str]] = {}  # id of a top-level statement -> names it reads
    for tree in modules.values():
        for stmt in tree.body:
            used[id(stmt)] = {node.id if isinstance(node, ast.Name) else node.attr
                              for node in ast.walk(stmt)
                              if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [
        f"{module}.{stmt.name}"
        for module, tree in modules.items() for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not (stmt.name.startswith("__") or stmt.name in exported)
        and not any(stmt.name in names for key, names in used.items() if key != id(stmt))
    ]
    assert unused == []
