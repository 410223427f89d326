"""Project-invariant static analysis: ``python -m repro.analysis``.

An AST-based lint pass that encodes the architectural invariants of this
repository as named rules (``RPR001``…): sans-IO purity of the inference
core, lock discipline in the serving tier, lazy-table discipline, seeded
RNG, wire-registry completeness, executor discipline,
the transport monopoly — and, since the whole-program pass, the import-layer
DAG, lock-order acyclicity, blocking-in-async and resource lifecycle.  See
``docs/static-analysis.md`` for the rule catalog,
:mod:`repro.analysis.framework` for the per-file machinery, and
:mod:`repro.analysis.project` for the :class:`ProjectModel` the cross-module
rules check.
"""

from .config import PROJECT_SCOPES
from .framework import (
    UNUSED_SUPPRESSION_CODE,
    Analyzer,
    FileAnalysis,
    Finding,
    ModuleSource,
    Report,
    Rule,
    Scope,
    all_rules,
    register_rule,
    rules_for,
)
from .project import ProjectModel, ProjectRule

__all__ = [
    "Analyzer",
    "FileAnalysis",
    "Finding",
    "ModuleSource",
    "PROJECT_SCOPES",
    "ProjectModel",
    "ProjectRule",
    "Report",
    "Rule",
    "Scope",
    "UNUSED_SUPPRESSION_CODE",
    "all_rules",
    "register_rule",
    "rules_for",
]
