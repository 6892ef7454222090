"""Machine-readable lint findings: the ``repro-analysis/v1`` format.

Every rule violation the lint engine reports is a :class:`Finding`; a
set of findings serialises to (and loads back from) a versioned JSON
report so CI can upload the result as an artifact and downstream
tooling can diff runs without scraping human-oriented output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List

from repro.utils.checkpoint import read_json, write_json

__all__ = [
    "ANALYSIS_FORMAT",
    "ANALYSIS_VERSION",
    "Finding",
    "report_dict",
    "dump_report",
    "load_report",
]

#: Format tag stamped into (and required from) lint JSON reports.
ANALYSIS_FORMAT = "repro-analysis/v1"

#: Bump after an incompatible layout change; loaders reject other versions.
ANALYSIS_VERSION = 1


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location.

    ``path`` is repo-relative (``repro/serve/batching.py`` style) so
    reports are stable across checkouts; ``line`` is 1-indexed and
    ``column`` 0-indexed, matching :mod:`ast`.
    """

    path: str
    line: int
    column: int
    rule: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"


def report_dict(findings: Iterable[Finding]) -> Dict[str, object]:
    """The JSON-able ``repro-analysis/v1`` document for ``findings``."""
    ordered = sorted(findings)
    counts: Dict[str, int] = {}
    for finding in ordered:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "format": ANALYSIS_FORMAT,
        "version": ANALYSIS_VERSION,
        "total": len(ordered),
        "counts_by_rule": dict(sorted(counts.items())),
        "findings": [asdict(finding) for finding in ordered],
    }


def dump_report(findings: Iterable[Finding], path: str) -> str:
    """Write findings to ``path`` as atomic ``repro-analysis/v1`` JSON."""
    return write_json(path, report_dict(findings))


def load_report(path: str) -> List[Finding]:
    """Load findings from a ``repro-analysis/v1`` JSON report."""
    document = read_json(path, ANALYSIS_FORMAT)
    if document.get("version") != ANALYSIS_VERSION:
        raise ValueError(
            f"{path!r} has report version {document.get('version')!r}, "
            f"this build reads version {ANALYSIS_VERSION}"
        )
    return [Finding(**entry) for entry in document.get("findings", [])]
