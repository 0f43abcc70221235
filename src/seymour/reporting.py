"""Run reports: one record per instance, plus a config echo and summary.

The machine format is JSON with sorted keys; the human format is a small
table.  Records are kept sorted by instance fingerprint so reports are
stable regardless of evaluation order.  An exhaustive sweep records only
its violations and counts the instances that passed in `unrecorded_verified`,
which the summary adds to `instances` and `verified`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

VERSION = "0.1.0"

# record statuses
VERIFIED = "verified"
GATED = "hypothesis-failed"
FAILED = "failed"


@dataclass
class InstanceRecord:
    fingerprint: str
    source: str
    status: str
    detail: dict[str, Any] = field(default_factory=dict)
    findings: tuple[str, ...] = ()
    seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "source": self.source,
            "status": self.status,
            "detail": self.detail,
            "findings": list(self.findings),
            "seconds": round(self.seconds, 6),
        }


@dataclass
class Report:
    command: str
    config: dict[str, Any]
    records: list[InstanceRecord] = field(default_factory=list)
    version: str = VERSION
    unrecorded_verified: int = 0

    def add(self, record: InstanceRecord) -> None:
        self.records.append(record)

    def sorted_records(self) -> list[InstanceRecord]:
        return sorted(self.records, key=lambda r: (r.fingerprint, r.source))

    def summary(self) -> dict[str, int]:
        recs = self.records
        return {
            "instances": len(recs) + self.unrecorded_verified,
            "verified": sum(r.status == VERIFIED for r in recs) + self.unrecorded_verified,
            "hypothesis-failed": sum(r.status == GATED for r in recs),
            "failed": sum(r.status == FAILED for r in recs),
            "findings": sum(len(r.findings) for r in recs),
        }

    @property
    def exit_code(self) -> int:
        return 1 if any(r.status == FAILED for r in self.records) else 0


def _human(report: Report) -> str:
    lines = [f"# seymour {report.version} :: {report.command}"]
    for key in sorted(report.config):
        lines.append(f"# {key} = {report.config[key]}")
    recs = report.sorted_records()
    if recs:
        width = max(len(r.source) for r in recs)
        width = max(width, len("source"))
        lines.append(f"{'fingerprint':12}  {'source':{width}}  status")
        for r in recs:
            lines.append(f"{r.fingerprint:12}  {r.source:{width}}  {r.status}")
            for key in sorted(r.detail):
                lines.append(f"{'':12}  {'':{width}}    {key}: {r.detail[key]}")
            for f in r.findings:
                lines.append(f"{'':12}  {'':{width}}    finding: {f}")
    summary = report.summary()
    lines.append(
        "summary: " + "  ".join(f"{k}={summary[k]}" for k in sorted(summary))
    )
    return "\n".join(lines) + "\n"


def _machine(report: Report) -> str:
    payload = {
        "version": report.version,
        "command": report.command,
        "config": report.config,
        "records": [r.as_dict() for r in report.sorted_records()],
        "summary": report.summary(),
    }
    return json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"


def emit_report(report: Report, format: str = "human") -> str:
    if format == "human":
        return _human(report)
    if format == "machine":
        return _machine(report)
    raise ValueError(f"unknown format {format!r}; choose 'human' or 'machine'")
