"""Output check: per-field digests of a workload's deterministic outputs.

A fingerprint maps each output field to a short digest of its values, so a
mismatch names the field that changed instead of just failing:

* sessions: every :class:`~repro.training.throughput.IterationRecord` field
  except ``planning_time_s`` (wall-clock), over the fixed iteration prefix;
* fleets: every key of :meth:`~repro.fleet.metrics.FleetReport.summary`,
  every per-job summary field and every committed iteration-record field.

Digests for known seeds are stored in ``expected.json`` beside this file;
``python3 perfbench/record.py`` regenerates them.  Only the standard library
is imported here, so the orchestrating process can check results without
importing the program.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Mapping

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Record fields that measure the host, not the program's output.
WALL_CLOCK_FIELDS = frozenset({"planning_time_s"})


def _plain(value: Any) -> Any:
    """JSON-stable form of a value: exact float repr, enums by value."""
    if isinstance(value, enum.Enum):
        return _plain(value.value)
    if hasattr(value, "item") and not isinstance(value, (list, tuple, dict)):
        value = value.item()  # numpy scalar
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, Iterable):
        return [_plain(v) for v in value]
    return repr(value)


def digest(values: Any) -> str:
    """Short, order-sensitive digest of a JSON-able value."""
    text = json.dumps(_plain(values), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_fields(records: list, prefix: str = "") -> dict[str, str]:
    """One digest per dataclass field across ``records`` (wall-clock excluded)."""
    if not records:
        return {}
    names = [
        f.name for f in dataclasses.fields(records[0]) if f.name not in WALL_CLOCK_FIELDS
    ]
    return {
        prefix + name: digest([getattr(record, name) for record in records])
        for name in names
    }


def fleet_fields(report: Any, records: list) -> dict[str, str]:
    """Digests of a fleet report's summary, job summaries and job records."""
    fields = {f"summary.{key}": digest(value) for key, value in report.summary().items()}
    fields.update(record_fields(list(report.jobs), prefix="jobs."))
    fields.update(record_fields(records, prefix="records."))
    return fields


def load_expected(scale: str, workload: str, seed: int) -> dict[str, str] | None:
    """Stored digests for ``(scale, workload, seed)``, if recorded."""
    if not EXPECTED_PATH.exists():
        return None
    stored = json.loads(EXPECTED_PATH.read_text())
    return stored.get(scale, {}).get(workload, {}).get(str(seed))


def mismatched(actual: Mapping[str, str], expected: Mapping[str, str]) -> list[str]:
    """Names of expected fields whose digest differs or is missing."""
    return sorted(name for name, value in expected.items() if actual.get(name) != value)
