"""Uniform check-report records shared by the verifiers and the CLI."""

from __future__ import annotations

import json
from typing import NamedTuple


class CheckRecord(NamedTuple):
    """One verdict: a plain tuple, so the verifiers make tens of thousands
    cheaply."""

    check: str
    params: str
    ok: bool
    counterexample: str | None = None

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True, separators=(",", ":"))


class Report(NamedTuple):
    records: tuple

    @property
    def ok(self) -> bool:
        return all(rec.ok for rec in self.records)

    @property
    def first_failure(self) -> CheckRecord | None:
        for rec in self.records:
            if not rec.ok:
                return rec
        return None
