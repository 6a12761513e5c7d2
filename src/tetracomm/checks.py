"""One named pass/fail check and one report shape for every verifier.

``steiner.verify``, ``schedule.validate`` and ``simulator.verify_run`` all
return a ``Report`` (the latter two through subclasses that carry one extra
result), so callers read ``passed``, ``problems`` and ``check(name)`` the
same way and the CLI prints one JSON shape.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Check", "Report"]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def problems(self) -> list[str]:
        """``"name: detail"`` for each failed check, in check order."""
        return [f"{c.name}: {c.detail}" for c in self.checks if not c.passed]

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_obj(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks],
        }
