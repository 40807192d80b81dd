"""Pass/fail reports with per-axiom residuals, shared by all validators."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckItem:
    name: str
    ok: bool
    residual: float
    detail: str = ""


@dataclass
class Report:
    subject: str
    items: list[CheckItem] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, ok: bool, residual: float, detail: str = "") -> None:
        self.items.append(CheckItem(name, bool(ok), float(residual), detail))

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    @property
    def worst(self) -> float:
        return max((item.residual for item in self.items), default=0.0)

    def __bool__(self):
        return self.ok

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.ok]

    def refuse(self, error: type[Exception], who: str, messages: dict | None = None) -> None:
        """Raise `error` for the first failing item, with its entry in
        `messages` or else "<who> fails <item name>"; return if all passed."""
        failed = self.failures()
        if failed:
            name = failed[0].name
            raise error((messages or {}).get(name, f"{who} fails {name}"))

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "worst_residual": self.worst,
            "checks": [
                {
                    "name": i.name,
                    "ok": i.ok,
                    "residual": i.residual,
                    **({"detail": i.detail} if i.detail else {}),
                }
                for i in self.items
            ],
            **({"notes": self.notes} if self.notes else {}),
        }

    def __str__(self):
        lines = [f"[{'PASS' if self.ok else 'FAIL'}] {self.subject}"]
        for i in self.items:
            mark = "ok  " if i.ok else "FAIL"
            extra = f"  ({i.detail})" if i.detail else ""
            lines.append(f"  {mark} {i.name}: residual={i.residual:.3e}{extra}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)
