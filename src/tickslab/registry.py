"""The tool table the router picks from and the tool server answers for."""

from __future__ import annotations

import enum
from dataclasses import dataclass

NOOP_TOOL = "noop"


class SlotKind(enum.Enum):
    OBJECT_REF = "object_ref"
    SCALAR = "scalar"


@dataclass(frozen=True)
class ToolSpec:
    name: str
    arg_slots: tuple = ()         # ((slot_name, SlotKind), ...)
    description: str = ""


class ToolRegistry:
    """Ordered, immutable-by-convention tool table; noop is always present."""

    def __init__(self, specs: list[ToolSpec]):
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("tool names must be unique")
        if NOOP_TOOL not in names:
            specs = [ToolSpec(NOOP_TOOL, (), "do nothing")] + list(specs)
        self.specs = tuple(specs)
        self._by_name = {s.name: s for s in self.specs}

    def __len__(self) -> int:
        return len(self.specs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> ToolSpec:
        return self._by_name[name]

    @property
    def max_slots(self) -> int:
        return max((len(s.arg_slots) for s in self.specs), default=0)
