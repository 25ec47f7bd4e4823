"""The tool table the router picks from and the tool server answers for."""

from __future__ import annotations

import enum
from dataclasses import dataclass

NOOP_TOOL = "noop"
MAX_JOINTS = 64        # most duty cycles a DUTY slot holds, so most actuator joints


class SlotKind(enum.Enum):
    OBJECT_REF = "object_ref"
    DUTY = "duty"          # a list of duty cycles, planned by the controller, not the router


@dataclass(frozen=True)
class ToolSpec:
    name: str
    arg_slots: tuple = ()         # ((slot_name, SlotKind), ...)
    description: str = ""


class ToolRegistry:
    """Ordered, immutable-by-convention tool table; noop is always present."""

    def __init__(self, specs: list[ToolSpec]):
        if NOOP_TOOL not in (s.name for s in specs):
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
