"""Deterministic world simulation behind the tool registry.

The world is a location per object, the robot's location and one held
slot; a held object keeps the location where it was picked up.  States
are never changed in place (new ones may share the objects dict), and a
tool failure is an error result with the old state, never a crash.
Goal predicates are the small string forms the task generator emits:
``robot_at:<loc>``, ``holding:<obj>`` and ``at:<obj>:<loc>``.

Every tool is a function of the world and the call's arguments alone:
actuate checks and echoes the duty cycles that the controller planned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..registry import MAX_JOINTS, NOOP_TOOL, SlotKind, ToolRegistry, ToolSpec
from ..schema import json_type_ok
from ..transport import ToolResult, error_result, ok_result

START_LOCATION = "dock"
WAYPOINTS_PER_MOVE = 10   # echoed in each actuate reply

TOOL_SPECS = (  # ToolRegistry puts noop first
    ToolSpec("navigate", (("to", SlotKind.OBJECT_REF),), "move the robot to a location"),
    ToolSpec("pick", (("object", SlotKind.OBJECT_REF),), "grasp a co-located object"),
    ToolSpec("place", (("object", SlotKind.OBJECT_REF),), "put down the held object"),
    ToolSpec("actuate", (("duty", SlotKind.DUTY),), "set one PWM duty cycle in [0, 1] per joint"),
)


def build_registry() -> ToolRegistry:
    return ToolRegistry(list(TOOL_SPECS))


@dataclass(frozen=True)
class WorldState:
    objects: dict            # name -> location
    robot_at: str = START_LOCATION
    held: Optional[str] = None


def world_from_task(task) -> WorldState:
    """Initial placement implied by the script.

    Locations are the navigate targets that are names.  A picked object
    starts wherever the robot last navigated before its first pick (the
    dock if none).  Context names that are neither locations nor picked
    objects are distractors, parked at a location chosen by a stable hash.
    """
    from ..rng import fnv1a64

    location_set = {START_LOCATION}
    objects: dict[str, str] = {}
    here = START_LOCATION
    for step in task.steps:
        if step.tool == "navigate" and isinstance(step.args.get("to"), str):
            here = step.args["to"]
            location_set.add(here)
        elif step.tool == "pick":
            obj = step.args.get("object")
            if isinstance(obj, str) and obj not in objects:
                objects[obj] = here

    park = sorted(location_set)
    for name in task.context:
        if name in location_set or name in objects:
            continue
        objects[name] = park[fnv1a64(name) % len(park)]
    return WorldState(objects)


def goal_holds(state: WorldState, predicate: str) -> bool:
    kind, _, rest = predicate.partition(":")   # a location may hold colons
    if kind == "robot_at":
        return state.robot_at == rest
    if kind == "holding":
        return state.held == rest
    name, _, where = rest.partition(":")
    return kind == "at" and state.held != name and state.objects.get(name) == where


def _actuate(args: dict) -> ToolResult:
    """Echo the call's duty cycles; the float type rule refuses NaN and infinities."""
    duty = args.get("duty")
    if not isinstance(duty, list) or len(duty) > MAX_JOINTS or not all(
        json_type_ok(d, "float") and 0 <= d <= 1 for d in duty
    ):
        return error_result(f"actuate needs a duty list of at most {MAX_JOINTS} numbers in [0, 1]")
    return ok_result(duty=duty, waypoints=WAYPOINTS_PER_MOVE)


def step_env(state: WorldState, tool: str, args: dict) -> tuple[WorldState, ToolResult]:
    """Apply one tool call; failures return an error result and the old state."""
    if tool == NOOP_TOOL:
        return state, ok_result()

    if tool == "navigate":
        to = args.get("to")
        if not json_type_ok(to, "str") or not to:
            return state, error_result("navigate needs a location name")
        return WorldState(state.objects, to, state.held), ok_result(robot_at=to)

    if tool == "pick":
        name = args.get("object")
        if not isinstance(name, str) or name not in state.objects:
            return state, error_result(f"no such object: {name!r}")
        if state.held is not None:
            return state, error_result(f"already holding {state.held}")
        location = state.objects[name]
        if location != state.robot_at:
            return state, error_result(f"{name} is at {location}, robot is at {state.robot_at}")
        return WorldState(state.objects, state.robot_at, name), ok_result(holding=name)

    if tool == "place":
        name = args.get("object")
        if not isinstance(name, str) or name not in state.objects:
            return state, error_result(f"no such object: {name!r}")
        if state.held != name:
            return state, error_result(f"not holding {name}")
        objects = {**state.objects, name: state.robot_at}
        return WorldState(objects, state.robot_at, None), ok_result(placed=name, at=state.robot_at)

    if tool == "actuate":
        return state, _actuate(args)

    return state, error_result(f"no such tool: {tool!r}")


class WorldSession:
    """Mutable world wrapper exposing the ToolServer handler interface."""

    def __init__(self, state: WorldState):
        self.state = state

    def handler(self, name: str, args: dict) -> ToolResult:
        self.state, result = step_env(self.state, name, args)
        return result


def demo_world() -> WorldState:
    """Small fixed world for serve mode and ad-hoc poking."""
    return WorldState({"cup": "counter", "book": "shelf", "sponge": "sink"})
