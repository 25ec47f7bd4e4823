"""Deterministic world simulation behind the tool registry.

Objects live at named locations; the robot moves, picks, and places.  Tool
failures are error results that leave the state untouched, never crashes.
Goal predicates are the small string forms the task generator emits:
``robot_at:<loc>``, ``holding:<obj>`` and ``at:<obj>:<loc>``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from ..errors import UnknownTool
from ..registry import SlotKind, ToolRegistry, ToolSpec
from ..schema import json_type_ok
from ..transport import ToolResult, error_result, ok_result

if TYPE_CHECKING:
    import numpy as np

    from ..actuator import ActuatorParams

START_LOCATION = "dock"
WAYPOINTS_PER_MOVE = 10   # echoed in each actuate reply

TOOL_SPECS = (
    ToolSpec("noop", (), "do nothing"),
    ToolSpec("navigate", (("to", SlotKind.OBJECT_REF),), "move the robot to a location"),
    ToolSpec("pick", (("object", SlotKind.OBJECT_REF),), "grasp a co-located object"),
    ToolSpec("place", (("object", SlotKind.OBJECT_REF),), "put down the held object"),
    ToolSpec("actuate", (), "drive the joint chain from the current sync vector"),
)


def build_registry() -> ToolRegistry:
    return ToolRegistry(list(TOOL_SPECS))


@dataclass(frozen=True)
class ObjectState:
    location: str
    held: bool = False


@dataclass(frozen=True)
class WorldState:
    objects: dict            # name -> ObjectState
    robot_at: str = START_LOCATION
    goal: str = ""           # final-step expected postcondition

    def copy(self) -> "WorldState":
        return replace(self, objects=dict(self.objects))

    @property
    def held_object(self) -> Optional[str]:
        for name, obj in self.objects.items():
            if obj.held:
                return name
        return None


def world_from_task(task) -> WorldState:
    """Initial placement implied by the script.

    Locations are the navigate targets that are names.  A picked object
    starts wherever the robot last navigated before its first pick (the
    dock if none).  Context names that are neither locations nor picked
    objects are distractors, parked at a location chosen by a stable hash.
    """
    from ..rng import fnv1a64

    location_set = {START_LOCATION}
    placement: dict[str, str] = {}
    here = START_LOCATION
    for step in task.steps:
        if step.tool == "navigate" and isinstance(step.args.get("to"), str):
            here = step.args["to"]
            location_set.add(here)
        elif step.tool == "pick":
            obj = step.args.get("object")
            if isinstance(obj, str) and obj not in placement:
                placement[obj] = here

    objects = {name: ObjectState(loc) for name, loc in placement.items()}
    park = sorted(location_set)
    for name in task.context:
        if name in location_set or name in objects:
            continue
        objects[name] = ObjectState(park[fnv1a64(name) % len(park)])
    goal = task.steps[-1].expected
    return WorldState(objects=objects, robot_at=START_LOCATION, goal=goal)


def goal_holds(state: WorldState, predicate: str) -> bool:
    parts = predicate.split(":")
    if parts[0] == "robot_at" and len(parts) == 2:
        return state.robot_at == parts[1]
    if parts[0] == "holding" and len(parts) == 2:
        obj = state.objects.get(parts[1])
        return obj is not None and obj.held
    if parts[0] == "at" and len(parts) == 3:
        obj = state.objects.get(parts[1])
        return obj is not None and not obj.held and obj.location == parts[2]
    return False


def _actuate(sync: np.ndarray, params: ActuatorParams) -> ToolResult:
    """Demo joint chain: plan torque, map to PWM; a move is ``WAYPOINTS_PER_MOVE`` waypoints."""
    import numpy as np

    from ..actuator import plan_torque, torque_to_pwm

    duty = torque_to_pwm(plan_torque(sync, params), params)
    if not np.all(np.isfinite(duty)):
        return error_result("torque plan produced non-finite duties")
    return ok_result(
        duty=[round(float(d), 6) for d in duty],
        waypoints=WAYPOINTS_PER_MOVE,
    )


def step_env(
    state: WorldState,
    tool: str,
    args: dict,
    sync: Optional[np.ndarray] = None,
    actuator_params: Optional[ActuatorParams] = None,
) -> tuple[WorldState, ToolResult]:
    """Apply one tool call; failures return an error result and the old state."""
    if tool == "noop":
        return state, ok_result()

    if tool == "navigate":
        to = args.get("to")
        if not json_type_ok(to, "str") or not to:
            return state, error_result("navigate needs a location name")
        new = state.copy()
        return replace(new, robot_at=to), ok_result(robot_at=to)

    if tool == "pick":
        name = args.get("object")
        if not isinstance(name, str) or name not in state.objects:
            return state, error_result(f"no such object: {name!r}")
        if state.held_object is not None:
            return state, error_result(f"already holding {state.held_object}")
        obj = state.objects[name]
        if obj.location != state.robot_at:
            return state, error_result(
                f"{name} is at {obj.location}, robot is at {state.robot_at}"
            )
        new = state.copy()
        new.objects[name] = replace(obj, held=True)
        return new, ok_result(holding=name)

    if tool == "place":
        name = args.get("object")
        if not isinstance(name, str) or name not in state.objects:
            return state, error_result(f"no such object: {name!r}")
        obj = state.objects[name]
        if not obj.held:
            return state, error_result(f"not holding {name}")
        new = state.copy()
        new.objects[name] = ObjectState(location=state.robot_at, held=False)
        return new, ok_result(placed=name, at=state.robot_at)

    if tool == "actuate":
        if sync is None or actuator_params is None:
            return state, error_result("no sync vector available to actuate on")
        return state, _actuate(sync, actuator_params)

    raise UnknownTool(tool)


class WorldSession:
    """Mutable world wrapper exposing the ToolServer handler interface.

    The controller publishes the current merged sync vector before each
    dispatch so the actuate tool can read it.
    """

    def __init__(self, state: WorldState, actuator_params: Optional[ActuatorParams] = None):
        self.state = state
        self.actuator_params = actuator_params
        self.current_sync: Optional[np.ndarray] = None

    def handler(self, name: str, args: dict) -> ToolResult:
        self.state, result = step_env(
            self.state, name, args, sync=self.current_sync,
            actuator_params=self.actuator_params,
        )
        return result

    def goal_reached(self) -> bool:
        return bool(self.state.goal) and goal_holds(self.state, self.state.goal)


def demo_world() -> WorldState:
    """Small fixed world for serve mode and ad-hoc poking."""
    objects = {
        "cup": ObjectState("counter"),
        "book": ObjectState("shelf"),
        "sponge": ObjectState("sink"),
    }
    return WorldState(objects=objects, robot_at=START_LOCATION, goal="")
