"""Task records: JSONL ingestion and the synthetic task generator.

A task pairs a natural-language goal with the expected tool path
(tool, args, expected postcondition per step).  The generator composes
navigate -> pick -> place chains over a fixed 12-object, 6-location
vocabulary; every argument it emits is named in the task's context, and the
final step's expected string doubles as the episode's goal predicate.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from ..errors import SchemaViolation
from ..rng import SplitMix64, derive_seed
from ..schema import check_record, json_type_ok
from .world import build_registry

DEFAULT_BUDGET_STEPS = 20

OBJECT_VOCAB = (
    "cup", "plate", "sponge", "apple", "book", "bottle",
    "towel", "remote", "fork", "bowl", "soda_can", "wrench",
)
LOCATION_VOCAB = ("counter", "table", "shelf", "sink", "cabinet", "bench")
TOOLS = build_registry()     # the tools a step may name: noop and the world's


@dataclass(frozen=True)
class TaskStep:
    tool: str
    args: dict
    expected: str


@dataclass(frozen=True)
class TaskRecord:
    id: str
    goal: str
    context: tuple                      # names usable as tool arguments
    steps: tuple                        # TaskStep sequence, non-empty
    budget_steps: int = DEFAULT_BUDGET_STEPS


def _validate_record(doc) -> TaskRecord:
    """The task in ``doc``; anything that does not fit raises SchemaViolation.

    Beyond the JSON types: strings are non-empty, there is at least one
    step, a step's tool is one the world runs, and an arg is a context name
    or a finite number, the values an envelope can carry.
    """
    check_record(TaskRecord, doc)
    for key in ("id", "goal"):
        if not doc[key]:
            raise SchemaViolation(key, "expected a non-empty string")
    if not all(json_type_ok(c, "str") for c in doc["context"]):
        raise SchemaViolation("context", "expected a list of names")
    if not doc["steps"]:
        raise SchemaViolation("steps", "expected a non-empty list")
    steps = []
    for i, raw in enumerate(doc["steps"]):
        check_record(TaskStep, raw, f"steps[{i}].")
        for key in ("tool", "expected"):
            if not raw[key]:
                raise SchemaViolation(f"steps[{i}].{key}", "expected a non-empty string")
        if raw["tool"] not in TOOLS:
            raise SchemaViolation(f"steps[{i}].tool", f"{raw['tool']!r} is not a tool the world runs")
        for slot, value in raw["args"].items():
            # context holds only strings, so every other type is refused
            if not json_type_ok(value, "float") and value not in doc["context"]:
                raise SchemaViolation(
                    f"steps[{i}].args.{slot}", f"{value!r} is not in context or a finite number"
                )
        steps.append(TaskStep(**raw))
    if doc.get("budget_steps", DEFAULT_BUDGET_STEPS) < 1:
        raise SchemaViolation("budget_steps", "expected a positive integer")
    return TaskRecord(**{**doc, "context": tuple(doc["context"]), "steps": tuple(steps)})


def read_jsonl(path: str | Path, parse) -> list:
    """``parse(value)`` for the JSON value of each non-blank line, in order.

    Lines end at LF alone, as frames do (CR is JSON whitespace).  A line
    that is not UTF-8 JSON, or whose value ``parse`` refuses with a
    SchemaViolation, raises ``SchemaViolation("line N", reason)``.
    """
    parsed = []
    for lineno, raw in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8")
            if line.strip():
                parsed.append(parse(json.loads(line)))
        except (ValueError, RecursionError, SchemaViolation) as exc:  # bad UTF-8 or JSON, too deep
            raise SchemaViolation(f"line {lineno}", str(exc)) from exc
    return parsed


def load_tasks(path: str | Path) -> list[TaskRecord]:
    """Read one task per JSONL line; strict schema, order preserved."""
    return read_jsonl(path, _validate_record)


def save_tasks(path: str | Path, tasks: list[TaskRecord]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for task in tasks:
            handle.write(json.dumps(asdict(task), sort_keys=True) + "\n")


def _move_chain(obj: str, src: str, dst: str) -> list[TaskStep]:
    return [
        TaskStep("navigate", {"to": src}, f"robot_at:{src}"),
        TaskStep("pick", {"object": obj}, f"holding:{obj}"),
        TaskStep("navigate", {"to": dst}, f"robot_at:{dst}"),
        TaskStep("place", {"object": obj}, f"at:{obj}:{dst}"),
    ]


def gen_tasks(seed: int, n: int) -> list[TaskRecord]:
    """Deterministically synthesize ``n`` move tasks from the fixed grammar.

    Roughly a third of the tasks chain two object moves; the rest move one
    object.  Budgets are tied to the script length so runs stay short.
    """
    tasks = []
    for i in range(n):
        stream = SplitMix64(derive_seed(seed, f"task/{i}"))
        objects = list(OBJECT_VOCAB)
        stream.shuffle(objects)
        locations = list(LOCATION_VOCAB)
        stream.shuffle(locations)

        double = stream.below(3) == 0
        steps: list[TaskStep] = []
        clauses = []
        used_objects = objects[: 2 if double else 1]
        src_a, dst_a, src_b = locations[0], locations[1], locations[2]
        steps += _move_chain(used_objects[0], src_a, dst_a)
        clauses.append(f"move the {used_objects[0]} from the {src_a} to the {dst_a}")
        if double:
            steps += _move_chain(used_objects[1], src_b, dst_a)
            clauses.append(f"then bring the {used_objects[1]} from the {src_b}")

        distractors = objects[2 : 2 + stream.below(3)]
        context = tuple(
            used_objects
            + distractors
            + sorted({s.args["to"] for s in steps if "to" in s.args})
        )
        tasks.append(
            TaskRecord(
                id=f"synth-{seed}-{i}",
                goal=" and ".join(clauses),
                context=context,
                steps=tuple(steps),
                budget_steps=max(8, 2 * len(steps)),
            )
        )
    return tasks
