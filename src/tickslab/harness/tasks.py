"""Task records: JSONL ingestion and the synthetic task generator.

A task pairs a natural-language goal with the expected tool path
(tool, args, expected postcondition per step).  The generator composes
navigate -> pick -> place chains over a fixed 12-object, 6-location
vocabulary; every argument it emits is named in the task's context, and the
final step's expected string doubles as the episode's goal predicate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ParseError, SchemaViolation
from ..rng import SplitMix64, derive_seed

DEFAULT_BUDGET_STEPS = 20

OBJECT_VOCAB = (
    "cup", "plate", "sponge", "apple", "book", "bottle",
    "towel", "remote", "fork", "bowl", "soda_can", "wrench",
)
LOCATION_VOCAB = ("counter", "table", "shelf", "sink", "cabinet", "bench")


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

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "goal": self.goal,
            "context": list(self.context),
            "steps": [
                {"tool": s.tool, "args": dict(s.args), "expected": s.expected}
                for s in self.steps
            ],
            "budget_steps": self.budget_steps,
        }


def _validate_record(doc: dict, line: int) -> TaskRecord:
    def fail(fieldname: str, why: str):
        raise SchemaViolation(f"line {line}: {fieldname}", why)

    if not isinstance(doc, dict):
        fail("", "record must be an object")
    known = {"id", "goal", "context", "steps", "budget_steps"}
    for key in doc:
        if key not in known:
            fail(key, "unknown field")
    for key in ("id", "goal"):
        if not isinstance(doc.get(key), str) or not doc[key]:
            fail(key, "expected a non-empty string")
    context = doc.get("context")
    if not isinstance(context, list) or any(not isinstance(c, str) for c in context):
        fail("context", "expected a list of names")
    raw_steps = doc.get("steps")
    if not isinstance(raw_steps, list) or not raw_steps:
        fail("steps", "expected a non-empty list")
    steps = []
    names = set(context)
    for i, raw in enumerate(raw_steps):
        if not isinstance(raw, dict):
            fail(f"steps[{i}]", "expected an object")
        for key in ("tool", "expected"):
            if not isinstance(raw.get(key), str) or not raw[key]:
                fail(f"steps[{i}].{key}", "expected a non-empty string")
        args = raw.get("args")
        if not isinstance(args, dict):
            fail(f"steps[{i}].args", "expected an object")
        for slot, value in args.items():
            if isinstance(value, str) and value not in names:
                fail(f"steps[{i}].args.{slot}", f"{value!r} is not in context")
        steps.append(TaskStep(raw["tool"], dict(args), raw["expected"]))
    budget = doc.get("budget_steps", DEFAULT_BUDGET_STEPS)
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        fail("budget_steps", "expected a positive integer")
    return TaskRecord(
        id=doc["id"],
        goal=doc["goal"],
        context=tuple(context),
        steps=tuple(steps),
        budget_steps=budget,
    )


def read_jsonl(path: str | Path):
    """(line number, JSON value) per non-blank line; undecodable lines raise ParseError."""
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
            if line.strip():
                yield lineno, json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep
            raise ParseError(lineno, str(exc)) from exc


def load_tasks(path: str | Path) -> list[TaskRecord]:
    """Read one task per JSONL line; strict schema, order preserved."""
    return [_validate_record(doc, lineno) for lineno, doc in read_jsonl(path)]


def save_tasks(path: str | Path, tasks: list[TaskRecord]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for task in tasks:
            handle.write(json.dumps(task.to_dict(), sort_keys=True) + "\n")


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
    if n < 1:
        raise ValueError("need at least one task")
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
