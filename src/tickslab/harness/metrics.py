"""Run metrics and episode-log persistence.

TSR = successful episodes / episodes; ESR = ok tool calls / total tool
calls; AEL = mean decision steps per episode.  Logs are written one episode
per line in canonical JSON so identical runs produce identical bytes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

from ..envelope import canonical_json_bytes
from ..errors import EmptyLogs
from ..transport import STATUS_OK
from .episode import OUTCOME_SUCCESS, EpisodeLog
from .tasks import read_jsonl


@dataclass(frozen=True)
class MetricsReport:
    tsr: float
    esr: float
    ael: float
    episode_count: int

    def summary(self) -> str:
        """The line ``tickslab run`` and ``tickslab metrics`` print."""
        return (f"episodes={self.episode_count} tsr={self.tsr:.6f} "
                f"esr={self.esr:.6f} ael={self.ael:.6f}")


def compute_metrics(logs: list[EpisodeLog]) -> MetricsReport:
    if not logs:
        raise EmptyLogs("no episode logs")
    successes = sum(1 for log in logs if log.outcome == OUTCOME_SUCCESS)
    calls = [r.tool_status for log in logs for r in log.records]
    ok_calls = sum(1 for status in calls if status == STATUS_OK)
    esr = ok_calls / len(calls) if calls else 0.0
    return MetricsReport(
        tsr=successes / len(logs),
        esr=esr,
        ael=sum(log.steps_used for log in logs) / len(logs),
        episode_count=len(logs),
    )


def write_logs(path: str | Path, logs: list[EpisodeLog]) -> None:
    with open(path, "wb") as handle:
        for log in logs:
            handle.write(canonical_json_bytes(log.to_dict()) + b"\n")


def read_logs(path: str | Path) -> list[EpisodeLog]:
    return read_jsonl(path, EpisodeLog.from_dict)


def read_log_dir(directory: str | Path) -> list[EpisodeLog]:
    """All episode logs under a directory (sorted *.jsonl files)."""
    logs = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        logs.extend(read_logs(path))
    return logs


def write_report(path: str | Path, report: MetricsReport) -> None:
    Path(path).write_bytes(canonical_json_bytes(asdict(report)) + b"\n")
