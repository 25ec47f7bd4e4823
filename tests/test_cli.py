import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tickslab.harness.cli import build_parser, main
from tickslab.transport import MAX_FRAME_BYTES

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

# perfbench/serve.py's imports, then `tickslab serve` over stdin/stdout
SERVE_PROBE = """
import json, sys
from tickslab import transport
from tickslab.harness import cli, world
code = cli.main(["serve"])
loaded = sorted(name for name in sys.modules if name.startswith("tickslab"))
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "loaded": loaded}), file=sys.stderr)
"""


def run_cli(*argv):
    return main(list(argv))


class TestGenTasks:
    def test_gen_and_reload(self, tmp_path):
        out = tmp_path / "tasks.jsonl"
        assert run_cli("gen-tasks", "--seed", "4", "--count", "6", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 6

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("gen-tasks", "--seed", "4", "--count", "6", "--out", str(a))
        run_cli("gen-tasks", "--seed", "4", "--count", "6", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    @pytest.fixture
    def task_file(self, tmp_path):
        out = tmp_path / "tasks.jsonl"
        run_cli("gen-tasks", "--seed", "31", "--count", "2", "--out", str(out))
        return out

    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "config.json"
        doc = {
            "seed": 3,
            "engine": {
                "neurons": 16, "history": 4, "rank": 2, "sync_pairs": 32,
                "ticks_per_slab": 4, "max_slabs": 8,
            },
            "consensus": {"branches": 2, "deadline_ticks": 16},
            "affect": {"hidden": 8},
        }
        path.write_text(json.dumps(doc))
        return path

    def test_oracle_run_writes_logs_and_metrics(self, tmp_path, task_file, config_file):
        out = tmp_path / "run1"
        code = run_cli(
            "run", "--tasks", str(task_file), "--config", str(config_file),
            "--policy", "oracle", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        episodes = (out / "episodes.jsonl").read_text().splitlines()
        assert len(episodes) == 2
        report = json.loads((out / "metrics.json").read_text())
        assert report["tsr"] == 1.0
        assert report["esr"] == 1.0

    def test_metrics_subcommand_replays_logs(self, tmp_path, task_file, config_file, capsys):
        out = tmp_path / "run2"
        run_cli(
            "run", "--tasks", str(task_file), "--config", str(config_file),
            "--policy", "oracle", "--seed", "3", "--out", str(out),
        )
        run_output = capsys.readouterr().out
        assert run_cli("metrics", "--logs", str(out)) == 0
        metrics_output = capsys.readouterr().out
        assert run_output.strip().split()[-3:] == metrics_output.strip().split()[-3:]

    def test_missing_tasks_file_exits_2(self, tmp_path):
        code = run_cli(
            "run", "--tasks", str(tmp_path / "nope.jsonl"), "--policy", "oracle",
            "--out", str(tmp_path / "out"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "data", [b"\xff\xfe{}\n", b"[" * 100_000], ids=["not-utf8", "deep"]
    )
    @pytest.mark.parametrize("flag", ["--config", "--tasks", "--logs"])
    def test_malformed_input_file_exits_2(self, tmp_path, task_file, capsys, flag, data):
        bad = tmp_path / "bad" / "bad.jsonl"
        bad.parent.mkdir()
        bad.write_bytes(data)
        run = ["run", "--policy", "oracle", "--out", str(tmp_path / "out")]
        argv = {
            "--config": run + ["--tasks", str(task_file), "--config", str(bad)],
            "--tasks": run + ["--tasks", str(bad)],
            "--logs": ["metrics", "--logs", str(bad.parent)],
        }[flag]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_config_exits_2(self, tmp_path, task_file):
        bad = tmp_path / "bad.json"
        bad.write_text('{"engine": {"decay": 0.0}}')
        code = run_cli(
            "run", "--tasks", str(task_file), "--config", str(bad),
            "--policy", "oracle", "--out", str(tmp_path / "out"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("perception", "vision_in", 2**70),
            ("engine", "rank", 2**70),
            ("router", "slot_embed_width", 2**70),
            ("affect", "hidden", 2**70),
            ("engine", "neurons", 100_000),
            # the cap on a decision step's work arrays
            ("engine", "ticks_per_slab", 2**70),
            ("consensus", "branches", 2**40),
        ],
    )
    def test_config_past_the_weight_cap_exits_2(
        self, tmp_path, task_file, capsys, section, key, value
    ):
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps({section: {key: value}}))
        code = run_cli(
            "run", "--tasks", str(task_file), "--config", str(bad),
            "--policy", "ctm", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{section}.{key}" in err

    @pytest.mark.parametrize(
        "to, code",
        [(5, 0), ({"k": 1}, 2), (["table"], 2), (float("nan"), 2)],
        ids=["number", "object", "array", "nan"],
    )
    def test_task_arg_of_any_json_type_exits_cleanly(self, tmp_path, config_file, capsys, to, code):
        doc = {
            "id": "t", "goal": "go to the table", "context": ["table"], "budget_steps": 2,
            "steps": [{"tool": "navigate", "args": {"to": to}, "expected": "robot_at:table"}],
        }
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text(json.dumps(doc) + "\n")
        argv = ["run", "--tasks", str(tasks), "--config", str(config_file), "--out", str(tmp_path)]
        assert run_cli(*argv, "--policy", "oracle") == code
        if code:
            assert "line 1: steps[0].args.to" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["id", "goal", "config"])
    def test_lone_surrogate_string_exits_2(self, tmp_path, task_file, capsys, field):
        doc = json.loads(task_file.read_text().splitlines()[0])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"weights_path": "\ud800"} if field == "config" else {}))
        if field != "config":
            doc[field] += "\ud800"
        tasks = tmp_path / "bad.jsonl"
        tasks.write_text(json.dumps(doc) + "\n")
        argv = ["run", "--tasks", str(tasks), "--config", str(config), "--out", str(tmp_path / "out")]
        assert run_cli(*argv, "--policy", "oracle") == 2
        err = capsys.readouterr().err
        assert ("weights_path" if field == "config" else f"line 1: {field}") in err
        assert "not valid Unicode" in err


class TestServeOptions:
    def test_serve_takes_only_transport_and_addr(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--transport", "tcp", "--addr", "127.0.0.1:0"])
        assert sorted(vars(args)) == ["addr", "command", "func", "transport"]
        for removed in (["--config", "c.json"], ["--seed", "5"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["serve", *removed])


class TestReadmeCli:
    def test_every_readme_command_parses(self):
        block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
        block = re.search(r"```bash\n(.*?)```", block, re.S).group(1)
        commands = [shlex.split(line) for line in block.splitlines() if line.startswith("tickslab ")]
        assert {argv[1] for argv in commands} == {"gen-tasks", "run", "metrics", "serve"}
        for argv in commands:
            build_parser().parse_args(argv[1:])


def resolve(dotted):
    """The object a dotted ``tickslab....`` name refers to: the longest
    prefix that imports as a module, then one getattr per remaining part."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(dotted)


class TestReadmeNames:
    def test_every_dotted_name_resolves(self):
        names = set(re.findall(r"\btickslab(?:\.\w+)+", README.read_text(encoding="utf-8")))
        assert {
            "tickslab.schema.json_type_ok",
            "tickslab.transport.MAX_FRAME_BYTES",
            "tickslab.envelope.AFFECT_DIMS",
            "tickslab.config.Config.tensor_shapes",
        } <= names
        for dotted in sorted(names):
            resolve(dotted)


class TestServeTcp:
    @pytest.mark.parametrize("port", ["99999", "65536", "\u00b2"])
    def test_port_out_of_range_exits_2(self, capsys, port):
        assert run_cli("serve", "--transport", "tcp", "--addr", f"127.0.0.1:{port}") == 2
        assert "bad --addr" in capsys.readouterr().err


class TestServeStdio:
    def test_serve_answers_frames_over_stdio(self):
        from tickslab.envelope import serialize_envelope
        from test_transport import envelope

        frames = (
            b'{"jsonrpc":"2.0","id":1,"method":"registry/list"}\n'
            + serialize_envelope(envelope(env_id=2))
            + b"\n"
            + serialize_envelope(envelope(method="tool/actuate", env_id=3))
            + b"\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tickslab.harness.cli", "serve", "--transport", "stdio"],
            input=frames,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 3
        listing = json.loads(lines[0])
        names = [t["name"] for t in listing["result"]["tools"]]
        assert names == ["noop", "navigate", "pick", "place", "actuate"]
        response = json.loads(lines[1])
        assert response["id"] == 2
        assert response["result"]["status"] == "ok"
        # serve mode has no controller publishing a sync vector
        assert lines[2] == (
            b'{"id":3,"jsonrpc":"2.0","result":{"payload":'
            b'{"reason":"no sync vector available to actuate on"},"status":"error"}}'
        )

    def test_serve_loads_no_numpy_and_answers_as_in_process(self):
        from tickslab.envelope import serialize_envelope
        from tickslab.harness.world import WorldSession, build_registry, demo_world
        from tickslab.transport import ToolServer
        from test_transport import envelope

        frames = [
            b'{"jsonrpc":"2.0","id":1,"method":"registry/list"}',
            serialize_envelope(envelope("tool/navigate", 2, {"to": "counter"})),
            serialize_envelope(envelope("tool/pick", 3, {"object": "cup"})),
            serialize_envelope(envelope("tool/actuate", 4)),
            b'{"jsonrpc":"2.0","id":5,',
        ]
        proc = subprocess.run(
            [sys.executable, "-c", SERVE_PROBE],
            input=b"".join(frame + b"\n" for frame in frames),
            capture_output=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stderr.splitlines()[-1])
        assert probe["code"] == 0
        assert not probe["numpy"], f"numpy loaded; tickslab modules: {probe['loaded']}"
        server = ToolServer(build_registry(), WorldSession(demo_world()).handler)
        assert proc.stdout.splitlines() == [server.handle_frame(frame) for frame in frames]

    def test_frame_too_long_gets_one_error_frame_and_exit_0(self):
        frames = b"[" * (MAX_FRAME_BYTES + 1) + b'\n{"jsonrpc":"2.0","id":4,"method":"registry/list"}\n'
        proc = subprocess.run(
            [sys.executable, "-m", "tickslab.harness.cli", "serve", "--transport", "stdio"],
            input=frames,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            b'{"error":{"code":-32600,"message":"frame too long"},"id":null,"jsonrpc":"2.0"}\n'
        )

    def test_number_past_the_digit_limit_gets_parse_error(self):
        from test_transport import HUGE_FRAMES

        frames = "".join(frame + "\n" for frame in HUGE_FRAMES).encode() + (
            b'{"jsonrpc":"2.0","id":3,"method":"registry/list"}\n'
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tickslab.harness.cli", "serve", "--transport", "stdio"],
            input=frames,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 3
        assert [json.loads(line)["error"]["code"] for line in lines[:2]] == [-32700, -32700]
        assert json.loads(lines[2])["id"] == 3

    def test_lone_surrogate_method_gets_invalid_request(self):
        from test_transport import SURROGATE_FRAMES

        frames = b"".join(frame + b"\n" for frame in SURROGATE_FRAMES) + (
            b'{"jsonrpc":"2.0","id":3,"method":"registry/list"}\n'
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tickslab.harness.cli", "serve", "--transport", "stdio"],
            input=frames,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 3
        assert [json.loads(line)["error"]["code"] for line in lines[:2]] == [-32600, -32600]
        assert json.loads(lines[2])["id"] == 3


class TestSubprocessEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "tasks.jsonl"
        proc = subprocess.run(
            [
                sys.executable, "-m", "tickslab.harness.cli",
                "gen-tasks", "--seed", "1", "--count", "2", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_error_path_exit_code(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "tickslab.harness.cli",
                "metrics", "--logs", str(tmp_path / "missing"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "error" in proc.stderr
