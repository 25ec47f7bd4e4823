import ast
import dataclasses
import importlib
import json
import pkgutil
import re
import select
import shlex
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SRC, cli_env
from tickslab import errors
from tickslab.harness import episode
from tickslab.harness.cli import build_parser, main
from tickslab.transport import MAX_FRAME_BYTES
from tickslab.weights import save_weights

README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TASKS50 = Path(__file__).resolve().parent / "fixtures" / "tasks50.jsonl"

# perfbench/serve.py's imports, then `tickslab serve` over stdin/stdout
SERVE_PROBE = """
import json, sys
from tickslab import transport
from tickslab.harness import cli, world
code = cli.main(["serve"])
loaded = sorted(name for name in sys.modules if name.startswith("tickslab"))
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "hashlib": "hashlib" in sys.modules, "loaded": loaded}), file=sys.stderr)
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
        assert run_output == metrics_output
        assert re.fullmatch(r"episodes=2 tsr=1\.000000 esr=1\.000000 ael=\d+\.\d{6}\n", run_output)

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

    CERTAINTY = ("ctm/certainty", "engine.logit_scale", "engine.decay")

    @pytest.mark.parametrize(
        "doc, names",
        [
            ({"affect": {"epsilon0": 1.7e308, "alpha": 2.0}}, ("affect.epsilon0", "affect.alpha")),
            ({"engine": {"logit_scale": 1e300}}, CERTAINTY),
            ({"weights_path": "certainty.bin"}, CERTAINTY),
        ],
        ids=["affect-threshold", "logit-scale", "certainty-weights"],
    )
    def test_overflowing_config_exits_2(self, tmp_path, capsys, doc, names):
        # each used to run to the end: the first wrote an empty log and died
        # on a non-finite epsilon, the others dispatched noop at every step
        if "weights_path" in doc:
            doc = {"weights_path": str(tmp_path / doc["weights_path"])}
            heads = np.full((4, 256), 3e38, dtype=np.float32)
            save_weights(doc["weights_path"], {"ctm/certainty": heads})
        config, tasks = tmp_path / "config.json", tmp_path / "tasks.jsonl"
        config.write_text(json.dumps(doc))
        tasks.write_text("".join(TASKS50.read_text().splitlines(keepends=True)[:3]))
        code = run_cli(
            "run", "--tasks", str(tasks), "--config", str(config),
            "--policy", "ctm", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert all(name in err for name in names)

    def test_non_finite_certainty_exits_3_and_writes_nothing(self, tmp_path):
        # decay 1 has no load-time logit bound, and this scale takes the first
        # logit past float32; it used to exit 0 with a fallback noop per step
        config, tasks = tmp_path / "config.json", tmp_path / "tasks.jsonl"
        config.write_text(json.dumps({"engine": {"decay": 1.0, "logit_scale": 1e300}}))
        tasks.write_text("".join(TASKS50.read_text().splitlines(keepends=True)[:3]))
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable, "-m", "tickslab.harness.cli", "run", "--tasks", str(tasks),
                "--config", str(config), "--policy", "ctm", "--out", str(out),
            ],
            capture_output=True,
            env=cli_env(),
            text=True,
            timeout=300,
        )
        assert proc.returncode == 3, proc.stderr
        # one line, so no numpy warning and no aborted episode
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: episode synth-20260810-0: non-finite certainty")
        assert proc.stdout == "" and not out.exists()

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


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["gen-tasks", "--seed", "1", "--count", "0", "--out", "{tmp}/tasks.jsonl"], "--count"),
            (["gen-tasks", "--seed", "1", "--count", "-3", "--out", "{tmp}/tasks.jsonl"], "--count"),
            (["run", "--tasks", "{tmp}/empty.jsonl", "--out", "{tmp}/out"], "no episode logs"),
            (["run", "--tasks", "{tmp}/missing.jsonl", "--out", "{tmp}/out"], "missing.jsonl"),
            (
                ["run", "--tasks", "{tmp}/array.jsonl", "--out", "{tmp}/out"],
                "error: line 2: expected an object\n",
            ),
            (["run", "--tasks", str(TASKS50), "--out", "{tmp}/empty.jsonl"], "--out"),
            (["run", "--tasks", str(TASKS50), "--out", "{tmp}/empty.jsonl/out"], "--out"),
            (["metrics", "--logs", "{tmp}/empty"], "no episode logs"),
            (["metrics", "--logs", "{tmp}/missing"], "{tmp}/missing"),
            (["metrics", "--logs", "{tmp}/empty.jsonl"], "{tmp}/empty.jsonl"),
            (
                ["metrics", "--logs", "{tmp}/nan"],
                "error: line 1: records[0].c_merged: expected float, got nan\n",
            ),
            (["serve", "--transport", "tcp", "--addr", "127.0.0.1:70000"], "--addr"),
        ],
        ids=[
            "count-0", "count-negative", "run-empty", "run-missing", "run-array-line",
            "run-out-file", "run-out-under-file", "metrics-empty", "metrics-missing",
            "metrics-file", "metrics-nan-field", "serve-addr",
        ],
    )
    def test_exits_2_with_an_error_line_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, argv, named
    ):
        # a refused run is refused before its first episode
        def run_episode(*args, **kwargs):
            raise AssertionError("run_episode called")

        monkeypatch.setattr(episode, "run_episode", run_episode)
        (tmp_path / "empty.jsonl").write_text("")
        (tmp_path / "array.jsonl").write_text(TASKS50.read_text().splitlines()[0] + "\n[1, 2]\n")
        (tmp_path / "empty").mkdir()
        (tmp_path / "nan").mkdir()
        record = episode.StepRecord(0, 1, 4, float("nan"), 0.75, "noop", {}, "ok", False)
        nan_log = episode.EpisodeLog("a", [record], "success", 1).to_dict()
        (tmp_path / "nan" / "episodes.jsonl").write_text(json.dumps(nan_log) + "\n")
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(*[arg.format(tmp=tmp_path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named.format(tmp=tmp_path) in err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before


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


def syntax_trees(directory):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.rglob("*.py"))]


def referenced(tree, outside=False):
    """Names ``tree`` refers to.  From outside the package, imported names and
    string constants count too: perfbench patches names given as strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif outside and isinstance(node, ast.alias):
            yield node.name
        elif outside and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


# numpy functions and methods that hand a product to BLAS
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot"}


def blas_reaches(tree):
    """(line, source) of each node in ``tree`` that can reach BLAS: a call
    named in BLAS_NAMES, ``@``, ``linalg`` or an ``einsum`` given ``optimize``
    (its contraction paths hand products to BLAS)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            optimized = any(keyword.arg == "optimize" for keyword in node.keywords)
            hit = name in BLAS_NAMES or (name == "einsum" and optimized)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            hit = any("linalg" in module for module in modules)
        else:
            hit = isinstance(node, ast.Attribute) and node.attr == "linalg"
        if hit:
            yield node.lineno, ast.unparse(node)


def defaulted_parameters(tree):
    """(qualified name, function name, position, parameter) of each defaulted
    parameter defined in ``tree``; a keyword-only one has no position, and a
    method's position does not count ``self``."""

    def visit(body, prefix, method):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                positional = (args.posonlyargs + args.args)[method:]
                first = len(positional) - len(args.defaults)
                for position, arg in enumerate(positional[first:], first):
                    yield f"{prefix}{node.name}.{arg.arg}", node.name, position, arg.arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{prefix}{node.name}.{arg.arg}", node.name, None, arg.arg

    yield from visit(tree.body, "", False)


class TestLayout:
    # the writer of the CTMW0001 weight format
    UNCALLED = {"save_weights"}
    # ends the accept loop, which only a test needs; a server runs until killed
    PASSED_BY_TESTS_ONLY = {"ToolServer.serve_tcp.max_clients"}
    # EpisodeLog.to_dict writes these records whole, each field a log key
    WRITTEN_WHOLE = {"StepRecord", "EpisodeLog"}
    # (file, raised name): the CLI's exit
    RAISE_EXEMPT = {("cli.py", "SystemExit")}
    # module.function: why a catch-all there is a boundary, not a hidden failure
    CATCH_ALL_EXEMPT = {
        "transport.ToolServer._answer": "a tool failure is an error result, not a crash",
        "transport.ToolServer.serve_tcp": "one client's failure drops it; the server keeps serving",
        "episode.run_episode": "a failing step ends its episode as a logged error outcome",
    }

    def test_only_the_references_lack_a_caller(self):
        package = syntax_trees(SRC / "tickslab")
        defined = {
            node.name
            for tree in package
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        used = {name for tree in package for name in referenced(tree)}
        used |= {name for tree in syntax_trees(PERFBENCH) for name in referenced(tree, True)}
        assert defined - used == self.UNCALLED
        # a method or property is read as an attribute; dunder methods are
        # called by the language, so they are exempt
        methods = {
            f"{cls.name}.{node.name}"
            for tree in package
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not re.fullmatch(r"__\w+__", node.name)
        }
        read = {
            node.attr
            for tree in package + syntax_trees(PERFBENCH)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
        }
        unread = sorted(method for method in methods if method.rpartition(".")[2] not in read)
        assert methods and unread == []

    @staticmethod
    def raises():
        """(file name, line, raised name) of every ``raise`` in ``src/``;
        the name is "" for a bare ``raise``."""
        for path in sorted((SRC / "tickslab").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Raise):
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    name = getattr(exc, "id", None) or getattr(exc, "attr", None) or ""
                    yield path.name, node.lineno, name

    def test_every_raise_names_a_tickslab_error(self):
        # the CLI turns only TickslabError and OSError into an error line, so
        # any other raise would reach its user as a traceback
        def ours(name):
            cls = getattr(errors, name, None)
            return isinstance(cls, type) and issubclass(cls, errors.TickslabError)

        stray = [
            f"{file}:{line} {name or 'bare raise'}"
            for file, line, name in self.raises()
            if (file, name) not in self.RAISE_EXEMPT and not ours(name)
        ]
        assert stray == []

    def test_no_call_passes_a_bundle_beside_its_own_field(self):
        # a callee that takes a bundle reads its fields from it, so each
        # value the call hands over has one source
        doubled = []
        for tree in syntax_trees(SRC / "tickslab"):
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                args = call.args + [keyword.value for keyword in call.keywords]
                names = {arg.id for arg in args if isinstance(arg, ast.Name)}
                doubled += [
                    f"{call.lineno}: {ast.unparse(call)}"
                    for arg in args
                    if isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name) and arg.value.id in names
                ]
        assert doubled == []

    def test_no_dataclasses_replace_on_the_step_path(self):
        # the step path builds its records with their constructors, which
        # cost about half of dataclasses.replace; the references may use it
        step_path = {
            "consensus.py": {"shared_branches", "merge", "timeout_safe_pass", "select_step",
                             "decide_step", "SlabMemo.lookup"},
            "episode.py": {"run_episode"},
        }
        found, replacing = set(), []
        for path in sorted((SRC / "tickslab").rglob("*.py")):
            names = step_path.get(path.name, set())
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                defs = node.body if isinstance(node, ast.ClassDef) else [node]
                for fn in defs:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    qualified = f"{node.name}.{fn.name}" if fn is not node else fn.name
                    if qualified not in names:
                        continue
                    found.add(f"{path.stem}.{qualified}")
                    replacing += [
                        f"{path.name}:{call.lineno} {qualified}"
                        for call in ast.walk(fn)
                        if isinstance(call, ast.Call)
                        and "replace" in (getattr(call.func, "id", None),
                                          getattr(call.func, "attr", None))
                    ]
        assert len(found) == 7
        assert replacing == []

    def test_no_call_reaches_blas(self):
        # OpenBLAS picks its kernel by CPU, and its kernels sum in different
        # orders, so one BLAS product on the step path moved 5 of the 6
        # golden digests under the Prescott kernel (see test_blas_free.py)
        forms = ["np.dot(a, b)", "a.dot(b)", "a @ b", "a @= b", "np.matmul(a, b)",
                 "np.inner(a, b)", "np.vdot(a, b)", "np.tensordot(a, b)", "np.linalg.norm(a)",
                 "from numpy.linalg import norm", "from numpy import linalg",
                 "np.einsum('ij,j', a, b, optimize=True)"]
        assert [form for form in forms if not list(blas_reaches(ast.parse(form)))] == []
        assert list(blas_reaches(ast.parse("np.einsum('ij,j->i', a, b)"))) == []
        reaching = [
            f"{path.relative_to(SRC)}:{line} {source}"
            for path in sorted((SRC / "tickslab").rglob("*.py"))
            for line, source in blas_reaches(ast.parse(path.read_text(encoding="utf-8")))
        ]
        assert reaching == []

    def test_every_error_type_is_raised(self):
        # an error type that no code raises names no failure; a subclass
        # counts only by its own raise, not by its base's
        kinds = {
            name
            for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.TickslabError)
        }
        raised = {name for _, _, name in self.raises()}
        assert sorted(kinds - raised - {"TickslabError"}) == []

    def test_every_catch_all_is_a_boundary(self):
        # an `except Exception` or bare `except` anywhere else would turn a
        # failure into a result nobody named
        def handlers(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from handlers(child, f"{scope}.{child.name}")
                    continue
                if isinstance(child, ast.ExceptHandler):
                    yield scope, child
                yield from handlers(child, scope)

        def catches_all(handler):
            kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            return any(kind is None or getattr(kind, "id", None) in ("Exception", "BaseException")
                       for kind in kinds)

        found = [
            scope
            for path in sorted((SRC / "tickslab").rglob("*.py"))
            for scope, handler in handlers(ast.parse(path.read_text(encoding="utf-8")), path.stem)
            if catches_all(handler)
        ]
        assert sorted(found) == sorted(self.CATCH_ALL_EXEMPT)

    def test_every_record_field_is_read(self):
        # a field that is only ever written is dead data; only attribute
        # reads count, so a local variable of the same name hides nothing
        package = importlib.import_module("tickslab")
        modules = [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(package.__path__, "tickslab.")
        ]
        records = [
            obj for module in modules for obj in vars(module).values()
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
            and obj.__name__ not in self.WRITTEN_WHOLE
        ]
        read = {
            node.attr
            for tree in syntax_trees(SRC / "tickslab") + syntax_trees(PERFBENCH)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        assert records
        unread = [
            f"{cls.__name__}.{field.name}"
            for cls in records for field in dataclasses.fields(cls) if field.name not in read
        ]
        assert unread == []

    def test_every_parameter_is_read(self):
        # a parameter its body never reads is a value every caller passes for
        # nothing; self and cls are how a method is bound, so they are exempt
        unread = []
        for path in sorted((SRC / "tickslab").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                args = node.args
                named = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {
                    name.id
                    for statement in body for name in ast.walk(statement)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
                }
                unread += [
                    f"{path.name}:{node.lineno} {arg.arg}"
                    for arg in named
                    if arg is not None and arg.arg not in read and arg.arg not in ("self", "cls")
                ]
        assert unread == []

    def test_every_defaulted_parameter_is_passed(self):
        # a default that no call overrides leaves the other values to tests
        # alone; calls match by name, so this errs toward passing
        calls = [
            (getattr(node.func, "id", None) or getattr(node.func, "attr", None),
             len(node.args), {keyword.arg for keyword in node.keywords})
            for tree in syntax_trees(SRC / "tickslab") + syntax_trees(PERFBENCH)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        ]
        unpassed = {
            qualified
            for tree in syntax_trees(SRC / "tickslab")
            for qualified, name, position, parameter in defaulted_parameters(tree)
            if not any(
                callee == name
                and (parameter in keywords or (position is not None and count > position))
                for callee, count, keywords in calls
            )
        }
        assert unpassed == self.PASSED_BY_TESTS_ONLY


class TestServeTcp:
    @pytest.mark.parametrize("port", ["99999", "65536", "\u00b2"])
    def test_port_out_of_range_exits_2(self, capsys, port):
        assert run_cli("serve", "--transport", "tcp", "--addr", f"127.0.0.1:{port}") == 2
        assert "bad --addr" in capsys.readouterr().err

    def test_port_0_prints_the_bound_address(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "tickslab.harness.cli", "serve", "--transport", "tcp",
             "--addr", "127.0.0.1:0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=cli_env(),
        )
        try:
            readable, _, _ = select.select([proc.stderr], [], [], 60)
            assert readable, "no line on stderr within 60 s"
            line = proc.stderr.readline().decode()
            match = re.fullmatch(r"listening on 127\.0\.0\.1:(\d+)\n", line)
            assert match, line
            with socket.create_connection(("127.0.0.1", int(match[1])), timeout=60) as conn:
                conn.sendall(b'{"jsonrpc":"2.0","id":1,"method":"registry/list"}\n')
                with conn.makefile("rb") as replies:
                    reply = json.loads(replies.readline())
            assert reply["id"] == 1
            names = [tool["name"] for tool in reply["result"]["tools"]]
            assert names == ["noop", "navigate", "pick", "place", "actuate"]
        finally:
            proc.terminate()
            proc.wait(timeout=60)
            proc.stderr.close()


class TestServeStdio:
    def test_serve_answers_frames_over_stdio(self):
        from tickslab.envelope import serialize_envelope
        from test_transport import envelope

        frames = (
            b'{"jsonrpc":"2.0","id":1,"method":"registry/list"}\n'
            + serialize_envelope(envelope(env_id=2))
            + b"\n"
            + serialize_envelope(envelope("tool/actuate", 3, {"duty": [0.25, 1, 0.0]}))
            + b"\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tickslab.harness.cli", "serve", "--transport", "stdio"],
            input=frames,
            capture_output=True,
            env=cli_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == b""
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 3
        listing = json.loads(lines[0])
        names = [t["name"] for t in listing["result"]["tools"]]
        assert names == ["noop", "navigate", "pick", "place", "actuate"]
        response = json.loads(lines[1])
        assert response["id"] == 2
        assert response["result"]["status"] == "ok"
        # the duties travel in the call, so serve actuates without a controller
        assert lines[2] == (
            b'{"id":3,"jsonrpc":"2.0","result":{"payload":'
            b'{"duty":[0.25,1,0.0],"waypoints":10},"status":"ok"}}'
        )

    def test_serve_loads_no_numpy_and_answers_as_in_process(self):
        from tickslab.envelope import serialize_envelope
        from tickslab.harness.world import WorldSession, build_registry, demo_world
        from tickslab.transport import ToolServer
        from test_transport import envelope

        refused = [
            serialize_envelope(envelope("tool/actuate", req_id, {"duty": duty}))
            for req_id, duty in ((6, [0.5, "0.5"]), (7, [True]), (8, [0.5, 1.5]))
        ]
        frames = [
            b'{"jsonrpc":"2.0","id":1,"method":"registry/list"}',
            serialize_envelope(envelope("tool/navigate", 2, {"to": "counter"})),
            serialize_envelope(envelope("tool/pick", 3, {"object": "cup"})),
            serialize_envelope(envelope("tool/actuate", 4)),
            serialize_envelope(envelope("tool/actuate", 5, {"duty": [0.0, 0.123456, 1.0]})),
            *refused,
            b'{"jsonrpc":"2.0","id":9,',
        ]
        proc = subprocess.run(
            [sys.executable, "-c", SERVE_PROBE],
            input=b"".join(frame + b"\n" for frame in frames),
            capture_output=True,
            timeout=60,
            env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stderr.splitlines()[-1])
        assert probe["code"] == 0
        assert not probe["numpy"], f"numpy loaded; tickslab modules: {probe['loaded']}"
        assert not probe["hashlib"], f"hashlib loaded; tickslab modules: {probe['loaded']}"
        server = ToolServer(build_registry(), WorldSession(demo_world()).handler)
        replies = proc.stdout.splitlines()
        assert replies == [server.handle_frame(frame) for frame in frames]
        results = [json.loads(reply).get("result") for reply in replies[3:8]]
        # no duty and each bad entry get an error result, not an error frame
        assert [r["status"] for r in results] == ["error", "ok", "error", "error", "error"]
        assert results[1]["payload"] == {"duty": [0.0, 0.123456, 1.0], "waypoints": 10}

    def test_frame_too_long_gets_one_error_frame_and_exit_0(self):
        frames = b"[" * (MAX_FRAME_BYTES + 1) + b'\n{"jsonrpc":"2.0","id":4,"method":"registry/list"}\n'
        proc = subprocess.run(
            [sys.executable, "-m", "tickslab.harness.cli", "serve", "--transport", "stdio"],
            input=frames,
            capture_output=True,
            env=cli_env(),
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
            env=cli_env(),
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
            env=cli_env(),
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
            env=cli_env(),
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
            env=cli_env(),
            text=True,
        )
        assert proc.returncode == 2
        assert "error" in proc.stderr
