"""Agreement of the command line's two parsers.

`cli._parse_table` reads well-formed argv straight from the option table
`cli._SPEC`; `cli.build_parser()` builds the argparse tree from the same
table.  On every argv of the corpus below the table parser either declines
(returns None) or returns the namespace argparse returns, and it declines
wherever argparse exits.
"""

import ast
import contextlib
import io
import json
import random
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from delcap import cli

ROOT = Path(__file__).resolve().parents[1]

# values that argparse and the table parser could read apart: -1 looks like
# a negative number to argparse, int() takes 1_0 and " 7", x fails every type
ODD_VALUES = ("-1", "1_0", " 7", "x", "")
TYPED_VALUES = {int: ("4", "6", "0", "2"), float: ("0.5", "1e-10", "0.3", "nan")}
TEXT_VALUES = ("o.csv", "0.1:0.9:0.1", "raw,adjusted", "8,10", "a b")
SEQUENCES = ("0101", "00101011", "1", "x")


def _usage_argvs():
    with open(ROOT / "tests" / "cli_usage.json", encoding="utf-8") as fh:
        return [case["argv"] for case in json.load(fh)["cases"]]


def _workflow_argvs():
    """The argv of every `delcap ...` command of the CI workflow."""
    argvs = []
    for line in (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines():
        tokens = shlex.split(line.strip(), comments=True)
        if "delcap" not in tokens:
            continue
        argv = []
        for token in tokens[tokens.index("delcap") + 1 :]:
            if token in ("||", "&&", "|", ">", ">>") or token.endswith(";"):
                break
            argv.append(token)
        argvs.append(argv)
    return argvs


def _benchmark_argvs():
    """Every argv of every benchmark variant, evaluated from the WORKLOADS
    table in perfbench/bench.py and the module-level names it uses, without
    importing the benchmark."""
    path = ROOT / "perfbench" / "bench.py"
    defined = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            defined[node.name] = node
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            defined[node.targets[0].id] = node
    needed, names = [], ["WORKLOADS"]
    while names:
        node = defined.pop(names.pop(), None)
        if node is not None:
            needed.append(node)
            names += [name.id for name in ast.walk(node) if isinstance(name, ast.Name)]
    module = ast.Module(body=sorted(needed, key=lambda node: node.lineno), type_ignores=[])
    namespace = {"Workload": lambda name, why, variants: SimpleNamespace(name=name, variants=variants)}
    exec(compile(module, str(path), "exec"), namespace)
    return [list(op) for w in namespace["WORKLOADS"].values() for ops in w.variants for op in ops]


def _value(rng, keywords):
    """A value token for an option: mostly one it takes, else an odd one."""
    if rng.random() < 0.2:
        return rng.choice(ODD_VALUES + ("nope", "--n"))
    if "choices" in keywords:
        return rng.choice(list(keywords["choices"]) + ["nope"])
    return rng.choice(TYPED_VALUES.get(keywords.get("type"), TEXT_VALUES))


def _generated_argvs(count, seed):
    """Random argv over every subcommand: options left out, repeated, given as
    --flag=value or abbreviated, values odd or out of choices, "--", -h and
    unknown flags, and count's positionals among the options in any order."""
    rng = random.Random(seed)
    argvs = []
    for _ in range(count):
        command = rng.choice(cli._COMMANDS)
        groups, positionals = [], []
        for name, keywords in cli._SPEC[command][2:]:
            if not name.startswith("--"):
                if rng.random() < 0.9:
                    positionals.append([rng.choice(SEQUENCES + ODD_VALUES[:2])])
                continue
            if rng.random() > (0.9 if keywords.get("required") else 0.4):
                continue
            flag = name
            if rng.random() < 0.05:
                flag = name[: rng.randrange(3, len(name))] if len(name) > 3 else name + "x"
            if keywords.get("action") == "store_true":
                groups.append([flag] * rng.choice((1, 1, 1, 2)))
                continue
            group = [flag, _value(rng, keywords)]
            form = rng.random()
            if form < 0.05:
                group = [f"{flag}={group[1]}"]
            elif form < 0.15:
                group += [flag, _value(rng, keywords)]
            groups.append(group)
        if rng.random() < 0.05:
            positionals.append([rng.choice(SEQUENCES)])
        extra = rng.random()
        if extra < 0.03:
            groups.append(["--"])
        elif extra < 0.05:
            groups.append([rng.choice(("-h", "--help"))])
        elif extra < 0.08:
            groups.append(["--bogus"])
        elif extra < 0.1:
            groups.append([rng.choice(("--n", "--output"))])
        rng.shuffle(groups)
        # the positionals keep their order among themselves: argparse and the
        # table both take them in that order, wherever the options fall
        for positional in positionals:
            groups.insert(rng.randrange(len(groups) + 1), positional)
        argvs.append([command] + [token for group in groups for token in group])
    return argvs


def _argparse_vars(argv):
    """vars() of the full argparse tree's namespace, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _comparable(values):
    # NaN from --d nan or --tol nan equals nothing, itself included
    return {key: (type(v), "nan" if v != v else v) for key, v in values.items()}


def test_corpus_reaches_every_source():
    assert len(_usage_argvs()) >= 30
    workflow = _workflow_argvs()
    assert len(workflow) >= 40 and {argv[0] for argv in workflow} == set(cli._COMMANDS)
    bench = _benchmark_argvs()
    assert {argv[0] for argv in bench} == {"bounds", "mdm-table", "baa"}
    assert ["baa", "--n", "6", "--d", "0.7"] in bench


def test_table_parser_agrees_with_argparse():
    corpus = _usage_argvs() + _workflow_argvs() + _benchmark_argvs() + _generated_argvs(2400, seed=35)
    accepted, fell_back = [], 0
    for argv in corpus:
        full = _argparse_vars(argv)
        table = cli._parse_table(list(argv))
        if table is None:
            fell_back += full is not None
            continue
        assert full is not None, argv
        assert _comparable(vars(table)) == _comparable(full), argv
        accepted.append(vars(table))
    # the table parser takes every well-formed line of CI and the benchmark
    for argv in _workflow_argvs() + _benchmark_argvs():
        assert cli._parse_table(argv) is not None, argv
    # and the corpus puts every table entry to work: each option read to a
    # value other than its default, and each left at its default
    for command, (_, _, *arguments) in cli._SPEC.items():
        runs = [values for values in accepted if values["command"] == command]
        for name, keywords in arguments:
            dest = name.lstrip("-").replace("-", "_")
            default = False if keywords.get("action") == "store_true" else keywords.get("default")
            assert any(values[dest] != default for values in runs), (command, name)
            if not keywords.get("required") and name.startswith("--"):
                assert any(values[dest] == default for values in runs), (command, name)
    # argparse alone reads -1 as a value and abbreviated flags
    assert len(accepted) >= 300 and fell_back >= 20


def test_successful_runs_load_no_argparse(tmp_path):
    # argparse, and the gettext and locale modules its first message loads,
    # stay out of a process whose argv the table parser reads
    code = f"""
import contextlib, io, sys
sys.path[:0] = [{str(ROOT / 'src')!r}]
import delcap.cli
from delcap.cli import main
assert 'argparse' not in sys.modules
out = {str(tmp_path)!r}
runs = (
    ["count", "00101011", "0101"],
    ["bounds", "--channel", "bec", "--d-grid", "0.1:0.9:0.4", "--output", out + "/bec.csv"],
    ["mdm-table", "--n", "6", "--m", "3", "--output", out + "/t.csv"],
)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        assert main(argv) == 0, argv
loaded = [name for name in ("argparse", "gettext", "locale") if name in sys.modules]
assert not loaded, loaded
with contextlib.redirect_stdout(io.StringIO()) as help_text:
    assert main(["--help"]) == 0
assert help_text.getvalue().startswith("usage: delcap")
with contextlib.redirect_stderr(io.StringIO()) as error:
    assert main(["count", "0101"]) == 2
assert "error: the following arguments are required: y" in error.getvalue()
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
