"""The README's library tour runs and prints what its comments say, and its
CLI block runs."""

import ast
import math
import shlex
from pathlib import Path

from expsub.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_lines() -> list[tuple[str, str]]:
    """(code, comment) for each line of the tour's code block."""
    text = README.read_text()
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            out.append((code.strip(), comment.strip()))
    return out


def test_readme_tour_states_what_it_prints():
    ns = {}
    stated = {}
    for code, comment in tour_lines():
        if isinstance(ast.parse(code).body[0], ast.Expr):
            stated[code] = (eval(code, ns), comment)
        else:
            exec(code, ns)
    scheme, space = ns["scheme"], ns["space"]
    assert scheme.M.mat == ((2,),) and scheme.tau == (-0.5,)
    assert set(space.pairs) == {((0,), (0j,)), ((1,), (0j,)), ((0,), (1 + 0j,)), ((0,), (-1 + 0j,))}
    assert len(stated) == 4
    for code, (value, comment) in stated.items():
        if comment == "(t, e^t) for t in [0, 1)":
            assert value and all(0 <= t < 1 and abs(v - math.exp(t)) < 1e-12 for (t,), v in value)
            continue
        literal = ast.literal_eval(comment)
        if isinstance(literal, float):
            assert f"{value:.1e}" == comment, code
        else:
            assert value == literal, code


def cli_block() -> tuple[dict[str, str], list[list[str]]]:
    """The CLI section's shell block: the files its heredocs write, and each
    `expsub` command (continuation lines joined) as an argv."""
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    files, commands = {}, []
    lines = iter(block.replace("\\\n", " ").splitlines())
    for line in lines:
        if line.startswith("cat > "):
            name, _, end = line[len("cat > "):].partition(" <<")
            body = []
            for body_line in lines:
                if body_line == end.strip("'"):
                    break
                body.append(body_line)
            files[name] = "\n".join(body) + "\n"
        elif line.startswith("expsub "):
            commands.append(shlex.split(line)[1:])
    return files, commands


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    files, commands = cli_block()
    assert set(files) == {"space.json", "data.json"} and len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    for argv in commands:
        assert main(argv) == 0, argv
        for flag in ("--out", "--report"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).stat().st_size > 0, argv
    assert capsys.readouterr().err == ""
