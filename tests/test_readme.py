"""The README's library tour runs and prints what its comments say."""

import ast
import math
from pathlib import Path

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
