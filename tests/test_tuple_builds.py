"""Every tuple in `src/qrns` is built from a sized source.

Given a generator, `zip`, `map` or another length-less iterator, CPython's
`tuple()` allocates 10 slots, reallocates as it grows and reallocates once
more to the final length.  `AdderInstance.a_wires` and `output_wires` were
built that way, once per instance, and over 200 rounds of
`adder_instance(build_adder(f, n))` on the 92 synth-select adders the
churn raised pymalloc's arena high-water from 9 to 13 and RSS by 4.0 MB;
built from lists, 9 to at most 10 arenas and 0.4 MB (2 CPUs, Python
3.11.7).  `sys.getallocatedblocks()` after `gc.collect()` rose by a dozen
either way, so nothing leaked.  So a `tuple(...)` call takes a list, a
tuple or a `range`: write `tuple([... for ...])` or `tuple(list(zip(...)))`.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qrns").glob("*.py"))
LENGTHLESS_CALLS = {"zip", "map", "filter", "enumerate", "chain", "from_iterable"}


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        # itertools.chain, chain.from_iterable, itertools.chain.from_iterable
        if node.attr == "from_iterable":
            return "from_iterable" if _callee(node.value) == "chain" else None
        return node.attr
    return None


def _lengthless(arg: ast.expr) -> bool:
    if isinstance(arg, ast.GeneratorExp):
        return True
    return isinstance(arg, ast.Call) and _callee(arg.func) in LENGTHLESS_CALLS


def unsized_tuple_builds(path: Path, root: Path = ROOT) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.relative_to(root)}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "tuple" and len(node.args) == 1 and not node.keywords
            and _lengthless(node.args[0])]


def test_the_scan_flags_every_lengthless_argument(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("\n".join([
        "tuple(x for x in y)",
        "tuple(zip(a, b))",
        "tuple(map(int, s))",
        "tuple(filter(None, s))",
        "tuple(enumerate(s))",
        "tuple(itertools.chain(a, b))",
        "tuple(chain.from_iterable(s))",
        "tuple(itertools.chain.from_iterable(s))",
        "tuple([x for x in y])",
        "tuple(list(zip(a, b)))",
        "tuple(range(3))",
        "tuple(moduli)",
        "tuple(sorted(x for x in y))",
    ]))
    assert unsized_tuple_builds(sample, tmp_path) == [f"sample.py:{line}"
                                                      for line in range(1, 9)]


def test_every_tuple_is_built_from_a_sized_source():
    assert any(path.name == "adders.py" for path in SOURCES)
    sites = [site for path in SOURCES for site in unsized_tuple_builds(path)]
    assert not sites, ("build these tuples from a list, tuple or range: "
                       + ", ".join(sites))
