"""Source hygiene: every imported name in src/ and tests/ is used, every private module-level helper
in src/ is referenced in src/, every public name (exported, or a module-level function or class in
src/) is referenced in src/, the release gate or README's Library section, every exception that src/
raises by name is one that cli.main turns into exit 2, and each construct of the one-place rule table
``RULES`` is formed only where its row allows."""

import ast
import builtins
import functools
import importlib
import re
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import cocycle_lab
from cocycle_lab import cli

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_scan_flags_and_exempts():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom a import b, c\nnp.log(b)\n"
    assert unused_imports(source) == ["line 4: c", "line 2: os"]


SRC_FILES = sorted((ROOT / "src").rglob("*.py"))
SOURCES = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SRC_FILES}


def referenced(tree: ast.AST) -> set[str]:
    """Every name and attribute that ``tree`` refers to; a definition is not a reference."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes that no source refers to.

    A reference is a name or an attribute anywhere in ``sources`` (a name
    -> source text map); the definition itself is not one.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set().union(*map(referenced, trees.values()))
    return [
        f"{name}: {node.name}"
        for name, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    ]


def test_no_dead_private_helpers():
    assert dead_helpers(SOURCES) == []


def test_dead_helper_scan_flags_and_exempts():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
                "def __getattr__(name): pass\ndef public(): return _used() + b._attr() + _listed\n",
        "b.py": "def _attr(): pass\ndef _listed(): pass\n",
    }
    assert dead_helpers(sources) == ["a.py: _dead", "a.py: _Gone"]


def library_code(readme: str) -> str:
    """The ```python blocks of README's ``## Library`` section, joined."""
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return "\n".join(re.findall(r"```python\n(.*?)```", section, flags=re.S))


def public_definitions(sources: list[str]) -> list[str]:
    """The public module-level functions and classes of ``sources``."""
    return [
        node.name
        for text in sources
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def unreferenced_public(public, sources: list[str]) -> list[str]:
    """The names of ``public`` that none of ``sources`` refers to."""
    used = set().union(*(referenced(ast.parse(text)) for text in sources))
    return [name for name in public if name not in used]


def test_every_public_name_is_referenced():
    sources = [p.read_text(encoding="utf-8") for p in SRC_FILES if p.name != "__init__.py"]
    public = sorted(set(cocycle_lab.__all__) | set(public_definitions(sources)))
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    sources.append(library_code((ROOT / "README.md").read_text(encoding="utf-8")))
    assert unreferenced_public(public, sources) == []


def test_public_name_scan_flags_and_exempts():
    readme = ("# x\n```python\nonly_before()\n```\n## Library\n\n```python\nfrom m import a\nshown()\n```\n"
              "text about unshown\n## Next\n```python\nonly_after()\n```\n")
    sources = ["def dead(): pass\ncalled(helper.attr)\n", "gate_only(1)\n", library_code(readme)]
    public = ["called", "attr", "dead", "gate_only", "shown", "a", "unshown", "only_before", "only_after"]
    assert unreferenced_public(public, sources) == ["dead", "a", "unshown", "only_before", "only_after"]
    module = "def shown(): pass\nasync def waited(): pass\nclass Kind:\n    def method(self): pass\n" \
             "def _private(): pass\nALIAS = Kind\nif True:\n    def nested(): pass\n"
    assert public_definitions([module]) == ["shown", "waited", "Kind"]


# One-place rules: each row's construct is formed only in its allowed (file, scope) pairs of the
# files it applies to, a scope being a module-level function or class, ``Class.method``, "" at
# module level, or None for the whole file.  A row plants a violation marked "# planted" in a real
# file, and gives a synthetic source with the lines of its matches by scope.
SRC, CORE, MODELS = tuple(SOURCES), "src/cocycle_lab/core.py", "src/cocycle_lab/models.py"
CERTIFICATES, QUADRATURE = "src/cocycle_lab/certificates.py", "src/cocycle_lab/quadrature.py"
LINEAR_NORMS = {"math.fsum", "math.hypot", "np.hypot", "np.linalg.norm"}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Rule(NamedTuple):
    name: str
    match: Callable[[ast.AST], object]
    files: tuple[str, ...]
    allowed: set[tuple[str, str | None]]
    plant: tuple[str, str, str, str]  # (file, scope, text, its replacement); no text: append
    case: tuple[str, dict[str, list[int]]]  # (source, lines of its matches by scope)


def dotted(node: ast.AST) -> str:
    """``a.b.c`` for a chain of attributes on a name, else ""."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


REPORT_CASE = ("def _sample(rows):\n    return _report('c', 0.0, None, (r for r in rows))\ndef check(rows):\n"
               "    return core._report('c', 0.0, None, rows) or report(rows)\nclass C:\n    def m(self):\n"
               "        def _at(g):\n            return _report\nx = _report('c', 0.0, None, [])\n")
RULES = [
    # Telling a JSON number from a bool, a tuple of types included, is core.py's job.
    Rule("json-bool-checks", lambda n: isinstance(n, ast.Call) and dotted(n.func) == "isinstance" and len(n.args) == 2
         and any(isinstance(b, ast.Name) and b.id == "bool" for b in ast.walk(n.args[1])), SRC, {(CORE, None)},
         (QUADRATURE, "QuadratureConfig.__post_init__", '_int(self.max_depth, "max_depth", 1, 60)',
          "if isinstance(self.max_depth, bool) or not 1 <= self.max_depth <= 60:  # planted\n"
          '            raise PreconditionError("max_depth must be an integer in [1, 60]")'),
         ("isinstance(a, bool)\nisinstance(b, (int, bool))\nisinstance(c, int)\nbool(d)\n"
          "x.isinstance(e, bool)\nif not isinstance(f, int) or isinstance(f, bool): pass\n", {"": [1, 2, 6]})),
    # A vector norm is formed in log space by core._log_norm; only the scalar reference sums in
    # linear space.  A name of LINEAR_NORMS matches, and so does an import of one by name.
    Rule("linear-norms", lambda n: dotted(n) in LINEAR_NORMS if isinstance(n, ast.Attribute) else
         isinstance(n, ast.ImportFrom) and n.module is not None
         and any(f"{re.sub('^numpy', 'np', n.module)}.{alias.name}" in LINEAR_NORMS for alias in n.names),
         SRC, {(CORE, "log_cocycle_norm")},
         (QUADRATURE, "planted", "", "\n\ndef planted(v):\n    return np.linalg.norm(v)  # planted\n"),
         ("def log_cocycle_norm(v):\n    return math.fsum(v) + np.linalg.norm(v)\n"
          "def other(v):\n    return math.fsum(v)\nn = np.hypot(a, b) + math.hypot(c) + np.linalg.norm(d)\n"
          "from math import fsum\nfrom numpy.linalg import norm\nfrom numpy import hypot, log\n"
          "x = np.log(v) + math.exp(1) + linalg.norm(v) + fsum(v)\n",
          {"log_cocycle_norm": [2, 2], "other": [4], "": [5, 5, 5, 6, 7, 8]})),
    # Grid vectors reach every norm as log |v|, formed by SampleGrid.log_magnitudes; the gate API
    # integrate_norm_trajectory and the scalar reference log_cocycle_norm each take a linear vector.
    Rule("log-magnitudes", lambda n: isinstance(n, ast.Call) and dotted(n.func) in {"np.log", "math.log"} and n.args
         and isinstance(n.args[0], ast.Call)
         and dotted(n.args[0].func) in {"np.abs", "np.absolute", "np.fabs", "abs", "math.fabs"}, SRC,
         {(CORE, "SampleGrid.log_magnitudes"), (CORE, "log_cocycle_norm"), (QUADRATURE, "integrate_norm_trajectory")},
         (CORE, "planted", "", "\n\ndef planted(vectors):\n    return np.log(np.abs(vectors))  # planted\n"),
         ("import math\nclass Grid:\n    size = abs(-1)\n    @property\n    def mags(self):\n"
          "        return np.log(np.abs(self.v))\ndef norms(v):\n    with np.errstate(divide='ignore'):\n"
          "        return np.log(np.abs(v)).reshape(-1) + np.log(v) + np.abs(np.log(v))\n"
          "def scalar(v):\n    return [math.log(abs(c)) for c in v] + [math.log(math.fabs(c)) for c in v]\n"
          "top = np.log(np.absolute(w))\n", {"Grid.mags": [6], "norms": [9], "scalar": [11, 11], "": [12]})),
    # Every check and theorem sampler reports through certificates._sample; only it and the
    # two law checkers call core._report ...
    Rule("report-callers", lambda n: isinstance(n, ast.Call) and dotted(n.func).split(".")[-1] == "_report", SRC,
         {(CORE, "check_semiflow_laws"), (CORE, "check_cocycle_laws"), (CERTIFICATES, "_sample")},
         (CERTIFICATES, "check_instability", 'return _sample("instability", tol, margin_sink,',
          'return _report(  # planted\n        "instability", tol, margin_sink,'),
         (REPORT_CASE, {"_sample": [2], "check": [4], "": [9]})),
    # ... and no helper rebuilds the sample coordinates apart from the statistic.
    Rule("at-helper", lambda n: isinstance(n, ast.FunctionDef) and n.name == "_at", SRC, set(),
         (CERTIFICATES, "_at", "", "\n\ndef _at(grid, k, i):  # planted\n    pass\n"), (REPORT_CASE, {"C.m": [7]})),
    # Outside core.py a model's log factors are read through core._log_factors,
    # which names the first (t, s) whose factors are +inf or NaN.
    Rule("log-factor-calls", lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
         and n.func.attr == "log_factors", SRC, {(CORE, None)},
         (QUADRATURE, "_norm_trajectory_fn",
          "_log_factors(xi, taus, t0s[rows], x).T) + log_mags[rows]  # [node, component]",
          "xi.log_factors(taus, t0s[rows], x).T) + log_mags[rows]  # planted"),
         ("g = xi.log_factors(t, s, x)\nh = _log_factors(xi, t, s, x) + log_factors(t, s, x)\n"
          "f = xi.log_factors\nk = model().log_factors(t, s, x).T\nModel(semiflow=s, log_factors=log_factors)\n",
          {"": [1, 4]})),
    # A number is checked, and its bounds stated, by core's rule helpers: _finite for a float, _int
    # for an int, _floats for a list.  Apart from them, only the scalar reference and _json_float
    # call math.isfinite, or _is_finite_number or _is_int by name or as core's attribute.
    Rule("isfinite-checks", lambda n: isinstance(n, ast.Call) and (dotted(n.func) == "math.isfinite"
         or dotted(n.func).split(".")[-1] in {"_is_finite_number", "_is_int"}), SRC,
         {(CORE, helper) for helper in ("_is_number", "_shown", "_finite", "_int", "_floats", "log_cocycle_norm",
                                        "_require_pair", "_json_float")},
         (CERTIFICATES, "ParametricDecay.__post_init__", '_finite(self.n_tilde, "n_tilde", minimum=1.0)',
          "if not (_is_finite_number(self.n_tilde) and self.n_tilde >= 1.0):  # planted\n"
          '            raise PreconditionError(f"n_tilde must be finite and >= 1, got {_shown(self.n_tilde)}")'),
         ("def f(x, y, self):\n    a = math.isfinite(x) and x > 0\n"
          "    b = core._is_int(y) or _is_finite_number(self.a)\n"
          "    c = np.isfinite(x) + _int(y) + _finite(x) + _is_number(x)\ndef _shown(v):\n    return math.isfinite(v)\n",
          {"f": [2, 3, 3], "_shown": [6]})),
    # A sequence argument becomes floats through core._floats, which refuses bools, strings, numpy
    # scalars other than float64 and ints beyond the float range; float() takes the first four and
    # overflows on the last.  A comprehension whose item is float() of its own target matches, and
    # so does map(float, ...).
    Rule("float-items", lambda n: isinstance(n, (ast.ListComp, ast.SetComp, ast.GeneratorExp))
         and isinstance(n.elt, ast.Call) and dotted(n.elt.func) == "float" and len(n.elt.args) == 1
         and isinstance(n.elt.args[0], ast.Name) and n.elt.args[0].id in {
             t.id for g in n.generators for t in ast.walk(g.target) if isinstance(t, ast.Name)}
         or isinstance(n, ast.Call) and dotted(n.func) == "map" and bool(n.args) and dotted(n.args[0]) == "float",
         SRC, {(CORE, "_floats")},
         (CERTIFICATES, "_nu_ladder", "for c in _floats(candidates, name))",
          "for c in map(float, candidates))  # planted"),
         ("def _floats(xs):\n    return tuple(float(v) for v in xs)\ndef grid(rows, a, total):\n"
          "    vs = [[float(c) for c in row] for row in rows] + list(map(float, a))\n"
          "    return float(a), float(np.max(a)), float(total[0]), [float(x) + 1 for x in a], [float(y) for x in a]\n",
          {"_floats": [2], "grid": [4, 4]})),
    # The rule of a time axis (finite, >= 0, strictly increasing) is stated by core._time_axis
    # alone: no other string constant names strict increase, docstrings included.
    Rule("time-axis-checks", lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
         and "strictly increasing" in n.value, SRC, {(CORE, "_time_axis")},
         (CERTIFICATES, "TabulatedWitness.__post_init__",
          'object.__setattr__(self, "times", _time_axis(self.times, "witness knot times"))',
          'object.__setattr__(self, "times", _time_axis(self.times, "witness knot times"))\n'
          "        if any(b >= a for a, b in zip(self.times[1:], self.times)) or self.times[0] < 0.0:\n"
          '            raise PreconditionError("witness knot times must be strictly increasing and >= 0")  # planted'),
         ("def _time_axis(t):\n    raise E(f'{t} must be strictly increasing')\ndef other():\n"
          '    """Times are strictly increasing."""\n    return "strictly increasing and >= 0", "sorted increasing"\n',
          {"_time_axis": [2], "other": [4, 5]})),
    # The generator rule (an index an integer in [1, 2**510], a shift finite and >= 0) is stated by
    # core.ShiftedGenerator alone: generator_value and integrate_generator build one to check theirs,
    # and no other string constant begins with the name of either argument.
    Rule("generator-rule", lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
         and n.value.startswith(("generator index", "generator shift")), SRC,
         {(CORE, "ShiftedGenerator.__post_init__")},
         (MODELS, "_check_generator", "",
          "\n\ndef _check_generator(n, sigma):\n"
          '    _int(n, "generator index", 1, 2**510)  # planted\n'
          '    _coordinate(sigma, "generator shift")  # planted\n'),
         ("class ShiftedGenerator:\n    def __post_init__(self):\n        _int(self.n, 'generator index', 1)\n"
          'def check(n, x):\n    """A generator shift must be finite."""\n'
          "    return ('generator index must be', 'generator shift', f'{x} generator shift must be',\n"
          "            'generator times')\n",
          {"ShiftedGenerator.__post_init__": [3], "check": [6, 6]})),
    # The Datko statistic is the one strong-measurability gate of certificates.py.
    Rule("measurability-reads", lambda n: isinstance(n, ast.Attribute) and n.attr == "strongly_measurable"
         and isinstance(n.ctx, ast.Load), (CERTIFICATES,), {(CERTIFICATES, "_datko_stats")},
         (CERTIFICATES, "estimate_integral_instability", 'integral-to-norm ratio)."""\n',
          'integral-to-norm ratio)."""\n    if not xi.strongly_measurable:  # planted\n        raise ValueError\n'),
         ("def gate(xi):\n    return xi.strongly_measurable\n"
          "def build(xi):\n    return replace(xi, strongly_measurable=False), strongly_measurable\n"
          "flag = model().strongly_measurable\n", {"gate": [2], "": [5]})),
]


@functools.cache
def matches(source: str) -> dict[str, dict[str, list[int]]]:
    """The lines of each rule's matches in ``source`` by scope, from one walk of each top-level statement."""
    found: dict[str, dict[str, list[int]]] = {rule.name: {} for rule in RULES}
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, DEFS) else ""
        members = top.body if isinstance(top, ast.ClassDef) else []
        methods = {id(node): f"{owner}.{m.name}" for m in members if isinstance(m, DEFS) for node in ast.walk(m)}
        for node in ast.walk(top):
            for rule in RULES:
                if rule.match(node):
                    found[rule.name].setdefault(methods.get(id(node), owner), []).append(node.lineno)
    return {name: {scope: sorted(lines) for scope, lines in by_scope.items()} for name, by_scope in found.items()}


def violations(path: str, source: str) -> dict[str, dict[str, list[int]]]:
    """The matches in ``source``, read as file ``path``, outside the allowed set of each row for ``path``."""
    return {rule.name: {scope: lines for scope, lines in matches(source)[rule.name].items()
                        if not {(path, scope), (path, None)} & rule.allowed} for rule in RULES if path in rule.files}


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_one_place_rule_holds(rule):
    assert {path: found for path in rule.files if (found := violations(path, SOURCES[path])[rule.name])} == {}


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_allowed_sites_exist(rule):
    """Each allowed (file, scope) is a src/ file and a scope of it where the rule matches."""
    found = {path: matches(SOURCES[path])[rule.name] if path in SOURCES else {} for path, _ in rule.allowed}
    assert {(path, scope) for path, scope in rule.allowed
            if not (scope in found[path] or scope is None and found[path])} == set()


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_one_place_rule_flags_its_case_and_plant(rule):
    """The synthetic case matches as the rows that give it say; the planted violation is flagged
    at its marked lines by this row alone, and the allowed sites of its file are not."""
    assert {name: lines for name, lines in matches(rule.case[0]).items() if lines} == {
        other.name: other.case[1] for other in RULES if other.case[0] == rule.case[0]}
    path, scope, text, replacement = rule.plant
    planted = SOURCES[path].replace(text, replacement, 1) if text else SOURCES[path] + replacement
    marked = [n for n, line in enumerate(planted.splitlines(), 1) if line.endswith("# planted")]
    flagged = violations(path, planted)
    assert flagged[rule.name] == {scope: marked}
    assert [name for name, found in flagged.items() if set(marked) & set(chain(*found.values()))] == [rule.name]


# Every exception that src/ raises by name reaches one of cli.main's except
# clauses, so bad input exits 2 with a message instead of a traceback.


def caught_by_main(cli_source: str) -> set[str]:
    """The exception names in the ``except`` clauses of the module-level ``main``."""
    main = next(node for node in ast.parse(cli_source).body if isinstance(node, ast.FunctionDef) and node.name == "main")
    return {
        n.id for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler) and handler.type
        for n in ast.walk(handler.type) if isinstance(n, ast.Name)
    }


def unmapped_raises(source: str, namespace: dict, caught: tuple[type, ...]) -> list[str]:
    """``line N: name`` of each ``raise name`` or ``raise name(...)`` in ``source`` whose class,
    looked up in ``namespace`` and then the builtins, subclasses none of ``caught``.  The
    AttributeError of a module-level ``__getattr__`` is exempt: the module protocol asks for it."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Raise) and node.exc is not None):
                continue
            name = dotted(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            if getattr(top, "name", None) == "__getattr__" and name == "AttributeError":
                continue
            cls = namespace.get(name, getattr(builtins, name, None))
            if not (isinstance(cls, type) and issubclass(cls, caught)):
                found.append(f"line {node.lineno}: {name}")
    return found


def main_catches() -> tuple[type, ...]:
    names = caught_by_main((ROOT / "src" / "cocycle_lab" / "cli.py").read_text(encoding="utf-8"))
    return tuple(vars(cli).get(name, getattr(builtins, name, None)) for name in sorted(names))


def test_every_raised_exception_exits_2():
    caught = main_catches()
    assert all(isinstance(cls, type) and issubclass(cls, BaseException) for cls in caught)
    found = {}
    for p in SRC_FILES:
        module = importlib.import_module("cocycle_lab" if p.name == "__init__.py" else f"cocycle_lab.{p.stem}")
        found[str(p.relative_to(ROOT))] = unmapped_raises(p.read_text(encoding="utf-8"), vars(module), caught)
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_raise_scan_flags_and_exempts():
    cli_source = ("def main():\n    try:\n        pass\n    except (ValueError, Custom) as exc:\n        pass\n"
                  "    except MemoryError:\n        pass\ndef other():\n    try:\n        pass\n"
                  "    except KeyError:\n        pass\n")
    assert caught_by_main(cli_source) == {"ValueError", "Custom", "MemoryError"}
    source = ("def f():\n    raise KeyError('k')\ndef g(x):\n    raise Custom(x) from None\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n"
              "class C:\n    def m(self):\n        raise AttributeError('m')\n"
              "def h():\n    raise\nraise ValueError\nraise np.linalg.LinAlgError()\n")
    namespace = {"Custom": type("Custom", (RuntimeError,), {}), "np": np}
    assert unmapped_raises(source, namespace, (ValueError, namespace["Custom"])) == [
        "line 2: KeyError", "line 9: AttributeError", "line 13: np.linalg.LinAlgError"]
    # a KeyError planted in src/ is flagged against cli.main's real clauses
    planted = SOURCES[CORE] + "\n\ndef planted():\n    raise KeyError('planted')\n"
    assert unmapped_raises(planted, vars(importlib.import_module("cocycle_lab.core")), main_catches()) == [
        f"line {len(planted.splitlines())}: KeyError"]
