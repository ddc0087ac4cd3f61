"""Source hygiene: every imported name in src/ and tests/ is used,
every private module-level helper in src/ is referenced in src/, every
public name (exported, or a module-level function or class in src/) is
referenced in src/, the release gate or README's Library section, only
core.py spells out the JSON type rules, no norm is formed in linear
space outside the scalar reference, log |v| is formed from grid vectors
only in SampleGrid.log_magnitudes, every exception that src/ raises
by name is one that cli.main turns into exit 2, only the two law
checkers and certificates._sample call core._report, only core.py
calls a model's log_factors, and certificates.py reads a model's
strongly_measurable flag only in _datko_stats."""

import ast
import builtins
import importlib
import re
from pathlib import Path

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
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SRC_FILES}
    assert dead_helpers(sources) == []


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


def bool_checks(source: str) -> list[int]:
    """Lines of the ``isinstance(..., bool)`` calls in ``source``, a tuple of
    types included: telling a JSON number from a bool is core.py's job."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
    ]


def test_json_type_rules_live_in_core():
    found = {
        str(p.relative_to(ROOT)): bool_checks(p.read_text(encoding="utf-8")) for p in SRC_FILES if p.name != "core.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_bool_check_scan_flags_and_exempts():
    source = ("isinstance(a, bool)\nisinstance(b, (int, bool))\nisinstance(c, int)\nbool(d)\n"
              "x.isinstance(e, bool)\nif not isinstance(f, int) or isinstance(f, bool): pass\n")
    assert bool_checks(source) == [1, 2, 6]


# Linear-space norms: a vector norm is formed in log space by core._log_norm,
# and only the scalar reference core.log_cocycle_norm may sum in linear space.
LINEAR_NORMS = {"math.fsum", "math.hypot", "np.hypot", "np.linalg.norm"}


def dotted(node: ast.AST) -> str:
    """``a.b.c`` for a chain of attributes on a name, else ""."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def linear_norms(source: str, allowed: str = "") -> list[int]:
    """Lines of ``source`` that name one of ``LINEAR_NORMS``, or import one by name,
    outside the module-level function ``allowed``."""
    tree = ast.parse(source)
    exempt = {
        id(n) for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == allowed for n in ast.walk(node)
    }
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.replace("numpy", "np", 1) if node.module.startswith("numpy") else node.module
            names = {f"{module}.{alias.name}" for alias in node.names}
        else:
            names = {dotted(node)} if isinstance(node, ast.Attribute) else set()
        if names & LINEAR_NORMS:
            lines.append(node.lineno)
    return sorted(lines)


def test_linear_norms_live_in_the_scalar_reference():
    found = {
        str(p.relative_to(ROOT)): linear_norms(p.read_text(encoding="utf-8"),
                                               "log_cocycle_norm" if p.name == "core.py" else "")
        for p in SRC_FILES
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_linear_norm_scan_flags_and_exempts():
    source = ("def log_cocycle_norm(v):\n    return math.fsum(v) + np.linalg.norm(v)\n"
              "def other(v):\n    return math.fsum(v)\n"
              "n = np.hypot(a, b) + math.hypot(c) + np.linalg.norm(d)\n"
              "from math import fsum\nfrom numpy.linalg import norm\nfrom numpy import hypot, log\n"
              "x = np.log(v) + math.exp(1) + linalg.norm(v) + fsum(v)\n")
    assert linear_norms(source, "log_cocycle_norm") == [4, 5, 5, 5, 6, 7, 8]
    assert linear_norms(source) == [2, 2, 4, 5, 5, 5, 6, 7, 8]


# Vector magnitudes: grid vectors reach every norm as log |v|, which only
# SampleGrid.log_magnitudes forms from them.  The gate API
# integrate_norm_trajectory takes a linear vector, and the scalar reference
# log_cocycle_norm reads one, so each converts its own.
LOG_MAGNITUDE_SITES = {
    "src/cocycle_lab/core.py": {"SampleGrid.log_magnitudes", "log_cocycle_norm"},
    "src/cocycle_lab/quadrature.py": {"integrate_norm_trajectory"},
}
LOGS = {"np.log", "math.log"}
ABSOLUTES = {"np.abs", "np.absolute", "np.fabs", "abs", "math.fabs"}


def log_magnitudes(source: str) -> dict[str, list[int]]:
    """Lines of the ``log(abs(...))`` calls in ``source``, numpy's or math's, by their
    scope: the module-level function, ``Class.method`` or "" at module level."""
    tree = ast.parse(source)
    scope = {}
    for top in tree.body:
        for member in top.body if isinstance(top, ast.ClassDef) else [top]:
            name = getattr(member, "name", "")
            name = f"{top.name}.{name}" if member is not top else name
            scope.update((id(n), name) for n in ast.walk(member))
    found: dict[str, list[int]] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and dotted(node.func) in LOGS and node.args
                and isinstance(node.args[0], ast.Call) and dotted(node.args[0].func) in ABSOLUTES):
            found.setdefault(scope[id(node)], []).append(node.lineno)
    return found


def test_log_magnitudes_are_formed_in_one_place():
    found = {
        f"{p.relative_to(ROOT)}: {name}": lines
        for p in SRC_FILES
        for name, lines in log_magnitudes(p.read_text(encoding="utf-8")).items()
        if name not in LOG_MAGNITUDE_SITES.get(str(p.relative_to(ROOT)), set())
    }
    assert found == {}


def test_log_magnitude_scan_flags_and_exempts():
    source = ("import math\nclass Grid:\n    size = abs(-1)\n    @property\n    def mags(self):\n"
              "        return np.log(np.abs(self.v))\n"
              "def norms(v):\n    with np.errstate(divide='ignore'):\n"
              "        return np.log(np.abs(v)).reshape(-1) + np.log(v) + np.abs(np.log(v))\n"
              "def scalar(v):\n    return [math.log(abs(c)) for c in v] + [math.log(math.fabs(c)) for c in v]\n"
              "top = np.log(np.absolute(w))\n")
    assert log_magnitudes(source) == {"Grid.mags": [6], "norms": [9], "scalar": [11, 11], "": [12]}
    # a fourth site planted in core.py is flagged; the three allowed ones are not
    core = (ROOT / "src" / "cocycle_lab" / "core.py").read_text(encoding="utf-8")
    planted = core + "\n\ndef planted(vectors):\n    return np.log(np.abs(vectors))\n"
    sites = log_magnitudes(planted)
    assert set(sites) == {"SampleGrid.log_magnitudes", "log_cocycle_norm", "planted"}
    assert sites["planted"] == [len(planted.splitlines())]


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
    core = (ROOT / "src" / "cocycle_lab" / "core.py").read_text(encoding="utf-8")
    planted = core + "\n\ndef planted():\n    raise KeyError('planted')\n"
    assert unmapped_raises(planted, vars(importlib.import_module("cocycle_lab.core")), main_catches()) == [
        f"line {len(planted.splitlines())}: KeyError"]


# One sampler: every certificate check and theorem sampler maps its margin over
# a statistic's (base, vector, (t, s, t0), values) rows through
# certificates._sample; only it and the two law checkers call core._report,
# and no helper rebuilds the sample coordinates apart from the statistic.
REPORT_CALLERS = {
    "src/cocycle_lab/core.py": {"check_semiflow_laws", "check_cocycle_laws"},
    "src/cocycle_lab/certificates.py": {"_sample"},
}


def report_callers(source: str) -> tuple[dict[str, list[int]], list[int]]:
    """(lines of the ``_report`` calls by module-level function, "" at module level;
    lines of every function named ``_at``) in ``source``."""
    tree = ast.parse(source)
    scope = {id(n): getattr(top, "name", "") for top in tree.body for n in ast.walk(top)}
    calls: dict[str, list[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and dotted(node.func).split(".")[-1] == "_report":
            calls.setdefault(scope[id(node)], []).append(node.lineno)
    ats = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_at"]
    return calls, ats


def test_only_the_sampler_and_the_law_checkers_report():
    found = {}
    for p in SRC_FILES:
        name = str(p.relative_to(ROOT))
        calls, ats = report_callers(p.read_text(encoding="utf-8"))
        for caller, lines in calls.items():
            if caller not in REPORT_CALLERS.get(name, set()):
                found[f"{name}: {caller}"] = lines
        if ats:
            found[f"{name}: _at"] = ats
    assert found == {}


def test_report_caller_scan_flags_and_exempts():
    source = ("def _sample(rows):\n    return _report('c', 0.0, None, (r for r in rows))\n"
              "def check(rows):\n    return core._report('c', 0.0, None, rows) or report(rows)\n"
              "class C:\n    def m(self):\n        def _at(g):\n            return _report\n"
              "x = _report('c', 0.0, None, [])\n")
    assert report_callers(source) == ({"_sample": [2], "check": [4], "": [9]}, [7])
    # a direct call planted in a checker of certificates.py is flagged; _sample's is not
    certificates = (ROOT / "src" / "cocycle_lab" / "certificates.py").read_text(encoding="utf-8")
    planted = certificates.replace(
        'return _sample("instability", tol, margin_sink,', 'return _report("instability", tol, margin_sink,', 1
    )
    assert planted != certificates
    planted += "\n\ndef _at(grid, k, i):\n    pass\n"
    calls, ats = report_callers(planted)
    assert set(calls) == {"_sample", "check_instability"}
    assert ats == [planted.splitlines().index("def _at(grid, k, i):") + 1]


# One evaluation entry: outside core.py, a model's log factors are read
# through core._log_factors, which names the first (t, s) whose factors are
# +inf or NaN; nothing calls ``<expr>.log_factors(...)`` itself.


def log_factor_calls(source: str) -> list[int]:
    """Lines of the ``<expr>.log_factors(...)`` calls in ``source``."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "log_factors"
    ]


def test_only_core_calls_log_factors():
    found = {
        str(p.relative_to(ROOT)): log_factor_calls(p.read_text(encoding="utf-8")) for p in SRC_FILES if p.name != "core.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_log_factor_call_scan_flags_and_exempts():
    source = ("g = xi.log_factors(t, s, x)\nh = _log_factors(xi, t, s, x) + log_factors(t, s, x)\n"
              "f = xi.log_factors\nk = model().log_factors(t, s, x).T\nModel(semiflow=s, log_factors=log_factors)\n")
    assert log_factor_calls(source) == [1, 4]
    # the direct call the Datko integrand once made is flagged in quadrature.py
    quadrature = (ROOT / "src" / "cocycle_lab" / "quadrature.py").read_text(encoding="utf-8")
    planted = quadrature.replace("_log_factors(xi, taus, t0s[rows], x)", "xi.log_factors(taus, t0s[rows], x)", 1)
    assert planted != quadrature
    assert log_factor_calls(quadrature) == []
    assert log_factor_calls(planted) == [
        next(n for n, line in enumerate(planted.splitlines(), 1) if "xi.log_factors(" in line)]


# One measurability gate: the Datko statistic refuses a model that is not
# strongly measurable, and the integral-instability estimator and checker read
# that statistic, so no other function of certificates.py reads the flag.


def measurability_reads(source: str) -> dict[str, list[int]]:
    """Lines of the ``<expr>.strongly_measurable`` reads by module-level function, "" at module level."""
    tree = ast.parse(source)
    scope = {id(n): getattr(top, "name", "") for top in tree.body for n in ast.walk(top)}
    reads: dict[str, list[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "strongly_measurable" and isinstance(node.ctx, ast.Load):
            reads.setdefault(scope[id(node)], []).append(node.lineno)
    return reads


def test_certificates_read_measurability_in_one_place():
    certificates = (ROOT / "src" / "cocycle_lab" / "certificates.py").read_text(encoding="utf-8")
    assert set(measurability_reads(certificates)) == {"_datko_stats"}


def test_measurability_scan_flags_and_exempts():
    source = ("def gate(xi):\n    return xi.strongly_measurable\n"
              "def build(xi):\n    return replace(xi, strongly_measurable=False), strongly_measurable\n"
              "flag = model().strongly_measurable\n")
    assert measurability_reads(source) == {"gate": [2], "": [5]}
    # the estimator's own copy of the gate, planted back, is flagged
    certificates = (ROOT / "src" / "cocycle_lab" / "certificates.py").read_text(encoding="utf-8")
    docstring = '    """Fit M_hat(t) = max(1, (1 + headroom) * worst integral-to-norm ratio)."""\n'
    gate = "    if not xi.strongly_measurable:\n        raise ValueError\n"
    planted = certificates.replace(docstring, docstring + gate, 1)
    assert planted != certificates
    assert set(measurability_reads(planted)) == {"_datko_stats", "estimate_integral_instability"}
