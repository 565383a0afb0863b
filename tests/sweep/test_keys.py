"""Cache keys: code digests, invalidation granularity, calibration."""

import dataclasses

import pytest

from repro.energy.calibration import CALIBRATION
from repro.harness.registry import get_spec
from repro.sweep.keys import CodeGraph, artifact_key, code_graph

# ---------------------------------------------------------------------------
# A synthetic package with a known import graph:
#
#     tables  -> costs -> kernels          (kernels is a leaf)
#     figures -> analytic                  (analytic is a leaf)
#     lazy    -> kernels (function-level import only)
# ---------------------------------------------------------------------------

_MODULES = {
    "__init__.py": "",
    "kernels.py": "WIDTH = 32\n",
    "analytic.py": "def area(m):\n    return m * m\n",
    "costs.py": "from pkg import kernels\n\nBASE = kernels.WIDTH\n",
    "tables.py": "from pkg.costs import BASE\n\n"
                 "def table():\n    return [BASE]\n",
    "figures.py": "from pkg.analytic import area\n\n"
                  "def figure():\n    return area(8)\n",
    "lazy.py": "def run():\n    from pkg import kernels\n"
               "    return kernels.WIDTH\n",
}


@pytest.fixture
def pkg(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    for name, text in _MODULES.items():
        (root / name).write_text(text)
    return root


def graph(root):
    return CodeGraph("pkg", root=root)


def test_closure_follows_static_imports(pkg):
    g = graph(pkg)
    assert g.closure("pkg.tables") == {
        "pkg", "pkg.tables", "pkg.costs", "pkg.kernels"}
    assert g.closure("pkg.figures") == {
        "pkg", "pkg.figures", "pkg.analytic"}


def test_closure_includes_lazy_function_level_imports(pkg):
    g = graph(pkg)
    assert "pkg.kernels" in g.closure("pkg.lazy")


def test_editing_a_module_invalidates_exactly_its_dependents(pkg):
    before = graph(pkg)
    (pkg / "kernels.py").write_text("WIDTH = 64\n")
    after = graph(pkg)
    # tables reaches kernels (via costs); figures does not
    assert after.digest("pkg.tables") != before.digest("pkg.tables")
    assert after.digest("pkg.costs") != before.digest("pkg.costs")
    assert after.digest("pkg.lazy") != before.digest("pkg.lazy")
    assert after.digest("pkg.figures") == before.digest("pkg.figures")
    assert after.digest("pkg.analytic") == before.digest("pkg.analytic")


def test_editing_init_invalidates_everything(pkg):
    before = graph(pkg)
    (pkg / "__init__.py").write_text("# touched\n")
    after = graph(pkg)
    for mod in ("pkg.tables", "pkg.figures", "pkg.kernels"):
        assert after.digest(mod) != before.digest(mod)


def test_unknown_module_raises(pkg):
    with pytest.raises(KeyError):
        graph(pkg).closure("pkg.nope")


# ---------------------------------------------------------------------------
# artifact_key over the real registry
# ---------------------------------------------------------------------------


def test_key_is_stable_and_distinct_per_artifact():
    t = get_spec("table", "7.5")
    f = get_spec("figure", "s7.8")
    assert artifact_key(t) == artifact_key(t)
    assert artifact_key(t) != artifact_key(f)


def test_calibration_change_invalidates_every_key():
    spec = get_spec("table", "7.5")
    tweaked = dataclasses.replace(CALIBRATION, ram_energy_scale=1.01)
    assert tweaked.fingerprint() != CALIBRATION.fingerprint()
    assert artifact_key(spec, calibration=tweaked) != artifact_key(spec)


def test_real_graph_table_producers_reach_the_kernel_generators():
    # tables price software configs from measured kernels, so editing a
    # kernel generator must invalidate table artifacts
    g = code_graph("repro")
    closure = g.closure(get_spec("table", "7.1").producer_module)
    assert "repro.kernels.prime_kernels" in closure
    # ...but nothing in the artifact stack imports the sweep engine
    # itself: engine edits never invalidate cached results
    assert "repro.sweep.engine" not in closure


_NESTED = '''
class C:
    import pkg.kernels
try:
    from pkg import costs
except ImportError:
    from . import analytic
else:
    pass
finally:
    import pkg.tables
match 1:
    case 1:
        for _ in ():
            with open("x"):
                while False:
                    if True:
                        pass
                    else:
                        from pkg.figures import figure
'''


def test_statement_walk_finds_every_import(pkg, monkeypatch):
    """Imports are statements, so the statement-list walk sees the same
    edges as a full ``ast.walk`` -- over the real package and over
    imports nested in every kind of statement block."""
    import ast

    from repro.sweep import keys

    (pkg / "nested.py").write_text(_NESTED)
    fast = [CodeGraph("repro"), graph(pkg)]
    monkeypatch.setattr(keys, "_statements", ast.walk)
    full = [CodeGraph("repro"), graph(pkg)]
    for f, w in zip(fast, full):
        assert f.edges == w.edges
    assert fast[1].edges["pkg.nested"] == {
        "pkg", "pkg.kernels", "pkg.costs", "pkg.analytic", "pkg.tables",
        "pkg.figures"}
