"""Spec-file parsing, validation errors with line references, and the
resolved object graph."""

import numpy as np
import pytest

from riemcheck.catalog import CATALOG, load, names
from riemcheck.specfile import SpecError, load_spec

MINI = """
version 1

manifold M
  coords x1 x2
  metric diag 1, 1
end

manifold N
  coords y1
  metric diag 1
end

map F
  source M
  target N
  components x1
end

frames F
  vertical V = 0, 1
  horizontal H = 1, 0
  range R = 1
end

function f on M = x1^2
vectorfield W on M = x2, -x1
vectorfield C on M = frame 0.5*V - 2*H

check
  seed 3
  points 20
  tol 1e-9
  suite metric riemannian_map
  clairaut source f
end
"""


def test_mini_spec_resolves():
    cfg = load_spec(MINI, name="mini")
    assert set(cfg.charts) == {"M", "N"}
    assert cfg.the_map().name == "F"
    assert cfg.check["seed"] == 3 and cfg.check["points"] == 20
    f = cfg.functions[("M", "f")]
    assert list(cfg.check["clairaut"]) == ["source"] and cfg.check["clairaut"]["source"] is f
    from riemcheck.expr import evaluate
    assert evaluate(f, {"x1": 3.0, "x2": 0.0}) == 9.0
    W = cfg.fields[("M", "W")]
    assert np.allclose(W.values(np.array([0.5, 0.25]))[0], [0.25, -0.5])
    C = cfg.fields[("M", "C")]  # 0.5*V - 2*H with V=(0,1), H=(1,0)
    assert np.allclose(C.values(np.array([0.1, 0.2]))[0], [-2.0, 0.5])


def test_mini_spec_runs():
    from riemcheck.suites import run_suite
    report = run_suite(load_spec(MINI, name="mini"))
    assert report.exit_code() == 0
    assert {c.id for c in report.checks} == {"metric", "riemannian_map"}


def test_malformed_metric_names_block():
    bad = MINI.replace("metric diag 1, 1", "metric diag 1, 1, 1")
    with pytest.raises(SpecError) as err:
        load_spec(bad)
    assert any("M" in p and "metric" in p for p in err.value.problems)


def test_unknown_identifier_carries_line():
    bad = MINI.replace("function f on M = x1^2", "function f on M = zz + 1")
    with pytest.raises(SpecError) as err:
        load_spec(bad)
    assert any("zz" in p for p in err.value.problems)


def test_frames_block_rejects_a_field_name_declared_twice_on_one_chart():
    bad = CATALOG["flat-lagrangian"].replace("normal E1 =", "normal R1 =")
    line = bad.splitlines().index("  normal R1 = 0, 0, 1, 0") + 1
    with pytest.raises(SpecError) as err:
        load_spec(bad)
    assert err.value.problems == [
        f"line {line}: field 'R1' is declared twice on manifold N"]


def test_unresolved_map_reference():
    bad = MINI.replace("source M", "source QQ")
    with pytest.raises(SpecError) as err:
        load_spec(bad)
    assert any("unresolved" in p for p in err.value.problems)


def test_nonlinear_frame_combo_rejected():
    bad = MINI.replace("frame 0.5*V - 2*H", "frame V*V")
    with pytest.raises(SpecError) as err:
        load_spec(bad)
    assert any("linear" in p or "non-field" in p for p in err.value.problems)


def test_unterminated_block():
    with pytest.raises(SpecError) as err:
        load_spec("manifold M\n  coords x1\n  metric diag 1")
    assert any("unterminated" in p for p in err.value.problems)


def test_unknown_check_key():
    bad = MINI.replace("seed 3", "sneed 3")
    with pytest.raises(SpecError) as err:
        load_spec(bad)
    assert any("sneed" in p for p in err.value.problems)


# -- catalog ----------------------------------------------------------------------

def test_catalog_names_complete():
    assert set(names()) == {
        "paper-3.1", "paper-4.1", "euclidean-kahler", "gaussian-soliton",
        "sphere-2", "hyperbolic-2", "revolution-surface", "warped-clairaut",
        "flat-lagrangian", "polar-kahler"}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_entries_load(name):
    cfg = load(name)
    assert cfg.name == name
    assert cfg.check["suite"], f"{name} declares no suite"


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        load("paper-9.9")


def test_paper31_catalog_content():
    cfg = load("paper-3.1")
    M = cfg.charts["M"]
    assert M.dim == 6 and len(M.constraints) == 6
    F = cfg.the_map()
    x = np.array([0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    assert np.allclose(F.values(x)[0], [0.6, 0.3, 0.0, 0.5, 0.0, 0.7])
    assert cfg.structure_on("M") is not None
    f = cfg.functions[("M", "f")]
    from riemcheck.expr import evaluate
    assert evaluate(f, dict(zip(M.coords, map(float, x)))) == -0.5


def test_paper41_catalog_content():
    cfg = load("paper-4.1")
    F = cfg.the_map()
    x = np.array([0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    assert np.allclose(F.values(x)[0], [0.0, 0.3, 0.0, 0.0, 0.6, 0.0])
    assert cfg.structure_on("N") is not None


def test_catalog_exercises_every_identity():
    # meta-test: every identity id is exercised by at least one catalog entry
    from riemcheck.propcheck import TABLE
    covered = set()
    for name in names():
        ck = load(name).check
        covered.update(ck["suite"])
        covered.update(ck["audit"])
    missing = (set(TABLE) | {"alpha_soliton_range", "ric_lie"}) - covered
    assert not missing, f"identities not exercised by any catalog entry: {missing}"


def test_section_right_inverse_property():
    # F(section(y)) must reproduce y on the image coordinates
    for name in ("paper-3.1", "paper-4.1", "flat-lagrangian", "warped-clairaut",
                 "polar-kahler", "revolution-surface"):
        cfg = load(name)
        F = cfg.the_map()
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.uniform(0.2, 0.9, size=F.source.dim)
            y = F.values(x)[0]
            from riemcheck.expr import evaluate
            sec = np.array([evaluate(s, dict(zip(F.target.coords, map(float, y))))
                            for s in F.section])
            assert np.allclose(F.values(sec)[0], y, atol=1e-12), name


def test_a_frame_combination_of_fields_that_share_components():
    """A combination over basis fields that are not coordinate-aligned, each
    term adding to every component, is the sum of its terms: its values are
    those of the combination written out by hand, at every sample point."""
    text = MINI.replace("  vertical V = 0, 1\n  horizontal H = 1, 0\n",
                        "  vertical V = -sin(x1), cos(x1)\n  horizontal H = cos(x1), sin(x1)\n")
    text = text.replace("vectorfield C on M = frame 0.5*V - 2*H",
                        "vectorfield C on M = frame x2*V - 2*H + 0.5*V\n"
                        "vectorfield D on M = -(x2 + 0.5)*sin(x1) - 2*cos(x1), "
                        "(x2 + 0.5)*cos(x1) - 2*sin(x1)")
    cfg = load_spec(text, name="turned")
    pts = cfg.charts["M"].sample_points(20, seed=5)
    got, want = cfg.fields[("M", "C")].values(pts), cfg.fields[("M", "D")].values(pts)
    assert np.max(np.abs(got - want)) <= 1e-14 and np.min(np.abs(got)) > 1e-3


# -- malformed lines ---------------------------------------------------------------

def _insert(text, anchor, line, before=False):
    """`text` with `line` put after (or before) the line `anchor`, and the
    number of the inserted line."""
    lines = text.splitlines()
    at = lines.index(anchor) + (0 if before else 1)
    lines.insert(at, line)
    return "\n".join(lines), at + 1


MALFORMED = [
    *[("  tol 1e-9", probe, False) for probe in (
        "conformal", "conformal field", "expect", "expect lambda", "expect ricci A B",
        "soliton", "geodesic from")],
    *[("  coords x1 x2", probe, False) for probe in (
        "constraint nonzero", "metric", "metric diag", "metric row")],
    ("  coords x1 x2", "constraint nonzero zz", True),
]


@pytest.mark.parametrize("anchor,line,before", MALFORMED,
                         ids=[line + " before coords" * before for _, line, before in MALFORMED])
def test_a_malformed_line_is_a_spec_error_naming_its_line(anchor, line, before):
    """A line with words missing, or naming an unknown coordinate before the
    coords line, is one SpecError problem that starts with its own line
    number and says what is wrong, not a bare IndexError or ValueError."""
    text, n = _insert(MINI, anchor, "  " + line, before)
    with pytest.raises(SpecError) as err:
        load_spec(text)
    [problem] = err.value.problems
    assert problem.startswith(f"line {n}: ") and len(problem) > len(f"line {n}: ")


@pytest.mark.parametrize("header", ["manifold N", "map F", "frames F", "structure J"])
def test_a_block_header_without_a_name_is_a_spec_error(header):
    text = CATALOG["paper-3.1"].replace(f"\n{header}\n", f"\n{header.split()[0]}\n")
    n = text.splitlines().index(header.split()[0]) + 1
    with pytest.raises(SpecError) as err:
        load_spec(text)
    assert err.value.problems == [f"line {n}: {header.split()[0]} block needs a name"]


# -- names in the check block --------------------------------------------------------

def test_check_block_names_resolve_to_the_declared_objects():
    """Every name a check block gives is looked up once, at load: the
    clairaut dilations (the target one on the map's target), the soliton
    potential and constants, the restricting frame, the conformal field and
    the stated Ricci pairs, whose fields keep their names."""
    text = MINI.replace("  clairaut source f\n", "  clairaut source f\n"
                        "  clairaut target g\n"
                        "  soliton field W alpha 2 lambda solve\n"
                        "  restrict V H\n"
                        "  conformal grad f\n"
                        "  expect ricci V C 0.5\n")
    text = text.replace("function f on M = x1^2", "function f on M = x1^2\nfunction g on N = y1")
    cfg = load_spec(text)
    ck, fields, functions = cfg.check, cfg.fields, cfg.functions
    assert ck["clairaut"]["source"] is functions[("M", "f")]
    assert ck["clairaut"]["target"] is functions[("N", "g")]
    sol = ck["soliton"]
    assert sol.xi is fields[("M", "W")] and sol.f is None
    assert (sol.alpha, sol.lam, sol.g) == (2.0, "solve", cfg.metrics["M"])
    assert [X.name for X in ck["restrict"]] == ["V", "H"]
    assert all(X is fields[("M", X.name)] for X in ck["restrict"])
    assert ck["conformal"] is functions[("M", "f")]
    [(Xa, Xb, value)] = ck["expect_ricci"]
    assert (Xa, Xb, value) == (fields[("M", "V")], fields[("M", "C")], 0.5)
    assert (Xa.name, Xb.name) == ("V", "C")


FLAT = """
manifold M
  coords x1 x2
  metric diag 1, 1
end
vectorfield W on M = 1, 0
function u on M = x1
check
  suite metric
end
"""


def test_two_unknown_check_block_names_are_two_problems():
    """A failed lookup does not stop the loader: each line with an unknown
    name is its own problem, and a field name is not a function name."""
    text, n = _insert(FLAT, "  suite metric", "  restrict nosuch")
    text, m = _insert(text, "  restrict nosuch", "  soliton grad W alpha 1 lambda 0")
    with pytest.raises(SpecError) as err:
        load_spec(text)
    assert err.value.problems == [f"line {n}: unknown field 'nosuch' on M",
                                  f"line {m}: unknown function 'W' on M"]


@pytest.mark.parametrize("line,problem", [
    ("clairaut target u", "clairaut target needs a map"),
    ("soliton field W alpha 0 lambda 0", "alpha must be nonzero"),
], ids=["clairaut-target-without-map", "soliton-alpha-0"])
def test_a_check_line_that_cannot_be_resolved_is_a_load_error(line, problem):
    text, n = _insert(FLAT, "  suite metric", "  " + line)
    with pytest.raises(SpecError) as err:
        load_spec(text)
    assert err.value.problems == [f"line {n}: {problem}"]


def test_check_block_names_need_a_check_chart():
    """With two manifolds and no map there is no chart to look a name up on:
    each naming line says so, and a spec without such lines still loads."""
    two = FLAT.replace("vectorfield W", "manifold N\n  coords y1\n  metric diag 1\nend\n"
                       "vectorfield W")
    load_spec(two)
    text, n = _insert(two, "  suite metric", "  restrict W")
    with pytest.raises(SpecError) as err:
        load_spec(text)
    assert err.value.problems == [f"line {n}: check block needs a map or a single manifold"]


@pytest.mark.parametrize("line,problem", [
    ("vectorfield V on M = 1, 0", "field 'V' is declared twice on manifold M"),
    ("vectorfield W on M = 1, 0", "field 'W' is declared twice on manifold M"),
    ("function f on M = x2", "function 'f' is declared twice on manifold M"),
], ids=["frame-field", "vectorfield", "function"])
def test_a_name_declared_twice_on_a_manifold_is_a_spec_error(line, problem):
    """A vectorfield may not take the name of a frame field or of an earlier
    vectorfield, nor a function that of an earlier function, on the same
    manifold: the later declaration used to replace the entry that check
    lines and frame combinations read."""
    text, n = _insert(MINI, "vectorfield C on M = frame 0.5*V - 2*H", line)
    with pytest.raises(SpecError) as err:
        load_spec(text)
    assert err.value.problems == [f"line {n}: {problem}"]
