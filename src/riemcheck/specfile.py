"""Line-oriented configuration files.

A spec file declares manifolds (charts + metrics), maps, adapted frames,
almost complex structures, scalar functions, vector fields and one check
block.  Grammar (# comments and blank lines ignored; expressions use the
package expression grammar; components separated by commas):

    version 1

    manifold NAME
      coords x1 x2 ...
      constraint nonzero|positive EXPR
      metric diag E1, E2, ...          -- or n 'metric row' lines
      metric row E11, E12, ...
    end

    map NAME
      source MANIFOLD
      target MANIFOLD
      components E1, E2, ...           -- one per target coordinate
      section E1, E2, ...              -- optional right inverse (per source coord)
    end

    frames MAPNAME
      vertical NAME = E1, E2, ...      -- likewise horizontal / range / normal
      mu NAME ...                      -- names of already-declared fields
      nu NAME ...
    end

    structure NAME
      manifold MANIFOLD
      frame F1 F2 ...                  -- frame mode: action lines follow
      action F1 = cos(t)*F2 + ...      -- J F1 as a combination of frame fields
      row E1, E2, ...                  -- coordinate mode: n rows of J^i_j
    end

    function NAME on MANIFOLD = EXPR
    vectorfield NAME on MANIFOLD = E1, E2, ...
    vectorfield NAME on MANIFOLD = frame 0.3*U1 - 0.2*X2 + ...

    check
      seed N | points N | tol X | box LO HI
      suite ID ...                     -- pass/fail checks
      audit ID ...                     -- ledger-only checks
      clairaut source|target FUNCNAME
      soliton field NAME alpha X lambda X|solve
      soliton grad FUNCNAME alpha X lambda X|solve
      restrict NAME ...                -- frame for soliton/conformal restriction
      conformal field NAME | conformal grad FUNCNAME
      expect ricci NAME NAME VALUE
      expect lambda VALUE
      geodesic from V,V dir V,V t X dt X monitor clairaut|none
    end

The names a check block gives are resolved at load, on the check chart (the
map's source, or the single manifold; `clairaut target` on the map's
target), so `SpecConfig.check` holds the fields, functions and
SolitonConfig they name.  `load_spec` raises one SpecError naming every
malformed line or unknown name as 'line N: ...'; a fault in the block
structure itself stops reading at its line.
"""

from __future__ import annotations

import numpy as np

from .expr import ExprError, ParseError, parse, substitute, variables
from .expr.nodes import ZERO, Const, is_const
from .geometry import Chart, GeometryError, MetricField, VectorField
from .rmap import AdaptedFrames, MapGeometry, SmoothMap
from .soliton import SolitonConfig
from .structure import AlmostComplexStructure


class SpecError(Exception):
    def __init__(self, problems):
        self.problems = [problems] if isinstance(problems, str) else list(problems)
        super().__init__("; ".join(self.problems))


class SpecConfig:
    """Resolved object graph of one spec file."""

    def __init__(self, name="spec"):
        self.name = name
        self.charts = {}
        self.metrics = {}
        self.maps = {}
        self.frames = {}
        self.fields = {}      # (chart_name, field_name) -> VectorField
        self.functions = {}   # (chart_name, func_name) -> Expr
        self.structures = {}  # name -> (chart_name, AlmostComplexStructure)
        self.check = {
            "seed": 0, "points": 50, "tol": 1e-8, "box": (0.1, 1.0),
            "suite": [], "audit": [], "clairaut": {}, "soliton": None,
            "restrict": [], "conformal": None, "expect_ricci": [],
            "expect_lambda": None, "geodesic": None,
        }

    # -- convenience lookups used by the suite runner --
    def the_map(self):
        if not self.maps:
            return None
        if len(self.maps) > 1:
            raise SpecError("multiple maps declared; suites support one")
        return next(iter(self.maps.values()))

    def map_geometry(self):
        F = self.the_map()
        if F is None:
            return None
        frames = self.frames.get(F.name, AdaptedFrames())
        return MapGeometry(F, self.metrics[F.source.name],
                           self.metrics[F.target.name], frames)

    def structure_on(self, chart_name):
        return next((J for cn, J in self.structures.values() if cn == chart_name), None)

    def check_chart(self):
        """The chart of the check block's names and sample points: the map's
        source, or the single manifold."""
        F = self.the_map()
        if F is not None:
            return F.source
        if len(self.charts) != 1:
            raise SpecError("check block needs a map or a single manifold")
        return next(iter(self.charts.values()))


class _Blocks:
    """The physical lines grouped into blocks, each body line split once on
    whitespace into (line number, head word, rest of the line), and the
    problems found while reading them."""

    def __init__(self, text):
        self.blocks = []  # (kind, name, line number, body lines)
        self.errors = []
        self._reading = []  # line numbers of the open `line` contexts
        current = None
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, rest = _head(line)
            if current is not None:
                if line == "end":
                    self.blocks.append(current)
                    current = None
                else:
                    current[3].append((ln, head, rest))
            elif head in ("manifold", "map", "frames", "structure", "check"):
                if head == "check" and rest:
                    raise SpecError(f"line {ln}: check block takes no name")
                if head != "check" and not rest:
                    raise SpecError(f"line {ln}: {head} block needs a name")
                current = (head, (rest.split() or [None])[0], ln, [])
            elif head in ("version", "function", "vectorfield"):
                self.blocks.append((head, None, ln, [(ln, head, rest)]))
            else:
                raise SpecError(f"line {ln}: unexpected {head!r}")
        if current is not None:
            raise SpecError(f"line {current[2]}: unterminated {current[0]} block")

    def of(self, *kinds):
        """The blocks of these kinds, in text order."""
        return [b for b in self.blocks if b[0] in kinds]

    def line(self, ln):
        """Context for reading line `ln`, nestable: a content error raised
        inside it becomes the problem 'line N: ...' and the rest of the
        `with` body is skipped."""
        self._reading.append(ln)
        return self

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        ln = self._reading.pop()
        if isinstance(exc, (ParseError, ExprError, GeometryError, ValueError, KeyError,
                            SpecError)):
            # str() of a KeyError is the repr of its message
            self.errors.append(f"line {ln}: {exc.args[0] if isinstance(exc, KeyError) else exc}")
            return True


def _head(text):
    """The first word of `text` and the rest of it, each '' when missing."""
    return (text.split(None, 1) + ["", ""])[:2]


def _words(key, text, usage):
    """The words of `text`, one per word of `usage`, where a lower-case word
    ('alpha', 'field|grad') is literal; else ValueError('<key> wants <usage>')."""
    words, want = text.split(), usage.split()
    if len(words) != len(want) or any(w not in u.split("|")
                                      for w, u in zip(words, want) if u.islower()):
        raise ValueError(f"{key} wants {usage}")
    return words


def _parts(text):
    """The comma-separated components of `text`."""
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise ValueError("empty component")
    return parts


def _get(table, key, what):
    """table[key]; KeyError('unknown <what>') when it is missing."""
    if key not in table:
        raise KeyError(f"unknown {what}")
    return table[key]


def _declare(table, chart_name, nm, value, what):
    """table[(chart_name, nm)] = value; ValueError when the name is taken."""
    if (chart_name, nm) in table:
        raise ValueError(f"{what} {nm!r} is declared twice on manifold {chart_name}")
    table[(chart_name, nm)] = value


def _named(cfg, kind, chart, nm):
    """The declared field (kind 'field') or function (any other kind) `nm`
    on `chart`."""
    table, what = (cfg.fields, "field") if kind == "field" else (cfg.functions, "function")
    return _get(table, (chart.name, nm), f"{what} {nm!r} on {chart.name}")


def _matrix(chart, rows, what):
    """The n x n matrix of `rows`, lists of entry texts or expressions."""
    n = chart.dim
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"{what} must be {n}x{n}")
    mat = np.empty((n, n), dtype=object)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            mat[i, j] = chart.parse(e) if isinstance(e, str) else e
    return mat


def _linear_combo(rhs, basis_names, chart):
    """Parse a linear combination of named fields with expression
    coefficients; coefficients are extracted by exact differentiation with
    respect to the name pseudo-variables."""
    e = parse(rhs, allowed=chart.coords + tuple(basis_names))
    coeffs = [chart.simplify(chart.differentiate(e, nm), ()) for nm in basis_names]
    # linearity check: residual of rhs - sum(c_i * name_i) must be the zero
    # expression once the names are substituted out
    const_part = chart.simplify(substitute(e, {nm: Const(0.0) for nm in basis_names}), ())
    if not is_const(const_part, 0.0):
        raise ValueError(f"combination has a non-field term ({const_part})")
    nonlinear = [nm for c in coeffs for nm in basis_names if nm in variables(c)]
    if nonlinear:
        raise ValueError(f"combination is not linear in {nonlinear[0]}")
    return coeffs


def _manifolds(cfg, blocks):
    for _, bname, where, lines in blocks.of("manifold"):
        coords, constraints, diag, rows = None, [], None, []
        for ln, head, rest in lines:
            with blocks.line(ln):
                if head == "coords":
                    coords = tuple(rest.split())
                elif head == "constraint":
                    kind, text = _head(rest)
                    if kind not in ("nonzero", "positive") or not text:
                        raise ValueError("constraint wants nonzero|positive EXPR")
                    constraints.append((ln, kind, text))
                elif head == "metric":
                    sub, text = _head(rest)
                    if sub not in ("diag", "row") or not text:
                        raise ValueError("metric wants diag|row E1, E2, ...")
                    parts = _parts(text)
                    if sub == "row":
                        rows.append(parts)
                    else:
                        diag = [[ZERO] * i + [p] + [ZERO] * (len(parts) - i - 1)
                                for i, p in enumerate(parts)]
                else:
                    raise ValueError(f"unknown manifold key {head!r}")
        with blocks.line(where):
            if coords is None:
                raise ValueError(f"manifold {bname} missing coords")
            cons = []
            for ln, kind, text in constraints:
                with blocks.line(ln):
                    cons.append((parse(text, allowed=coords), kind))
            chart = cfg.charts[bname] = Chart(bname, coords, cons)
            if diag is None and not rows:
                raise ValueError(f"manifold {bname} missing metric")
            cfg.metrics[bname] = MetricField(
                chart, _matrix(chart, rows if diag is None else diag,
                               f"metric of manifold {bname}"))


def _maps(cfg, blocks):
    for _, bname, where, lines in blocks.of("map"):
        keys = {}
        for ln, head, rest in lines:
            with blocks.line(ln):
                if head in ("source", "target"):
                    keys[head] = rest
                elif head in ("components", "section"):
                    keys[head] = _parts(rest)
                else:
                    raise ValueError(f"unknown map key {head!r}")
        with blocks.line(where):
            if keys.get("source") not in cfg.charts or keys.get("target") not in cfg.charts:
                raise KeyError(f"map {bname}: unresolved source/target")
            if "components" not in keys:
                raise ValueError(f"map {bname} missing components")
            schart, tchart = cfg.charts[keys["source"]], cfg.charts[keys["target"]]
            section = keys.get("section")
            cfg.maps[bname] = SmoothMap(
                schart, tchart, [schart.parse(c) for c in keys["components"]],
                name=bname, section=section and [tchart.parse(c) for c in section])


def _frames(cfg, blocks):
    for _, bname, where, lines in blocks.of("frames"):
        with blocks.line(where):
            F = _get(cfg.maps, bname, f"map {bname!r} for a frames block")
            groups = {"vertical": [], "horizontal": [], "range": [], "normal": []}
            subsets = {}
            for ln, head, rest in lines:
                with blocks.line(ln):
                    chart = F.target if head in ("range", "normal", "nu") else F.source
                    if head in groups:
                        nm, eq, text = (s.strip() for s in rest.partition("="))
                        if not eq:
                            raise ValueError("frame entry needs NAME = components")
                        fld = VectorField(chart, [chart.parse(c) for c in _parts(text)], name=nm)
                        _declare(cfg.fields, chart.name, nm, fld, "field")
                        groups[head].append(fld)
                    elif head in ("mu", "nu"):
                        subsets[head] = (ln, chart.name, rest.split())
                    else:
                        raise ValueError(f"unknown frames key {head!r}")
            picked = {}
            for head, (ln, chart_name, names) in subsets.items():
                with blocks.line(ln):
                    picked[head] = [_get(cfg.fields, (chart_name, nm),
                                         f"{head} field {nm!r}") for nm in names]
            cfg.frames[bname] = AdaptedFrames(
                vertical=groups["vertical"], horizontal=groups["horizontal"],
                range_=groups["range"], normal=groups["normal"],
                mu=picked.get("mu"), nu=picked.get("nu"))


def _declarations(cfg, blocks):
    """Standalone functions and fields, before structures, which may
    reference declared fields."""
    for kind, _, ln, [(_, _, rest)] in blocks.of("function", "vectorfield"):
        with blocks.line(ln):
            words = rest.split(None, 4)
            if len(words) != 5 or words[1] != "on" or words[3] != "=":
                raise ValueError(f"malformed {kind} declaration")
            nm, _, chart_name, _, rhs = words
            chart = _get(cfg.charts, chart_name, f"manifold {chart_name!r}")
            if kind == "function":
                _declare(cfg.functions, chart_name, nm, chart.parse(rhs), "function")
                continue
            if rhs.startswith("frame "):
                fields = [f for (cn, _), f in cfg.fields.items() if cn == chart_name]
                coeffs = _linear_combo(rhs[len("frame "):], [f.name for f in fields], chart)
                comps = [chart.simplify(sum((c * fld.comps[i] for c, fld in zip(coeffs, fields)),
                                            Const(0.0)), ())
                         for i in range(chart.dim)]
            else:
                comps = [chart.parse(c) for c in _parts(rhs)]
            _declare(cfg.fields, chart_name, nm, VectorField(chart, comps, name=nm), "field")


def _structures(cfg, blocks):
    for _, bname, where, lines in blocks.of("structure"):
        chart_name, frame_names, actions, rows = None, None, [], []
        for ln, head, rest in lines:
            with blocks.line(ln):
                if head == "manifold":
                    chart_name = rest
                elif head == "frame":
                    frame_names = rest.split()
                elif head == "action":
                    nm, eq, rhs = (s.strip() for s in rest.partition("="))
                    if not eq:
                        raise ValueError("action needs NAME = combination")
                    actions.append((ln, nm, rhs))
                elif head == "row":
                    rows.append(_parts(rest))
                else:
                    raise ValueError(f"unknown structure key {head!r}")
        with blocks.line(where):
            chart = _get(cfg.charts, chart_name, f"manifold {chart_name!r}")
            if not frame_names:
                J = AlmostComplexStructure(chart, _matrix(chart, rows, f"structure {bname}"))
            else:
                g = _get(cfg.metrics, chart_name, f"metric of manifold {chart_name!r}")
                fields = [_get(cfg.fields, (chart_name, nm), f"frame field {nm!r}")
                          for nm in frame_names]
                act = np.full((chart.dim, chart.dim), Const(0.0), dtype=object)
                index = {nm: i for i, nm in enumerate(frame_names)}
                for ln, nm, rhs in actions:
                    with blocks.line(ln):
                        a = _get(index, nm, f"frame field {nm!r} in an action")
                        act[:, a] = _linear_combo(rhs, frame_names, chart)
                J = AlmostComplexStructure.from_frame(g, fields, act)
            cfg.structures[bname] = (chart_name, J)


def _check_key(cfg, head, rest):
    ck = cfg.check
    if head in ("seed", "points"):
        ck[head] = int(rest)
    elif head == "tol":
        ck["tol"] = float(rest)
    elif head == "box":
        ck["box"] = tuple(float(v) for v in _words("box", rest, "LO HI"))
    elif head in ("suite", "audit"):
        ck[head].extend(rest.split())
    elif head == "clairaut":
        side, fname = _words("clairaut", rest, "source|target FUNCNAME")
        F = cfg.the_map()
        if side == "target" and F is None:
            raise ValueError("clairaut target needs a map")
        chart = F.target if side == "target" else cfg.check_chart()
        ck["clairaut"][side] = _named(cfg, "function", chart, fname)
    elif head == "soliton":
        kind, nm, _, alpha, _, lam = _words(
            "soliton", rest, "field|grad NAME alpha X lambda X|solve")
        chart = cfg.check_chart()
        potential = _named(cfg, kind, chart, nm)
        g = _get(cfg.metrics, chart.name, f"metric of manifold {chart.name!r}")
        ck["soliton"] = SolitonConfig(g, alpha=float(alpha), lam=lam,
                                      **{"xi" if kind == "field" else "f": potential})
    elif head == "restrict":
        ck["restrict"] = [_named(cfg, "field", cfg.check_chart(), nm) for nm in rest.split()]
    elif head == "conformal":
        kind, nm = _words("conformal", rest, "field|grad NAME")
        ck["conformal"] = _named(cfg, kind, cfg.check_chart(), nm)
    elif head == "expect":
        kind, tail = _head(rest)
        if kind == "ricci":
            a, b, value = _words("expect ricci", tail, "NAME NAME VALUE")
            chart = cfg.check_chart()
            ck["expect_ricci"].append((_named(cfg, "field", chart, a),
                                       _named(cfg, "field", chart, b), float(value)))
        elif kind == "lambda":
            ck["expect_lambda"] = float(*_words("expect lambda", tail, "VALUE"))
        else:
            raise ValueError("expect wants ricci NAME NAME VALUE or lambda VALUE")
    elif head == "geodesic":
        words = rest.split()
        if len(words) % 2:
            raise ValueError("geodesic wants KEY VALUE pairs: from V,V dir V,V "
                             "t X dt X monitor clairaut|none")
        geo = {}
        for key, val in zip(words[::2], words[1::2]):
            if key in ("from", "dir"):
                geo[key] = [float(v) for v in val.split(",")]
            elif key in ("t", "dt"):
                geo[key] = float(val)
            elif key == "monitor":
                geo[key] = val
            else:
                raise ValueError(f"unknown geodesic key {key!r}")
        ck["geodesic"] = geo
    else:
        raise ValueError(f"unknown check key {head!r}")


def load_spec(text, name="spec") -> SpecConfig:
    """Parse and resolve a spec file; raises SpecError carrying every
    problem found, each with its line number."""
    cfg = SpecConfig(name)
    blocks = _Blocks(text)
    for read in (_manifolds, _maps, _frames, _declarations, _structures):
        read(cfg, blocks)
    for _, _, _, lines in blocks.of("check"):
        for ln, head, rest in lines:
            with blocks.line(ln):
                _check_key(cfg, head, rest)
    if blocks.errors:
        raise SpecError(blocks.errors)
    return cfg
