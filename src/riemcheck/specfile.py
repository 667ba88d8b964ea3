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
"""

from __future__ import annotations

import numpy as np

from .expr import ParseError, differentiate, parse, simplify, substitute, variables
from .expr.nodes import Const, is_const
from .geometry import Chart, GeometryError, MetricField, VectorField
from .rmap import AdaptedFrames, MapGeometry, SmoothMap
from .structure import AlmostComplexStructure


class SpecError(Exception):
    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
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
        for _, (cn, J) in self.structures.items():
            if cn == chart_name:
                return J
        return None

    def field(self, chart_name, name):
        return self.fields[(chart_name, name)]

    def function(self, chart_name, name):
        return self.functions[(chart_name, name)]


def _split_components(text, where, errors):
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        errors.append(f"line {where}: empty component")
    return parts


class _Blocks:
    """First pass: group the physical lines into blocks."""

    def __init__(self, text):
        self.blocks = []
        current = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head = line.split()
            if current is None:
                if head[0] in ("manifold", "map", "frames", "structure", "check"):
                    current = (head[0], head[1] if len(head) > 1 else None,
                               lineno, [])
                    if head[0] == "check" and len(head) > 1:
                        raise SpecError([f"line {lineno}: check block takes no name"])
                elif head[0] in ("version", "function", "vectorfield"):
                    self.blocks.append((head[0], None, lineno, [(lineno, line)]))
                else:
                    raise SpecError([f"line {lineno}: unexpected {head[0]!r}"])
            else:
                if line == "end":
                    self.blocks.append(current)
                    current = None
                else:
                    current[3].append((lineno, line))
        if current is not None:
            raise SpecError([f"line {current[2]}: unterminated {current[0]} block"])


def _parse_linear_combo(rhs, basis_names, chart, errors, where):
    """Parse a linear combination of named fields with expression
    coefficients; coefficients are extracted by exact differentiation with
    respect to the name pseudo-variables."""
    try:
        e = parse(rhs, allowed=chart.coords + tuple(basis_names))
    except ParseError as exc:
        errors.append(f"line {where}: {exc}")
        return None
    coeffs = []
    for nm in basis_names:
        coeffs.append(simplify(differentiate(e, nm)))
    # linearity check: residual of rhs - sum(c_i * name_i) must be the zero
    # expression once the names are substituted out
    zero_env = {nm: Const(0.0) for nm in basis_names}
    const_part = simplify(substitute(e, zero_env))
    if not is_const(const_part, 0.0):
        errors.append(f"line {where}: combination has a non-field term "
                      f"({const_part})")
    for c in coeffs:
        for nm in basis_names:
            if nm in variables(c):
                errors.append(f"line {where}: combination is not linear in {nm}")
                return None
    return coeffs


def load_spec(text, name="spec") -> SpecConfig:
    """Parse and resolve a spec file; raises SpecError carrying every
    problem found, each with its line number."""
    cfg = SpecConfig(name)
    errors = []
    blocks = _Blocks(text).blocks

    # pass 1: manifolds
    for kind, bname, where, lines in blocks:
        if kind != "manifold":
            continue
        coords, constraints, diag, rows = None, [], None, []
        for ln, line in lines:
            head, *rest = line.split(None, 1)
            arg = rest[0] if rest else ""
            if head == "coords":
                coords = tuple(arg.split())
            elif head == "constraint":
                k, expr_text = arg.split(None, 1)
                try:
                    constraints.append((parse(expr_text, allowed=coords), k))
                except (ParseError, GeometryError) as exc:
                    errors.append(f"line {ln}: {exc}")
            elif head == "metric":
                sub, *rest2 = arg.split(None, 1)
                if sub == "diag":
                    diag = _split_components(rest2[0], ln, errors)
                elif sub == "row":
                    rows.append((ln, _split_components(rest2[0], ln, errors)))
                else:
                    errors.append(f"line {ln}: metric wants 'diag' or 'row'")
            else:
                errors.append(f"line {ln}: unknown manifold key {head!r}")
        if coords is None:
            errors.append(f"line {where}: manifold {bname} missing coords")
            continue
        try:
            chart = Chart(bname, coords, constraints)
        except GeometryError as exc:
            errors.append(f"line {where}: {exc}")
            continue
        cfg.charts[bname] = chart
        n = chart.dim
        mat = np.empty((n, n), dtype=object)
        try:
            if diag is not None:
                if len(diag) != n:
                    raise SpecError([f"line {where}: metric of manifold {bname} "
                                     f"needs {n} diagonal entries, got {len(diag)}"])
                for i in range(n):
                    for j in range(n):
                        mat[i, j] = chart.parse(diag[i]) if i == j else Const(0.0)
            elif rows:
                if len(rows) != n or any(len(r) != n for _, r in rows):
                    raise SpecError(
                        [f"line {where}: metric of {bname} must be {n}x{n}"])
                for i, (ln, r) in enumerate(rows):
                    for j in range(n):
                        mat[i, j] = chart.parse(r[j])
            else:
                raise SpecError([f"line {where}: manifold {bname} missing metric"])
            cfg.metrics[bname] = MetricField(chart, mat)
        except SpecError as exc:
            errors.extend(exc.problems)
        except (ParseError, GeometryError) as exc:
            errors.append(f"line {where}: {exc}")

    # pass 2: maps
    for kind, bname, where, lines in blocks:
        if kind != "map":
            continue
        src = tgt = comps = section = None
        for ln, line in lines:
            head, *rest = line.split(None, 1)
            arg = rest[0] if rest else ""
            if head == "source":
                src = arg.strip()
            elif head == "target":
                tgt = arg.strip()
            elif head == "components":
                comps = (ln, _split_components(arg, ln, errors))
            elif head == "section":
                section = (ln, _split_components(arg, ln, errors))
            else:
                errors.append(f"line {ln}: unknown map key {head!r}")
        if src not in cfg.charts or tgt not in cfg.charts:
            errors.append(f"line {where}: map {bname}: unresolved source/target")
            continue
        if comps is None:
            errors.append(f"line {where}: map {bname} missing components")
            continue
        schart, tchart = cfg.charts[src], cfg.charts[tgt]
        try:
            comp_exprs = [schart.parse(c) for c in comps[1]]
            sec_exprs = ([tchart.parse(c) for c in section[1]]
                         if section is not None else None)
            cfg.maps[bname] = SmoothMap(schart, tchart, comp_exprs, name=bname,
                                        section=sec_exprs)
        except (ParseError, GeometryError) as exc:
            errors.append(f"line {where}: map {bname}: {exc}")

    # pass 3: frames
    for kind, bname, where, lines in blocks:
        if kind != "frames":
            continue
        if bname not in cfg.maps:
            errors.append(f"line {where}: frames block for unknown map {bname!r}")
            continue
        F = cfg.maps[bname]
        groups = {"vertical": [], "horizontal": [], "range": [], "normal": []}
        subsets = {"mu": None, "nu": None}
        for ln, line in lines:
            head, *rest = line.split(None, 1)
            arg = rest[0] if rest else ""
            if head in groups:
                chart = F.target if head in ("range", "normal") else F.source
                if "=" not in arg:
                    errors.append(f"line {ln}: frame entry needs NAME = components")
                    continue
                nm, comps_text = [s.strip() for s in arg.split("=", 1)]
                if (chart.name, nm) in cfg.fields:
                    errors.append(f"line {ln}: field {nm!r} is declared twice "
                                  f"on manifold {chart.name}")
                    continue
                try:
                    comps = [chart.parse(c) for c in
                             _split_components(comps_text, ln, errors)]
                    fld = VectorField(chart, comps, name=nm)
                except (ParseError, GeometryError) as exc:
                    errors.append(f"line {ln}: {exc}")
                    continue
                groups[head].append(fld)
                cfg.fields[(chart.name, nm)] = fld
            elif head in subsets:
                names = arg.split()
                subsets[head] = names
            else:
                errors.append(f"line {ln}: unknown frames key {head!r}")
        mu = nu = None
        if subsets["mu"] is not None:
            try:
                mu = [cfg.field(F.source.name, nm) for nm in subsets["mu"]]
            except KeyError as exc:
                errors.append(f"frames {bname}: unknown mu field {exc}")
        if subsets["nu"] is not None:
            try:
                nu = [cfg.field(F.target.name, nm) for nm in subsets["nu"]]
            except KeyError as exc:
                errors.append(f"frames {bname}: unknown nu field {exc}")
        cfg.frames[bname] = AdaptedFrames(
            vertical=groups["vertical"], horizontal=groups["horizontal"],
            range_=groups["range"], normal=groups["normal"], mu=mu, nu=nu)

    # pass 4: standalone functions / fields (before structures, which may
    # reference declared fields)
    for kind, bname, where, lines in blocks:
        if kind not in ("function", "vectorfield", "version"):
            continue
        ln, line = lines[0]
        if kind == "version":
            continue
        try:
            _, nm, onkw, chart_name, eq, rhs = line.split(None, 5)
            if onkw != "on" or eq != "=":
                raise ValueError
        except ValueError:
            errors.append(f"line {ln}: malformed {kind} declaration")
            continue
        if chart_name not in cfg.charts:
            errors.append(f"line {ln}: unknown manifold {chart_name!r}")
            continue
        chart = cfg.charts[chart_name]
        if kind == "function":
            try:
                cfg.functions[(chart_name, nm)] = chart.parse(rhs)
            except ParseError as exc:
                errors.append(f"line {ln}: {exc}")
            continue
        if rhs.startswith("frame "):
            combo = rhs[len("frame "):]
            basis = [k[1] for k in cfg.fields if k[0] == chart_name]
            coeffs = _parse_linear_combo(combo, basis, chart, errors, ln)
            if coeffs is None:
                continue
            fields = [cfg.field(chart_name, nm2) for nm2 in basis]
            comps = [simplify(sum((c * fld.comps[i] for c, fld in zip(coeffs, fields)),
                                  Const(0.0)))
                     for i in range(chart.dim)]
            cfg.fields[(chart_name, nm)] = VectorField(chart, comps, name=nm)
        else:
            try:
                comps = [chart.parse(c) for c in _split_components(rhs, ln, errors)]
                cfg.fields[(chart_name, nm)] = VectorField(chart, comps, name=nm)
            except (ParseError, GeometryError) as exc:
                errors.append(f"line {ln}: {exc}")

    # pass 5: structures
    for kind, bname, where, lines in blocks:
        if kind != "structure":
            continue
        chart_name = None
        frame_names = None
        actions = []
        rows = []
        for ln, line in lines:
            head, *rest = line.split(None, 1)
            arg = rest[0] if rest else ""
            if head == "manifold":
                chart_name = arg.strip()
            elif head == "frame":
                frame_names = arg.split()
            elif head == "action":
                if "=" not in arg:
                    errors.append(f"line {ln}: action needs NAME = combination")
                    continue
                nm, rhs = [s.strip() for s in arg.split("=", 1)]
                actions.append((ln, nm, rhs))
            elif head == "row":
                rows.append((ln, _split_components(arg, ln, errors)))
            else:
                errors.append(f"line {ln}: unknown structure key {head!r}")
        if chart_name not in cfg.charts:
            errors.append(f"line {where}: structure {bname}: unknown manifold")
            continue
        chart = cfg.charts[chart_name]
        g = cfg.metrics[chart_name]
        n = chart.dim
        if frame_names:
            try:
                fields = [cfg.field(chart_name, nm) for nm in frame_names]
            except KeyError as exc:
                errors.append(f"line {where}: structure {bname}: unknown frame "
                              f"field {exc}")
                continue
            if len(fields) != n:
                errors.append(f"line {where}: structure {bname}: frame must have "
                              f"{n} fields")
                continue
            act = np.empty((n, n), dtype=object)
            act[:] = Const(0.0)
            index = {nm: i for i, nm in enumerate(frame_names)}
            ok = True
            for ln, nm, rhs in actions:
                if nm not in index:
                    errors.append(f"line {ln}: action for unknown frame field {nm!r}")
                    ok = False
                    continue
                coeffs = _parse_linear_combo(rhs, frame_names, chart, errors, ln)
                if coeffs is None:
                    ok = False
                    continue
                for b, c in enumerate(coeffs):
                    act[b, index[nm]] = c
            if not ok:
                continue
            try:
                J = AlmostComplexStructure.from_frame(g, fields, act)
            except GeometryError as exc:
                errors.append(f"line {where}: {exc}")
                continue
        else:
            if len(rows) != n or any(len(r) != n for _, r in rows):
                errors.append(f"line {where}: structure {bname} needs {n} rows")
                continue
            mat = np.empty((n, n), dtype=object)
            try:
                for i, (ln, r) in enumerate(rows):
                    for j in range(n):
                        mat[i, j] = chart.parse(r[j])
                J = AlmostComplexStructure(chart, mat)
            except (ParseError, GeometryError) as exc:
                errors.append(f"line {where}: {exc}")
                continue
        cfg.structures[bname] = (chart_name, J)

    # pass 6: check block
    for kind, bname, where, lines in blocks:
        if kind != "check":
            continue
        ck = cfg.check
        for ln, line in lines:
            head, *rest = line.split(None, 1)
            arg = rest[0] if rest else ""
            try:
                if head == "seed":
                    ck["seed"] = int(arg)
                elif head == "points":
                    ck["points"] = int(arg)
                elif head == "tol":
                    ck["tol"] = float(arg)
                elif head == "box":
                    lo, hi = arg.split()
                    ck["box"] = (float(lo), float(hi))
                elif head == "suite":
                    ck["suite"].extend(arg.split())
                elif head == "audit":
                    ck["audit"].extend(arg.split())
                elif head == "clairaut":
                    side, fname = arg.split()
                    ck["clairaut"][side] = fname
                elif head == "soliton":
                    words = arg.split()
                    if words[0] not in ("field", "grad") or len(words) != 6 \
                            or words[2] != "alpha" or words[4] != "lambda":
                        raise ValueError("soliton wants: field|grad NAME alpha X"
                                         " lambda X|solve")
                    lam = words[5] if words[5] == "solve" else float(words[5])
                    ck["soliton"] = {"kind": words[0], "name": words[1],
                                     "alpha": float(words[3]), "lambda": lam}
                elif head == "restrict":
                    ck["restrict"] = arg.split()
                elif head == "conformal":
                    words = arg.split()
                    ck["conformal"] = {"kind": words[0], "name": words[1]}
                elif head == "expect":
                    words = arg.split()
                    if words[0] == "ricci":
                        ck["expect_ricci"].append((words[1], words[2],
                                                   float(words[3])))
                    elif words[0] == "lambda":
                        ck["expect_lambda"] = float(words[1])
                    else:
                        raise ValueError(f"unknown expect kind {words[0]!r}")
                elif head == "geodesic":
                    words = arg.split()
                    geo = {}
                    it = iter(words)
                    for key in it:
                        val = next(it)
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
            except (ValueError, StopIteration) as exc:
                errors.append(f"line {ln}: {exc}")

    if errors:
        raise SpecError(errors)
    return cfg
