"""Command-line surface.

Kernel specification files (JSON) in; validated diagnostics, coupling
tables, repulsiveness reports, radial profiles, moment tables, and
sample streams out as CSV on stdout.

Spec file format: a JSON object with keys "family", "params", and (for
finite kernels) "matrix".  Families: "finite", "ginibre", "jinc",
"sinc", "sphere-multiquadric", "sphere-coefficients".  Complex matrix
entries are [re, im] pairs, row-major.  Unknown keys anywhere are
rejected.

Exit codes: 0 success, 2 validation failure (including quadrature that
cannot converge, and values beyond double precision), 3 parse failure,
4 size guard, 5 internal theorem-violation dump.  All commands are
deterministic given (input file, flags, seed); numbers render with 12
significant digits.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import analysis, finite_dpp, model_zoo
from .errors import ParseError, SizeGuardError, TheoremViolationError, ValidationError
from .kernel_core import Kernel, repulsiveness_p
from .numerics import QuadratureError, QuadratureSpec

__all__ = ["main", "load_kernel_spec"]

_FAMILIES = ("finite", "ginibre", "jinc", "sinc",
             "sphere-multiquadric", "sphere-coefficients")
_REFERENCE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ModelBundle:
    """A loaded kernel spec; dpp is the validated matrix of a finite spec."""

    family: str
    kernel: Kernel
    params: dict
    dpp: finite_dpp.FiniteDpp | None = None


def _fmt(x: Any) -> str:
    return format(float(x), ".12g")


def _emit_block(out, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _emit_text_rows(out, header: Sequence[str], first: np.ndarray, rest: np.ndarray) -> None:
    """Write a block whose cells are already formatted: rows first[i],rest[i]."""
    out.write(",".join(header) + "\n")
    if first.size:
        out.write("\n".join((first + "," + rest).tolist()) + "\n")


def _require_number(params: dict, key: str, family: str) -> float:
    if key not in params:
        raise ParseError(f"family {family!r} needs params.{key}")
    v = params[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ParseError(f"params.{key} must be a finite number, got {v!r}")
    return float(v)


def _check_param_keys(params: dict, allowed: set[str], family: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise ParseError(f"unknown params for family {family!r}: {sorted(unknown)}")


def _parse_matrix(raw: Any) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ParseError("matrix must be a nonempty list of rows")
    n = len(raw)
    M = np.empty((n, n), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"matrix row {i} must have {n} entries (square matrix)")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or any(isinstance(e, bool) or not isinstance(e, (int, float))
                           or not math.isfinite(e) for e in entry)):
                raise ParseError(
                    f"matrix entry ({i},{j}) must be a finite [re, im] pair, got {entry!r}")
            M[i, j] = complex(entry[0], entry[1])
    return M


def load_kernel_spec(path: str | Path) -> ModelBundle:
    """Parse and validate a kernel specification file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("spec file must hold a JSON object")
    unknown = set(doc) - {"family", "params", "matrix"}
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")
    family = doc.get("family")
    if family not in _FAMILIES:
        raise ParseError(f"family must be one of {_FAMILIES}, got {family!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ParseError("params must be an object")
    if family != "finite" and "matrix" in doc:
        raise ParseError(f"family {family!r} takes no matrix")

    if family == "finite":
        _check_param_keys(params, set(), family)
        if "matrix" not in doc:
            raise ParseError("family 'finite' needs a matrix")
        dpp = finite_dpp.validate(_parse_matrix(doc["matrix"]))
        return ModelBundle(family=family, kernel=model_zoo.finite_kernel(dpp),
                           params={"n": dpp.n}, dpp=dpp)
    if family == "ginibre":
        _check_param_keys(params, {"alpha", "beta"}, family)
        p = model_zoo.GinibreParams(_require_number(params, "alpha", family),
                                    _require_number(params, "beta", family))
        return ModelBundle(family=family, kernel=model_zoo.ginibre_kernel(p),
                           params={"alpha": p.alpha, "beta": p.beta})
    if family in ("jinc", "sinc"):
        _check_param_keys(params, {"alpha", "beta"}, family)
        alpha = _require_number(params, "alpha", family) if "alpha" in params else 1.0
        beta = _require_number(params, "beta", family) if "beta" in params else 1.0
        kernel = model_zoo.jinc_kernel(2 if family == "jinc" else 1)
        if alpha != 1.0 or beta != 1.0:
            kernel = model_zoo.thin_rescale(kernel, alpha, beta)
        return ModelBundle(family=family, kernel=kernel,
                           params={"alpha": alpha, "beta": beta})
    if family == "sphere-multiquadric":
        _check_param_keys(params, {"delta", "rho"}, family)
        delta = _require_number(params, "delta", family)
        rho = _require_number(params, "rho", family)
        _, kernel = model_zoo.multiquadric(delta, rho)
        return ModelBundle(family=family, kernel=kernel, params={"delta": delta, "rho": rho})
    # sphere-coefficients
    _check_param_keys(params, {"d", "rho", "beta_coeffs", "tail_bound"}, family)
    d = int(_require_number(params, "d", family))
    rho = _require_number(params, "rho", family)
    coeffs = params.get("beta_coeffs")
    if (not isinstance(coeffs, list) or not coeffs
            or any(isinstance(c, bool) or not isinstance(c, (int, float))
                   or not math.isfinite(c) for c in coeffs)):
        raise ParseError("params.beta_coeffs must be a nonempty list of finite numbers")
    tail = params.get("tail_bound", 0.0)
    if isinstance(tail, bool) or not isinstance(tail, (int, float)) or not math.isfinite(tail):
        raise ParseError("params.tail_bound must be a finite number")
    model = model_zoo.sphere_model(d, rho, [float(c) for c in coeffs],
                                   tail_bound=float(tail))
    return ModelBundle(family=family, kernel=model_zoo.sphere_kernel(model),
                       params={"d": d, "rho": rho})


def _parse_anchor(bundle: ModelBundle, text: str | None):
    space = bundle.kernel.space
    if text is None:
        if space.kind == "finite":
            return 1
        if space.kind == "euclidean":
            return np.zeros(space.size)
        north = np.zeros(space.size + 1)
        north[-1] = 1.0
        return north
    if space.kind == "finite":
        try:
            return int(text)
        except ValueError as exc:
            raise ParseError(f"finite anchors are site indices, got {text!r}") from exc
    try:
        vals = np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ParseError(f"cannot parse anchor {text!r}") from exc
    if space.kind == "euclidean":
        if vals.size != space.size:
            raise ParseError(f"anchor needs {space.size} coordinates, got {vals.size}")
        return vals
    if vals.size != space.size + 1:
        raise ParseError(f"sphere anchor needs {space.size + 1} coordinates, got {vals.size}")
    norm = float(np.linalg.norm(vals))
    if norm <= 0:
        raise ParseError("sphere anchor cannot be the zero vector")
    return vals / norm


def _quad_spec(args) -> QuadratureSpec | None:
    if args.rel_tol is None and args.truncation_radius is None:
        return None
    for flag, value in (("--rel-tol", args.rel_tol),
                        ("--truncation-radius", args.truncation_radius)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ParseError(f"{flag} must be a finite number > 0, got {value!r}")
    return QuadratureSpec(relative_tolerance=args.rel_tol or 1e-10,
                          truncation_radius=args.truncation_radius)


def _reference_p(bundle: ModelBundle, anchor) -> float:
    if bundle.family == "finite":
        return finite_dpp.p_u_finite(bundle.dpp, int(anchor))
    reference = bundle.kernel.reference
    return float(reference.get("p_u_reported", reference["p_u"]))


def cmd_validate(args) -> int:
    bundle = load_kernel_spec(args.spec)
    n = bundle.dpp.n if bundle.dpp is not None else "-"
    print(f"ok: family={bundle.family} n={n} params={json.dumps(bundle.params, sort_keys=True)}")
    return 0


def cmd_repulsiveness(args) -> int:
    bundle = load_kernel_spec(args.spec)
    anchor = _parse_anchor(bundle, args.anchor)
    coords = None
    if args.profile_points is not None and args.profile_points < 1:
        raise ParseError(f"--profile-points must be >= 1, got {args.profile_points}")
    if args.profile_points and bundle.kernel.space.kind != "finite":
        upper = args.profile_max or 10.0
        if bundle.kernel.space.kind == "sphere":
            upper = math.pi
        coords = np.linspace(0.0, upper, args.profile_points)
    report = repulsiveness_p(bundle.kernel, anchor, spec=_quad_spec(args),
                             profile_coords=coords)
    reference = _reference_p(bundle, anchor)
    flag = 1 if abs(report.p_u - reference) > _REFERENCE_TOLERANCE else 0
    _emit_block(sys.stdout,
                ["p_u", "norm_sq", "quadrature_error", "p_u_reference", "discrepancy"],
                [[report.p_u, report.norm_sq, report.quadrature_error, reference, flag]])
    sys.stdout.write("\n")
    _emit_block(sys.stdout, ["coordinate", "f_u"], report.density_profile)
    return 0


def cmd_couple(args) -> int:
    bundle = load_kernel_spec(args.spec)
    if bundle.family != "finite":
        raise ValidationError("param-bound",
                              "coupling tables are exact-law objects; use a finite kernel spec")
    dpp = bundle.dpp
    site = int(_parse_anchor(bundle, args.anchor))
    law_x = finite_dpp.subset_law(dpp)
    law_xu = finite_dpp.subset_law(finite_dpp.palm_matrix(dpp, site))
    flow, table = finite_dpp.coupling_feasible(law_x, law_xu, site)
    if table is None:
        raise TheoremViolationError(
            f"coupling infeasible at flow {flow:.12f} for a validated kernel",
            dump={"matrix": dpp.matrix.tolist(), "site": site, "flow": flow})
    p_exact, density = finite_dpp.xi_law(table, dpp, site)
    s_masks, t_masks = finite_dpp.sample_coupled_many(table, args.seed, args.samples)
    diff = s_masks ^ t_masks
    p_hat = float(np.mean(diff > 0))
    removed = np.bincount(np.log2(diff[diff > 0]).astype(int), minlength=dpp.n).astype(float)
    removed_hat = removed / removed.sum() if removed.sum() > 0 else removed
    _emit_block(sys.stdout, ["max_flow", "p_u_exact", "p_u_empirical"],
                [[flow, p_exact, p_hat]])
    sys.stdout.write("\n")
    _emit_block(sys.stdout, ["site", "f_u_exact", "f_u_empirical"],
                [[v + 1, density[v], removed_hat[v]] for v in range(dpp.n)])
    return 0


def cmd_profile(args) -> int:
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    for m in models:
        if m not in ("ginibre", "jinc"):
            raise ParseError(f"profile models are 'ginibre' and 'jinc', got {m!r}")
    if not models:
        raise ParseError("no models requested")
    if not 0.0 < args.beta <= 1.0:
        raise ValidationError("param-bound", "beta must lie in (0, 1]")
    if args.r_points < 1:
        raise ParseError(f"--r-points must be >= 1, got {args.r_points}")
    radii = np.linspace(args.r_min, args.r_max, args.r_points)
    origin = np.zeros(2)
    columns: dict[str, np.ndarray] = {}
    if "ginibre" in models:
        kernel = model_zoo.ginibre_kernel(model_zoo.GinibreParams(1.0, args.beta))
        columns["density_ginibre"] = analysis.radial_profile(kernel, origin, radii).density
    if "jinc" in models:
        kernel = model_zoo.jinc_kernel(2)
        if args.beta != 1.0:
            kernel = model_zoo.thin_rescale(kernel, 1.0, args.beta)
        columns["density_jinc"] = analysis.radial_profile(kernel, origin, radii).density
    header = ["r"] + list(columns)
    rows = [[r] + [columns[c][i] for c in columns] for i, r in enumerate(radii)]
    _emit_block(sys.stdout, header, rows)
    return 0


def cmd_moments(args) -> int:
    try:
        ks = [float(tok) for tok in args.k.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParseError(f"cannot parse moment orders {args.k!r}") from exc
    if not ks:
        raise ParseError("no moment orders given")
    if not all(math.isfinite(k) for k in ks):
        raise ParseError(f"moment orders must be finite numbers, got {args.k!r}")
    if any(k <= -2 for k in ks):
        raise ValidationError("param-bound", "moments exist only for k > -2")
    if args.model == "jinc":
        kernel = model_zoo.jinc_kernel(2)
        closed = analysis.jinc_moment_closed
    else:
        rho = args.rho if args.rho is not None else 1.0 / math.pi
        if rho <= 0:
            raise ValidationError("param-bound", "rho must be > 0")
        alpha = math.pi * rho
        kernel = model_zoo.ginibre_kernel(model_zoo.GinibreParams(alpha, 1.0 / alpha))
        closed = lambda k: analysis.ginibre_moment(k, rho)
    origin = np.zeros(2)
    spec = _quad_spec(args)
    rows = []
    for k in ks:
        res = analysis.moment_quadrature(kernel, origin, k, spec=spec)
        rows.append([k, closed(k), res.quadrature, res.abs_error,
                     res.tail_estimate, 1 if res.divergent else 0])
    _emit_block(sys.stdout,
                ["k", "closed_form", "quadrature", "abs_error", "tail_estimate", "divergent"],
                rows)
    return 0


def _parse_window(text: str | None, d: int):
    if text is None:
        return None
    try:
        vals = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"cannot parse window {text!r}") from exc
    if len(vals) != 2 * d:
        raise ParseError(f"window needs {2 * d} numbers, got {len(vals)}")
    return vals


def cmd_sample(args) -> int:
    bundle = load_kernel_spec(args.spec)
    space = bundle.kernel.space
    if bundle.family == "finite":
        dpp = bundle.dpp
        centers = None
    else:
        if space.kind == "euclidean":
            if args.window is None or args.resolution is None:
                raise ParseError("continuous kernels need --window and --resolution")
            window = _parse_window(args.window, space.size)
        else:
            if args.resolution is None:
                raise ParseError("sphere kernels need --resolution")
            window = None
        grid = analysis.grid_discretize(bundle.kernel, window, args.resolution)
        dpp, centers = grid.dpp, grid.centers
    bits = finite_dpp.sample_indicators(dpp, args.seed, args.samples)
    draw_text = np.array([_fmt(i) for i in range(len(bits))], dtype=object)
    count_text = np.array([_fmt(c) for c in range(dpp.n + 1)], dtype=object)
    _emit_text_rows(sys.stdout, ["sample", "count"], draw_text, count_text[bits.sum(axis=1)])
    if args.emit_points:
        sys.stdout.write("\n")
        if centers is None:
            header = ["sample", "site"]
            site_text = [_fmt(v + 1) for v in range(dpp.n)]
        else:
            header = ["sample"] + ["x", "y", "z"][:centers.shape[1]]
            site_text = [",".join(_fmt(x) for x in c) for c in centers]
        draw, site = np.nonzero(bits)
        _emit_text_rows(sys.stdout, header, draw_text[draw],
                        np.array(site_text, dtype=object)[site])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="palmdpp",
        description="Reduced Palm distributions and coupling-based repulsiveness "
                    "measures for determinantal point processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quad_flags(p):
        p.add_argument("--rel-tol", type=float, default=None,
                       help="relative quadrature tolerance")
        p.add_argument("--truncation-radius", type=float, default=None,
                       help="radius of the exactly integrated core region")

    p = sub.add_parser("validate", help="check a kernel spec file")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("repulsiveness", help="p_u, norm, and f_u profile")
    p.add_argument("spec")
    p.add_argument("--anchor", default=None,
                   help="site index | 'x,y' | 'x,y,z' (normalized)")
    p.add_argument("--profile-points", type=int, default=None)
    p.add_argument("--profile-max", type=float, default=None)
    add_quad_flags(p)
    p.set_defaults(func=cmd_repulsiveness)

    p = sub.add_parser("couple", help="exact coupling table diagnostics (finite kernels)")
    p.add_argument("spec")
    p.add_argument("--anchor", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10000)
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("profile", help="radial displacement densities (Figure-1 data)")
    p.add_argument("--models", default="ginibre,jinc")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=10.0)
    p.add_argument("--r-points", type=int, default=201)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("moments", help="displacement moments: closed form vs quadrature")
    p.add_argument("--model", choices=("ginibre", "jinc"), required=True)
    p.add_argument("--k", required=True, help="comma-separated moment orders")
    p.add_argument("--rho", type=float, default=None,
                   help="intensity for the ginibre model (default 1/pi)")
    add_quad_flags(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("sample", help="draw subsets from a kernel (grid-discretized if continuous)")
    p.add_argument("spec")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", default=None, help="'xmin,xmax[,ymin,ymax]'")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--emit-points", action="store_true")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse-error: {exc}", file=sys.stderr)
        return 3
    except SizeGuardError as exc:
        print(f"size-guard: {exc}", file=sys.stderr)
        return 4
    except TheoremViolationError as exc:
        print(f"theorem-violation: {exc}", file=sys.stderr)
        for key, val in exc.dump.items():
            print(f"  {key}: {val}", file=sys.stderr)
        return 5
    except ValidationError as exc:
        print(f"validation-error[{exc.token}]: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"validation-error[quadrature]: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"validation-error[overflow]: a value leaves double precision: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
