"""Command-line surface.

Kernel specification files (JSON) in; validated diagnostics, coupling
tables, repulsiveness reports, radial profiles, moment tables, and
sample streams out as CSV on stdout.

The contract (commands, flags, the spec format, the output format, exit
codes and tokens) is stated once, in the "Command line" section of the
README, which a test keeps naming every subcommand, flag, token and exit
code defined here.  Where each rule is enforced:

* load_kernel_spec parses a spec file, with one table, _FAMILIES, of each
  family's numeric params and their defaults;
* each flag value is checked once, as argparse converts it (_flag and the
  converters built on it), and a value that does not convert, like any
  usage error, is a ParseError (_ArgumentParser);
* a flag given where nothing reads it is refused by _refuse_unread;
* main maps each exception to its exit code and one stderr line.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from . import analysis, finite_dpp, model_zoo
from .errors import ParseError, SizeGuardError, TheoremViolationError, ValidationError
from .kernel_core import Kernel, profile_coordinates, repulsiveness_p
from .numerics import QuadratureSpec

__all__ = ["main", "load_kernel_spec"]

# each family's numeric params and their defaults, None where the spec must
# give one; sphere-coefficients also takes the list beta_coeffs
_FAMILIES = {
    "finite": {},
    "ginibre": {"alpha": None, "beta": None},
    "jinc": {"alpha": 1.0, "beta": 1.0},
    "sinc": {"alpha": 1.0, "beta": 1.0},
    "sphere-multiquadric": {"delta": None, "rho": None},
    "sphere-coefficients": {"d": None, "rho": None, "tail_bound": 0.0},
}
_REFERENCE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ModelBundle:
    """A loaded kernel spec; dpp is the validated matrix of a finite spec."""

    family: str
    kernel: Kernel
    params: dict
    dpp: finite_dpp.FiniteDpp | None = None


# one number in a CSV cell; the same text as format(float(x), ".12g") for
# ints, bools and numpy scalars too
_fmt = "{:.12g}".format


def _lines(rows: Iterable[Iterable[Any]]) -> Iterable[str]:
    """The CSV lines of numeric rows, one _fmt per cell."""
    return (",".join(map(_fmt, row)) for row in rows)


def _emit(*blocks: tuple[Sequence[str], Iterable[str]]) -> None:
    """Write CSV blocks of (header, formatted lines) to stdout, a blank line
    between blocks.  Each block is joined and written on its own, so only one
    block's text is held at a time."""
    for i, (header, lines) in enumerate(blocks):
        head = ("\n" if i else "") + ",".join(header)
        sys.stdout.write("\n".join([head, *lines, ""]))


def _is_number(v: Any) -> bool:  # a finite JSON number; true and false are not
    try:
        return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:  # an integer beyond double precision
        return False


def _parse_matrix(raw: Any) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ParseError("matrix must be a nonempty list of rows")
    n = len(raw)
    M = np.empty((n, n), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"matrix row {i} must have {n} entries (square matrix)")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2 or not all(map(_is_number, entry)):
                raise ParseError(f"matrix entry ({i},{j}) must be a finite [re, im] pair, "
                                 f"got {reprlib.repr(entry)}")
            M[i, j] = complex(entry[0], entry[1])
    return M


def load_kernel_spec(path: str | Path) -> ModelBundle:
    """Parse and validate a kernel specification file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # past int()'s digit limit or the nesting limit
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("spec file must hold a JSON object")
    unknown = set(doc) - {"family", "params", "matrix"}
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")
    family = doc.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ParseError(f"family must be one of {tuple(_FAMILIES)}, got {reprlib.repr(family)}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ParseError("params must be an object")
    if family != "finite" and "matrix" in doc:
        raise ParseError(f"family {family!r} takes no matrix")
    lists = {"beta_coeffs"} if family == "sphere-coefficients" else set()
    unknown = set(params) - set(_FAMILIES[family]) - lists
    if unknown:
        raise ParseError(f"unknown params for family {family!r}: {sorted(unknown)}")
    values = {}
    for key, default in _FAMILIES[family].items():
        if key not in params and default is None:
            raise ParseError(f"family {family!r} needs params.{key}")
        v = params.get(key, default)
        if not _is_number(v):
            raise ParseError(f"params.{key} must be a finite number, got {reprlib.repr(v)}")
        values[key] = float(v)

    if family == "finite":
        if "matrix" not in doc:
            raise ParseError("family 'finite' needs a matrix")
        dpp = finite_dpp.validate(_parse_matrix(doc["matrix"]))
        return ModelBundle(family=family, kernel=model_zoo.finite_kernel(dpp),
                           params={"n": dpp.n}, dpp=dpp)
    if family == "ginibre":
        kernel = model_zoo.ginibre_kernel(model_zoo.GinibreParams(**values))
    elif family in ("jinc", "sinc"):
        kernel = model_zoo.thin_rescale(model_zoo.jinc_kernel(2 if family == "jinc" else 1),
                                        values["alpha"], values["beta"])
    elif family == "sphere-multiquadric":
        _, kernel = model_zoo.multiquadric(values["delta"], values["rho"])
    else:  # sphere-coefficients; its tail bound is not echoed
        tail = values.pop("tail_bound")
        if not values["d"].is_integer():
            raise ParseError(f"params.d must be an integer, got {params['d']!r}")
        coeffs = params.get("beta_coeffs")
        if not isinstance(coeffs, list) or not coeffs or not all(map(_is_number, coeffs)):
            raise ParseError("params.beta_coeffs must be a nonempty list of finite numbers")
        values["d"] = int(values["d"])
        kernel = model_zoo.sphere_kernel(model_zoo.sphere_model(
            values["d"], values["rho"], [float(c) for c in coeffs], tail_bound=tail))
    return ModelBundle(family=family, kernel=kernel, params=values)


def _parse_anchor(bundle: ModelBundle, text: str | None):
    space = bundle.kernel.space
    if space.kind == "finite":
        try:
            return 1 if text is None else int(text)
        except ValueError as exc:
            raise ParseError(f"finite anchors are site indices, got {text!r}") from exc
    length = space.size + (space.kind == "sphere")  # S^d lies in R^(d+1)
    if text is None:  # the origin, or the north pole (0, ..., 0, 1)
        vals = np.zeros(length)
        vals[-1] = space.kind == "sphere"
        return vals
    try:
        vals = np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ParseError(f"cannot parse anchor {text!r}") from exc
    if vals.size != length:
        raise ParseError(f"{space.kind} anchor needs {length} coordinates, got {vals.size}")
    if space.kind == "euclidean" or not np.all(np.isfinite(vals)):
        return vals  # check_point refuses a non-finite anchor
    # scaled to its largest entry first, the norm neither overflows nor underflows
    largest = float(np.max(np.abs(vals)))
    if largest == 0:
        raise ParseError("sphere anchor cannot be the zero vector")
    vals = vals / largest
    return vals / np.linalg.norm(vals)


def _flag(kind, wanted: str, ok):
    """argparse converter: the text converted by kind (int or float), refused
    as not `wanted` unless ok(value)."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan  # ok refuses nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return convert


_count = _flag(int, "an integer >= 1", lambda v: v >= 1)
_count_from_zero = _flag(int, "an integer >= 0", lambda v: v >= 0)
_finite = _flag(float, "a finite number", math.isfinite)
_positive = _flag(float, "a finite number > 0", lambda v: 0 < v < math.inf)
_nonnegative = _flag(float, "a finite number >= 0", lambda v: 0 <= v < math.inf)


def _finite_floats(text: str) -> list[float]:
    """argparse converter for a comma list of finite floats."""
    return list(map(_finite, text.split(",")))


def _profile_models(text: str) -> set[str]:
    """argparse converter for profile --models: a nonempty comma list of
    'ginibre' and 'jinc', items stripped, repeats allowed."""
    models = {m.strip() for m in text.split(",")} - {""}
    if not models or not models <= {"ginibre", "jinc"}:
        raise argparse.ArgumentTypeError(
            f"profile models are a comma list of 'ginibre' and 'jinc', got {text!r}")
    return models


def _reference_p(bundle: ModelBundle, anchor) -> float:
    if bundle.family == "finite":
        return finite_dpp.p_u_finite(bundle.dpp, int(anchor))
    kernel = bundle.kernel
    return float(kernel.p_u if kernel.p_u_reported is None else kernel.p_u_reported)


def _refuse_unread(kind: str, flags) -> None:
    """Refuse every (flag, value, spaces that read it, what it does) that was
    given on a spec whose space kind does not read it."""
    for flag, value, readers, purpose in flags:
        if value is not None and kind not in readers:
            raise ValidationError("param-bound",
                                  f"{flag} {purpose}; this spec's space is {kind}")


def cmd_validate(args) -> int:
    bundle = load_kernel_spec(args.spec)
    n = bundle.dpp.n if bundle.dpp is not None else "-"
    print(f"ok: family={bundle.family} n={n} params={json.dumps(bundle.params, sort_keys=True)}")
    return 0


def cmd_repulsiveness(args) -> int:
    bundle = load_kernel_spec(args.spec)
    _refuse_unread(bundle.kernel.space.kind, (
        ("--rel-tol", args.rel_tol, ("sphere",), "steers only sphere quadrature"),
        ("--truncation-radius", args.truncation_radius, ("euclidean",),
         "steers only euclidean quadrature"),
        ("--profile-max", args.profile_max, ("euclidean",),
         "ends only a euclidean radial profile"),
        ("--profile-points", args.profile_points, ("euclidean", "sphere"),
         "sets only the profile of a continuous space")))
    anchor = _parse_anchor(bundle, args.anchor)
    coords = profile_coordinates(bundle.kernel, args.profile_points, args.profile_max)
    spec = QuadratureSpec(args.rel_tol or QuadratureSpec.relative_tolerance,
                          args.truncation_radius)
    report = repulsiveness_p(bundle.kernel, anchor, spec=spec, profile_coords=coords)
    reference = _reference_p(bundle, anchor)
    flag = 1 if abs(report.p_u - reference) > _REFERENCE_TOLERANCE else 0
    _emit((["p_u", "norm_sq", "quadrature_error", "p_u_reference", "discrepancy"],
           _lines([[report.p_u, report.norm_sq, report.quadrature_error, reference, flag]])),
          (["coordinate", "f_u"], _lines(report.density_profile)))
    return 0


def cmd_couple(args) -> int:
    bundle = load_kernel_spec(args.spec)
    if bundle.family != "finite":
        raise ValidationError("param-bound",
                              "coupling tables are exact-law objects; use a finite kernel spec")
    dpp = bundle.dpp
    site = int(_parse_anchor(bundle, args.anchor))
    flow, table = finite_dpp.couple(dpp, site)
    p_exact, density = finite_dpp.xi_law(table)
    p_hat, removed = finite_dpp.sample_removals(table, args.seed, args.samples)
    removed_hat = removed / removed.sum() if removed.sum() > 0 else removed
    _emit((["max_flow", "p_u_exact", "p_u_empirical"], _lines([[flow, p_exact, p_hat]])),
          (["site", "f_u_exact", "f_u_empirical"],
           _lines([v + 1, density[v], removed_hat[v]] for v in range(dpp.n))))
    return 0


def cmd_profile(args) -> int:
    if not 0.0 < args.beta <= 1.0:
        raise ValidationError("param-bound", "beta must lie in (0, 1]")
    radii = np.linspace(args.r_min, args.r_max, args.r_points)
    columns: dict[str, np.ndarray] = {}
    if "ginibre" in args.models:
        kernel = model_zoo.ginibre_kernel(model_zoo.GinibreParams(1.0, args.beta))
        columns["density_ginibre"] = analysis.radial_profile(kernel, radii)
    if "jinc" in args.models:
        kernel = model_zoo.thin_rescale(model_zoo.jinc_kernel(2), 1.0, args.beta)
        columns["density_jinc"] = analysis.radial_profile(kernel, radii)
    rows = ([r] + [columns[c][i] for c in columns] for i, r in enumerate(radii))
    _emit((["r", *columns], _lines(rows)))
    return 0


def cmd_moments(args) -> int:
    if args.model == "jinc":
        if args.rho is not None:
            raise ValidationError("param-bound", "--rho sets only the ginibre model's "
                                  "intensity; the jinc model's is 1/pi")
        kernel = model_zoo.jinc_kernel(2)
        closed = analysis.jinc_moment_closed
    else:
        rho = 1.0 / math.pi if args.rho is None else args.rho
        if rho <= 0:
            raise ValidationError("param-bound", "rho must be > 0")
        alpha = math.pi * rho
        kernel = model_zoo.ginibre_kernel(model_zoo.GinibreParams(alpha, 1.0 / alpha))
        closed = lambda k: analysis.ginibre_moment(k, rho)
    spec = QuadratureSpec(truncation_radius=args.truncation_radius)
    rows = []
    for k in args.k:
        res = analysis.moment_quadrature(kernel, k, spec=spec)
        rows.append([k, closed(k), res.quadrature, res.abs_error,
                     res.tail_estimate, 1 if res.divergent else 0])
    _emit((["k", "closed_form", "quadrature", "abs_error", "tail_estimate", "divergent"],
           _lines(rows)))
    return 0


def cmd_sample(args) -> int:
    bundle = load_kernel_spec(args.spec)
    space = bundle.kernel.space
    _refuse_unread(space.kind, (
        ("--window", args.window, ("euclidean",), "bounds only a euclidean grid"),
        ("--resolution", args.resolution, ("euclidean", "sphere"),
         "sets only the grid of a continuous kernel")))
    dpp, centers = bundle.dpp, None
    if dpp is None:  # a continuous kernel, sampled on its grid
        plane = space.kind == "euclidean"
        if args.resolution is None or (plane and args.window is None):
            raise ParseError(f"{space.kind} kernels need --resolution" + " and --window" * plane)
        if plane and len(args.window) != 2 * space.size:
            raise ParseError(f"window needs {2 * space.size} numbers, got {len(args.window)}")
        grid = analysis.grid_discretize(bundle.kernel, args.window, args.resolution)
        dpp, centers = grid.dpp, grid.centers
    bits = finite_dpp.sample_indicators(dpp, args.seed, args.samples)
    # integer labels: str is .12g's text below 10^12 draws or sites
    draw_text = np.array(list(map(str, range(len(bits)))), dtype=object)
    count_text = np.array(list(map(str, range(dpp.n + 1))), dtype=object)

    def pairs(first, rest):  # lazy: a block's lists are built only as it is written
        yield from map(",".join, zip(first.tolist(), rest.tolist()))

    blocks = [(["sample", "count"], pairs(draw_text, count_text[bits.sum(axis=1)]))]
    if args.emit_points:
        if centers is None:
            header = ["sample", "site"]
            site_text = list(map(str, range(1, dpp.n + 1)))
        else:
            header = ["sample"] + ["x", "y", "z"][:centers.shape[1]]
            site_text = [",".join(map(_fmt, c)) for c in centers]
        draw, site = np.nonzero(bits)
        blocks.append((header, pairs(draw_text[draw], np.array(site_text, dtype=object)[site])))
    _emit(*blocks)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 3) instead of printing usage and exiting 2."""

    def error(self, message: str):
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = _ArgumentParser(
        prog="palmdpp",
        description="Reduced Palm distributions and coupling-based repulsiveness "
                    "measures for determinantal point processes.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("validate", help="check a kernel spec file")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("repulsiveness", help="p_u, norm, and f_u profile")
    p.add_argument("spec")
    p.add_argument("--anchor", default=None,
                   help="site index | 'x,y' | 'x,y,z' (normalized)")
    p.add_argument("--profile-points", type=_count, default=None)
    p.add_argument("--profile-max", type=_positive, default=None,
                   help="end of a euclidean profile (default: 40 length scales of a "
                        "gaussian tail or 400 of a power tail, at most 10)")
    p.add_argument("--rel-tol", type=_positive, default=None,
                   help="relative tolerance of the sphere's polar quadrature")
    p.add_argument("--truncation-radius", type=_positive, default=None,
                   help="where Euclidean radial quadrature hands over to the declared tail")
    p.set_defaults(func=cmd_repulsiveness)

    p = sub.add_parser("couple", help="exact coupling table diagnostics (finite kernels)")
    p.add_argument("spec")
    p.add_argument("--anchor", default=None)
    p.add_argument("--seed", type=_count_from_zero, default=0)
    p.add_argument("--samples", type=_count, default=10000)
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("profile", help="radial displacement densities (Figure-1 data)")
    p.add_argument("--models", type=_profile_models, default="ginibre,jinc")
    p.add_argument("--beta", type=_finite, default=1.0)
    p.add_argument("--r-min", type=_nonnegative, default=0.0)
    p.add_argument("--r-max", type=_nonnegative, default=10.0)
    p.add_argument("--r-points", type=_count, default=201)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("moments", help="displacement moments: closed form vs quadrature")
    p.add_argument("--model", choices=("ginibre", "jinc"), required=True)
    p.add_argument("--k", type=_finite_floats, required=True,
                   help="comma-separated moment orders")
    p.add_argument("--rho", type=_finite, default=None,
                   help="intensity for the ginibre model (default 1/pi)")
    p.add_argument("--truncation-radius", type=_positive, default=None,
                   help="where radial quadrature hands over to the declared tail")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("sample", help="draw subsets from a kernel (grid-discretized if continuous)")
    p.add_argument("spec")
    p.add_argument("--samples", type=_count_from_zero, default=100)
    p.add_argument("--seed", type=_count_from_zero, default=0)
    p.add_argument("--window", type=_finite_floats, default=None,
                   help="'xmin,xmax[,ymin,ymax]'")
    p.add_argument("--resolution", type=_count, default=None)
    p.add_argument("--emit-points", action="store_true")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command line on argv (default sys.argv[1:]) and return its
    exit code: 0 on success; 2 for a ValidationError
    (validation-error[<token>]:) or an OverflowError
    (validation-error[overflow]:); 3 for a ParseError (parse-error:); 4 for
    a SizeGuardError or a MemoryError (size-guard:); 5 for a
    TheoremViolationError (theorem-violation:, then its dump)."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"parse-error: {exc}", file=sys.stderr)
        return 3
    except (SizeGuardError, MemoryError) as exc:
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
    except OverflowError as exc:
        print(f"validation-error[overflow]: a value leaves double precision: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
