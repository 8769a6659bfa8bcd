"""The public names each palmdpp module exports, and the inputs its entry
points refuse."""
from __future__ import annotations

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import palmdpp
from palmdpp import analysis, finite_dpp, model_zoo, numerics
from palmdpp.errors import QuadratureError, ValidationError, check_anchor, check_finite
from palmdpp.kernel_core import (GroundSpace, Kernel, palm_kernel, profile_coordinates,
                                 repulsiveness_p)
from palmdpp.numerics import QuadratureSpec, Tail, integrate_radial

MODULES = [f"palmdpp.{info.name}" for info in pkgutil.iter_modules(palmdpp.__path__)
           if info.name != "__main__"]
# the command line is imported on its own, not through the package
LIBRARY_MODULES = [name for name in MODULES if name != "palmdpp.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # instrumentation that wraps a module's exports looks each name up, so a
    # stale entry would fail there rather than at import
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_exports_exactly_the_modules_names():
    # each module's __all__ is the one list of its public names
    owners = {}
    for name in LIBRARY_MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            assert attr not in owners, f"{attr} is exported by two modules"
            owners[attr] = module
    public = {attr for attr, value in vars(palmdpp).items()
              if not attr.startswith("_") and not inspect.ismodule(value)}
    assert public == set(owners)
    assert [attr for attr, module in owners.items()
            if getattr(palmdpp, attr) is not getattr(module, attr)] == []


def _own_doc(obj) -> str:
    """obj's own docstring, cleaned: not one inherited from a base class,
    and not the signature a dataclass or NamedTuple writes for a class
    that has none."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if not inspect.isclass(obj):
        return inspect.cleandoc(obj.__doc__ or "")
    doc = inspect.cleandoc(vars(obj).get("__doc__") or "")
    return "" if doc.startswith(obj.__name__ + "(") else doc


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_docstring(name):
    # every function and class in __all__, and every public method or
    # property an exported class defines; data constants such as
    # errors.TOKENS are exempt
    module = importlib.import_module(name)
    documented = {}
    for attr in module.__all__:
        value = getattr(module, attr)
        if inspect.isfunction(value) or inspect.isclass(value):
            documented[attr] = _own_doc(value)
        if inspect.isclass(value):
            for member, raw in vars(value).items():
                if not member.startswith("_") and (inspect.isfunction(raw) or isinstance(
                        raw, (property, staticmethod, classmethod))):
                    documented[f"{attr}.{member}"] = _own_doc(raw)
    assert [label for label, doc in documented.items() if not doc] == []


def _finite2():
    return model_zoo.finite_kernel(finite_dpp.validate(np.diag([0.3, 0.7])))


def _sphere():
    return model_zoo.multiquadric(0.5, 0.1)[1]


def _ginibre():
    return model_zoo.ginibre_kernel(model_zoo.GinibreParams(1.0, 1.0))


def _law(n):
    return finite_dpp.subset_law(finite_dpp.validate(np.diag([0.5] * n)))


def _r3_kernel():
    # isotropic in R^3, which radial quadrature does not cover
    return Kernel(space=GroundSpace("euclidean", 3),
                  gram=lambda X, Y: np.exp(-np.sum((X[:, None] - Y[None]) ** 2, axis=-1)),
                  radial_abs_sq=lambda r: np.exp(-2.0 * np.asarray(r) ** 2),
                  tail=Tail("gaussian", 2 ** -0.5))


SQUARE = (-1.0, 1.0, -1.0, 1.0)
NORTH = np.array([0.0, 0.0, 1.0])
# each call, and a phrase of the refusal it must meet
REFUSED_CALLS = {
    "mc-validate-no-samples": ("draws", lambda: analysis.mc_validate_coupling(
        _ginibre(), np.zeros(2), SQUARE, 3, samples=0, rng_seed=0)),
    "removals-no-draws": ("draws", lambda: finite_dpp.sample_removals(
        finite_dpp.couple(finite_dpp.validate(np.diag([0.3, 0.7])), 1)[1], 0, 0)),
    "indicators-negative-draws": ("draws", lambda: finite_dpp.sample_indicators(
        finite_dpp.validate(np.diag([0.3, 0.7])), 0, -1)),
    "coupled-no-draws": ("draws", lambda: finite_dpp.sample_coupled_many(
        finite_dpp.couple(finite_dpp.validate(np.diag([0.3, 0.7])), 1)[1], 0, 0)),
    "coupled-negative-draws": ("draws", lambda: finite_dpp.sample_coupled_many(
        finite_dpp.couple(finite_dpp.validate(np.diag([0.3, 0.7])), 1)[1], 0, -1)),
    "profile-no-points": ("points", lambda: profile_coordinates(_ginibre(), 0)),
    "profile-negative-points": ("points", lambda: profile_coordinates(_sphere(), -1)),
    "profile-negative-end": ("end", lambda: profile_coordinates(model_zoo.jinc_kernel(2), 3, -5.0)),
    "profile-zero-end": ("end", lambda: profile_coordinates(_ginibre(), 3, 0.0)),
    "profile-nan-end": ("end", lambda: profile_coordinates(_ginibre(), None, math.nan)),
    "profile-inf-end": ("end", lambda: profile_coordinates(_ginibre(), 3, math.inf)),
    "profile-site-0": ("site 0", lambda: repulsiveness_p(_finite2(), 1,
                                                         profile_coords=[0, 1, 2])),
    "profile-site-3": ("site 3", lambda: repulsiveness_p(_finite2(), 1, profile_coords=[3])),
    "moment-nan-order": ("finite k", lambda: analysis.moment_quadrature(_ginibre(), math.nan)),
    "jinc-moment-inf-order": ("finite k", lambda: analysis.jinc_moment_closed(math.inf)),
    "ginibre-moment-nan-order": ("finite k", lambda: analysis.ginibre_moment(math.nan, 1.0)),
    "grid-resolution-0": ("resolution", lambda: analysis.grid_discretize(_ginibre(), SQUARE, 0)),
    "grid-s3": ("S^2", lambda: analysis.grid_discretize(
        model_zoo.sphere_kernel(model_zoo.sphere_model(3, 0.05, [0.6, 0.4])), None, 2)),
    "grid-sphere-window": ("full sphere", lambda: analysis.grid_discretize(_sphere(), SQUARE, 2)),
    "grid-finite": ("already discrete", lambda: analysis.grid_discretize(_finite2(), None, 2)),
    "repulsiveness-r3": ("d in {1, 2}", lambda: repulsiveness_p(_r3_kernel(), np.zeros(3))),
    "repulsiveness-sphere-palm": ("angular profile", lambda: repulsiveness_p(
        palm_kernel(_sphere(), NORTH), np.array([1.0, 0.0, 0.0]))),
    "coupling-site-counts": ("site counts", lambda: finite_dpp.coupling_feasible(
        _law(2), _law(3), 1)),
    "coupling-site-0": ("site 0", lambda: finite_dpp.coupling_feasible(_law(2), _law(2), 0)),
    "multiquadric-delta-1": ("delta", lambda: model_zoo.multiquadric(1.0, 0.05)),
    "sphere-model-d-0": ("dimension", lambda: model_zoo.sphere_model(0, 0.1, [0.5])),
    "sphere-model-rho-0": ("intensity", lambda: model_zoo.sphere_model(2, 0.0, [0.5])),
    "sphere-model-negative-tail": ("tail_bound", lambda: model_zoo.sphere_model(
        2, 0.1, [0.5], tail_bound=-0.1)),
    "thin-sphere": ("Euclidean", lambda: model_zoo.thin_rescale(_sphere(), 1.0, 0.5)),
    "validate-inf-entry": ("finite", lambda: finite_dpp.validate([[math.inf, 0.0], [0.0, 0.5]])),
    "validate-nan-entry": ("finite", lambda: finite_dpp.validate([[math.nan, 0.0], [0.0, 0.5]])),
    "sphere-model-nan-rho": ("intensity", lambda: model_zoo.sphere_model(2, math.nan, [1.0])),
    "sphere-model-nan-coefficient": ("nonnegative", lambda: model_zoo.sphere_model(
        2, 0.01, [math.nan])),
    "sphere-model-nan-tail": ("tail_bound", lambda: model_zoo.sphere_model(
        2, 0.01, [1.0], tail_bound=math.nan)),
    "ginibre-moment-nan-intensity": ("intensity", lambda: analysis.ginibre_moment(1.0, math.nan)),
    "ginibre-moment-zero-intensity": ("intensity", lambda: analysis.ginibre_moment(1.0, 0.0)),
    "ginibre-moment-inf-intensity": ("intensity", lambda: analysis.ginibre_moment(
        -1.0, math.inf)),
    "radial-profile-negative-radius": ("radii", lambda: analysis.radial_profile(
        _ginibre(), [-1.0])),
    "radial-profile-nan-radius": ("radii", lambda: analysis.radial_profile(
        model_zoo.jinc_kernel(2), [math.nan])),
    "radial-profile-inf-radius": ("radii", lambda: analysis.radial_profile(
        _ginibre(), [0.5, math.inf])),
    "repulsiveness-site-1.9": ("not one of the integers", lambda: repulsiveness_p(
        _finite2(), 1.9)),
    "palm-kernel-site-2.5": ("not one of the integers", lambda: palm_kernel(_finite2(), 2.5)),
    "palm-matrix-site-1.5": ("not one of the integers", lambda: finite_dpp.palm_matrix(
        finite_dpp.validate(np.diag([0.3, 0.7])), 1.5)),
    "p-u-finite-site-2.0": ("not one of the integers", lambda: finite_dpp.p_u_finite(
        finite_dpp.validate(np.diag([0.3, 0.7])), 2.0)),
    "couple-site-2.0": ("not one of the integers", lambda: finite_dpp.couple(
        finite_dpp.validate(np.diag([0.3, 0.7])), 2.0)),
    "couple-site-0": ("not one of the integers", lambda: finite_dpp.couple(
        finite_dpp.validate(np.diag([0.3, 0.7])), 0)),
    "couple-site-3": ("not one of the integers", lambda: finite_dpp.couple(
        finite_dpp.validate(np.diag([0.3, 0.7])), 3)),
    "coupling-site-1.5": ("not one of the integers", lambda: finite_dpp.coupling_feasible(
        _law(2), _law(2), 1.5)),
    "grid-resolution-2.5": ("resolution must be an integer", lambda: analysis.grid_discretize(
        _ginibre(), SQUARE, 2.5)),
    "mc-validate-resolution-2.5": ("resolution must be an integer",
                                   lambda: analysis.mc_validate_coupling(
                                       _ginibre(), np.zeros(2), SQUARE, 2.5, samples=10,
                                       rng_seed=0)),
    "indicators-draws-2.5": ("draws must be an integer", lambda: finite_dpp.sample_indicators(
        finite_dpp.validate(np.diag([0.3, 0.7])), 0, 2.5)),
    "coupled-draws-2.5": ("draws must be an integer", lambda: finite_dpp.sample_coupled_many(
        finite_dpp.couple(finite_dpp.validate(np.diag([0.3, 0.7])), 1)[1], 0, 2.5)),
    "profile-points-2.5": ("points must be an integer", lambda: profile_coordinates(
        _ginibre(), 2.5)),
    "sphere-model-d-2.5": ("dimension must be an integer", lambda: model_zoo.sphere_model(
        2.5, 0.05, [0.6, 0.4])),
    "ground-space-size-2.5": ("size/dimension must be an integer", lambda: GroundSpace(
        "finite", 2.5)),
    # bool is an int subclass, but True is not a site or a count
    "couple-site-true": ("not one of the integers", lambda: finite_dpp.couple(
        finite_dpp.validate(np.diag([0.3, 0.7])), True)),
    "indicators-draws-true": ("draws must be an integer", lambda: finite_dpp.sample_indicators(
        finite_dpp.validate(np.diag([0.3, 0.7])), 0, True)),
    "grid-resolution-true": ("resolution must be an integer", lambda: analysis.grid_discretize(
        _ginibre(), SQUARE, True)),
    "ground-space-size-true": ("size/dimension must be an integer", lambda: GroundSpace(
        "finite", True)),
    "quadrature-nan-tolerance": ("relative_tolerance", lambda: QuadratureSpec(
        relative_tolerance=math.nan)),
    "quadrature-inf-tolerance": ("relative_tolerance", lambda: QuadratureSpec(math.inf)),
    "quadrature-nan-radius": ("truncation_radius", lambda: QuadratureSpec(
        truncation_radius=math.nan)),
    "quadrature-inf-radius": ("truncation_radius", lambda: repulsiveness_p(
        model_zoo.jinc_kernel(2), np.zeros(2), QuadratureSpec(truncation_radius=math.inf))),
    "radial-power-minus-1": ("power > -1", lambda: integrate_radial(
        np.exp, -1.0, Tail("gaussian", 1.0), QuadratureSpec())),
    "radial-power-minus-2": ("power > -1", lambda: integrate_radial(
        np.exp, -2.0, model_zoo.jinc_kernel(2).tail, QuadratureSpec())),
    "radial-power-nan": ("power > -1", lambda: integrate_radial(
        np.exp, math.nan, Tail("gaussian", 1.0), QuadratureSpec())),
    "mc-validate-seed-true": ("rng_seed must be an integer", lambda: analysis.mc_validate_coupling(
        _ginibre(), np.zeros(2), SQUARE, 3, samples=10, rng_seed=True)),
}
# a seed is an integer >= 0 at each sampler; bool is an int subclass, but not a seed
SEEDED_SAMPLERS = {
    "indicators": lambda seed: finite_dpp.sample_indicators(
        finite_dpp.validate(np.diag([0.3, 0.7])), seed, 2),
    "coupled": lambda seed: finite_dpp.sample_coupled_many(
        finite_dpp.couple(finite_dpp.validate(np.diag([0.3, 0.7])), 1)[1], seed, 2),
    "removals": lambda seed: finite_dpp.sample_removals(
        finite_dpp.couple(finite_dpp.validate(np.diag([0.3, 0.7])), 1)[1], seed, 2),
}
REFUSED_CALLS.update({
    f"{name}-seed-{seed}": ("rng_seed must be an integer >= 0",
                            lambda sampler=sampler, seed=seed: sampler(seed))
    for name, sampler in SEEDED_SAMPLERS.items() for seed in (-1, True, 2.5)})


@pytest.mark.parametrize("phrase,call", REFUSED_CALLS.values(), ids=REFUSED_CALLS)
def test_entry_points_refuse_what_they_cannot_serve(phrase, call):
    # counts, sites, orders and kernels outside what a function serves are
    # refused up front, never answered with nan, a wrapped index or a crash
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.token == "param-bound" and phrase in str(exc.value)


def test_errors_declares_every_refusal():
    # QuadratureError is a ValidationError with its own token; numerics raises
    # it but does not export it, and no token outside the one list is made
    exc = QuadratureError("diverges")
    assert isinstance(exc, ValidationError) and exc.token == "quadrature"
    assert numerics.QuadratureError is palmdpp.QuadratureError is QuadratureError
    assert "QuadratureError" not in numerics.__all__
    with pytest.raises(ValueError, match="unknown validation token 'overflows'"):
        ValidationError("overflows", "a typo")
    # check_finite is the one place the library raises OverflowError
    assert check_finite(1.5, "a number") == 1.5
    with pytest.raises(OverflowError, match="the sum is not finite"):
        check_finite(np.array([1.0, math.nan]), "the sum")
    raisers = [name for name in LIBRARY_MODULES + ["palmdpp.cli"]
               if "raise OverflowError" in inspect.getsource(importlib.import_module(name))]
    assert raisers == ["palmdpp.errors"]


def test_a_nan_intensity_is_an_overflow():
    # nan is K(u, u) overflowing on the way to it; an infinite K(u, u) passes
    with pytest.raises(OverflowError, match=r"K\(u, u\) at the anchor 1 is not finite"):
        check_anchor(math.nan, 1)
    with pytest.raises(ValidationError, match="vanishes") as exc:
        check_anchor(0.0, 1)
    assert exc.value.token == "anchor"
    assert check_anchor(math.inf, 1) == math.inf
    # the Ginibre phase product overflows at a far anchor, with no warning
    with pytest.raises(OverflowError, match=r"K\(u, u\) at the anchor"):
        repulsiveness_p(_ginibre(), [1e200, 1e200])


def test_numpy_integer_sites_and_counts_accepted():
    # the gates take any integer type, so numpy integers from arrays and
    # index arithmetic pass like Python ints
    dpp = finite_dpp.validate(np.diag([0.3, 0.7]))
    site = np.int64(2)
    assert repulsiveness_p(model_zoo.finite_kernel(dpp), site).p_u == pytest.approx(0.7)
    assert finite_dpp.p_u_finite(dpp, np.int32(2)) == pytest.approx(0.7)
    table = finite_dpp.couple(dpp, site)[1]
    assert finite_dpp.xi_law(table)[0] == pytest.approx(0.7)
    assert finite_dpp.sample_indicators(dpp, 0, np.int64(3)).shape == (3, 2)
    assert finite_dpp.sample_coupled_many(table, 0, np.uint8(4))[0].shape == (4,)
    assert np.array_equal(finite_dpp.sample_indicators(dpp, np.uint64(7), 5),
                          finite_dpp.sample_indicators(dpp, 7, 5))
    assert analysis.grid_discretize(_ginibre(), SQUARE, np.int64(3)).dpp.n == 9
    assert profile_coordinates(_ginibre(), np.int16(5)).size == 5
    assert model_zoo.sphere_model(np.int64(2), 0.05, [0.6, 0.4]).d == 2
    assert GroundSpace("sphere", np.int64(2)).size == 2


def _plane(d):
    return np.linspace(0.0, 1.0, 2 * d).reshape(2, d)


# each kernel, and the points its gram takes
KERNELS = {
    "finite": lambda: (_finite2(), np.array([1, 2])),
    "ginibre": lambda: (_ginibre(), _plane(2)),
    "sinc": lambda: (model_zoo.jinc_kernel(1), _plane(1)),
    "jinc": lambda: (model_zoo.jinc_kernel(2), _plane(2)),
    "thinned-jinc": lambda: (model_zoo.thin_rescale(model_zoo.jinc_kernel(2), 0.5, 0.8),
                             _plane(2)),
    "thinned-ginibre": lambda: (model_zoo.thin_rescale(_ginibre(), 0.5, 0.8), _plane(2)),
    "sphere-series": lambda: (model_zoo.sphere_kernel(model_zoo.sphere_model(2, 0.05, [0.6, 0.4])),
                              np.array([NORTH, [1.0, 0.0, 0.0]])),
    "multiquadric": lambda: (_sphere(), np.array([NORTH, [1.0, 0.0, 0.0]])),
    "palm": lambda: (palm_kernel(_ginibre(), np.zeros(2)), _plane(2)),
}


@pytest.mark.parametrize("make", KERNELS.values(), ids=KERNELS)
def test_kernel_callables_take_only_their_arguments(make):
    # a parameter captured as a default argument would take the extra
    # argument in its place and answer for another kernel
    kernel, X = make()
    r = np.array([0.0, 0.5])
    calls = {"gram": (X, X), "radial": (r,), "radial_abs_sq": (r,), "k0": (r,),
             "grid_factor": (_plane(2), 0.1)}
    for field, args in calls.items():
        fn = getattr(kernel, field)
        if fn is not None:
            with pytest.raises(TypeError, match="argument"):
                fn(*args, 0.5)
