import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rhlab import fluid
from rhlab.errors import ParameterError
from rhlab.grid import SpatialGrid
from rhlab.norms import NormSettings
from rhlab.physics import PhysicalConstants, ViscosityParams
from rhlab.picard import DeltaSchedule, SlabConfig

POSITIVE = st.floats(1e-3, 1e3)

# class -> strategy of valid keyword arguments
VALID = {
    NormSettings: st.fixed_dictionaries({"q": st.floats(3.0, 6.0, exclude_min=True)}),
    ViscosityParams: POSITIVE.flatmap(lambda mu: st.fixed_dictionaries(
        {"mu": st.just(mu), "lam": st.floats(-2.0 * mu / 3.0, 1e3)})),
    PhysicalConstants: st.fixed_dictionaries({"c": POSITIVE}),
    SlabConfig: POSITIVE.flatmap(lambda T: st.fixed_dictionaries(
        {"slab_length": st.just(T), "dt": st.floats(T / 100, T)},
        optional={"max_iters": st.integers(1, 50), "gamma_tol": POSITIVE,
                  "max_halvings": st.integers(0, 4),
                  "continuity": st.sampled_from(["fv", "characteristics"])})),
    SpatialGrid: st.integers(1, 3).flatmap(lambda dim: st.fixed_dictionaries(
        {"extents": st.tuples(*[st.integers(4, 64)] * dim),
         "spacing": st.tuples(*[POSITIVE] * dim),
         "boundary": st.sampled_from(["periodic", "farfield"]),
         "rho_bar": st.floats(0.0, 1e3)})),
    DeltaSchedule: st.fixed_dictionaries(
        {"deltas": st.lists(POSITIVE, min_size=1, max_size=4, unique=True).map(
            lambda d: tuple(sorted(d, reverse=True)))}),
}

# the invalid arguments of the classes' own tests
INVALID = [
    (NormSettings, {"q": 3.0}), (NormSettings, {"q": 6.5}), (NormSettings, {"q": 2.0}),
    (ViscosityParams, {"mu": 0.0, "lam": 1.0}), (ViscosityParams, {"mu": 3.0, "lam": -3.0}),
    (PhysicalConstants, {"c": 0.0}),
    (SlabConfig, {"slab_length": 0.01, "dt": 0.02}),
    (SlabConfig, {"slab_length": 0.01, "dt": 0.0}),
    (SlabConfig, {"slab_length": 0.01, "dt": 0.01, "continuity": "weno"}),
    (SlabConfig, {"slab_length": 0.01, "dt": 0.01, "max_halvings": -1}),
    (SlabConfig, {"slab_length": 0.01, "dt": 0.01, "gamma_tol": math.nan}),
    (DeltaSchedule, {"deltas": (1e-3, 1e-2)}), (DeltaSchedule, {"deltas": (1e-2, 0.0)}),
    (DeltaSchedule, {"deltas": (math.inf,)}),
    (SpatialGrid, {"extents": (8,), "spacing": (0.125,), "boundary": "farfield"}),
    (SpatialGrid, {"extents": (8,), "spacing": (0.125,), "rho_bar": math.nan}),
    (SpatialGrid, {"extents": (8,), "spacing": (0.125,), "boundary": "farfield",
                   "rho_bar": -1.0}),
]


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_value_semantics(cls, data):
    kwargs = data.draw(VALID[cls])
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b
    field = data.draw(st.sampled_from(cls.__slots__))
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b


@pytest.mark.parametrize("cls, kwargs", INVALID)
def test_invalid_arguments_raise(cls, kwargs):
    with pytest.raises(ParameterError):
        cls(**kwargs)


def test_replace_validates_again():
    cfg = SlabConfig(slab_length=0.02, dt=0.01)
    assert cfg._replace(slab_length=0.01) == SlabConfig(slab_length=0.01, dt=0.01)
    with pytest.raises(ParameterError):
        cfg._replace(slab_length=0.005)


def test_repr_is_the_dataclass_repr():
    assert repr(ViscosityParams(mu=1.0, lam=0.5)) == "ViscosityParams(mu=1.0, lam=0.5)"
    assert repr(DeltaSchedule([1, 0.5])) == "DeltaSchedule(deltas=(1.0, 0.5))"


def test_equal_viscosities_share_the_momentum_layout():
    grid = SpatialGrid.periodic(12, 1.0)
    first = fluid._momentum_layout(grid, ViscosityParams(mu=0.37, lam=0.11))
    hits = fluid._momentum_layout_of.cache_info().hits
    again = fluid._momentum_layout(grid, ViscosityParams(mu=0.37, lam=0.11))
    assert fluid._momentum_layout_of.cache_info().hits == hits + 1
    assert again is first
