"""The one input rule: every number coplan takes in is finite, fits in a float
and, where it must be, is nonnegative, whether it comes from a scenario file,
a wire message or a Python caller."""

import dataclasses
import math
import types

import numpy as np
import pytest

from coplan.consensus import ConsensusConfig, RetailerAgent, SupplierAgent, run_consensus
from coplan.dynamic import InventoryModel, coordinated_plan, roll_forward, simulate
from coplan.errors import DimensionError, ParameterError
from coplan.mechanism import FeePolicy
from coplan.transport import RetailerSpec, SupplierSpec, checked, solve_transport

BIG = 10 ** 400  # an integer no float holds
BAD = [math.nan, math.inf, -math.inf, BIG]

# a valid instance of each class, and a sample for each field that defaults to None
VALID = {
    RetailerSpec: {"demand": [40, 60], "arc_costs": [[1, 5], [2, 3]], "gross_profit": [20, 20]},
    SupplierSpec: {"capacities": [100, 10], "arc_costs": [[10, 5], [1, 2]],
                   "gross_profit": [20, 20]},
    FeePolicy: {},
    InventoryModel: {"forecasts": [5.0, 5.0]},
    ConsensusConfig: {},
}
SAMPLES = {"initial_plan": [1.0, 1.0], "initial_prices": [[0.0, 0.0], [0.0, 0.0]]}


def _numeric(annotation):
    """Whether a field annotated so holds a float or an array of them."""
    kinds = annotation.__args__ if isinstance(annotation, types.UnionType) else (annotation,)
    return float in kinds or np.ndarray in kinds


def _with_one_entry(value, bad):
    """``value`` with its first number replaced by ``bad``, keeping its shape."""
    if not isinstance(value, list):
        return bad
    return [_with_one_entry(value[0], bad), *value[1:]]


def _cases():
    for cls, valid in VALID.items():
        for field in dataclasses.fields(cls):
            if not _numeric(field.type):
                continue
            value = valid.get(field.name, SAMPLES.get(field.name, field.default))
            assert value is not None, f"{cls.__name__}.{field.name} needs a sample"
            for bad in BAD:
                label = "BIG" if bad is BIG else bad
                yield pytest.param(cls, field.name, _with_one_entry(value, bad),
                                   id=f"{cls.__name__}.{field.name}={label}")


@pytest.mark.parametrize("cls, name, value", list(_cases()))
def test_every_numeric_field_rejects_numbers_that_are_not_finite(cls, name, value):
    cls(**VALID[cls])  # the instance is valid without the bad number
    with pytest.raises(ParameterError, match=name):
        cls(**{**VALID[cls], name: value})


def test_the_field_walk_finds_every_numeric_field():
    found = {(cls.__name__, f.name) for cls in VALID for f in dataclasses.fields(cls)
             if _numeric(f.type)}
    assert {("ConsensusConfig", "initial_prices"), ("RetailerSpec", "lost_sales_penalty"),
            ("InventoryModel", "forecasts"), ("FeePolicy", "under_rate")} <= found
    assert ("ConsensusConfig", "max_iters") not in found


def test_constructors_store_numbers_as_floats():
    fee = FeePolicy(variant="additive", alpha=50)
    assert type(fee.alpha) is float and fee.transfer_term(0.0) == 50.0
    model = InventoryModel(forecasts=[5, 5], holding_cost=2)
    assert type(model.holding_cost) is float
    assert type(ConsensusConfig(rho=3).rho) is float
    spec = RetailerSpec(**VALID[RetailerSpec], lost_sales_penalty=np.float32(900))
    assert type(spec.lost_sales_penalty) is float


@pytest.mark.parametrize("value, want", [
    (3, 3.0), (2.5, 2.5), (np.float64(1.5), 1.5), (np.int64(4), 4.0), (True, 1.0),
])
def test_a_number_comes_back_as_a_float(value, want):
    got = checked(value, "x")
    assert type(got) is float and got == want


def test_a_list_of_python_numbers_comes_back_as_it_is_and_the_rest_as_an_array():
    plain = [1, 2.5]
    assert checked(plain, "x") is plain and checked([], "x") == []
    got = checked([[1, 2], [3, 4]], "x")
    assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == (2, 2)
    got = checked([np.float64(1.0), 2], "x")  # not plain Python numbers
    assert isinstance(got, np.ndarray) and got.tolist() == [1.0, 2.0]
    array = np.array([1.0, 2.0])
    assert checked(array, "x") is array


@pytest.mark.parametrize("values", [
    math.nan, math.inf, BIG, [1, math.nan], [BIG, 1], [[1, 2], [BIG, 3]],
    np.array([1.0, -math.inf]),
])
def test_a_non_finite_number_in_any_form_is_rejected(values):
    with pytest.raises(ParameterError, match="^x must be finite$"):
        checked(values, "x")
    with pytest.raises(ParameterError, match="^x must be finite$"):
        checked(values, "x", nonnegative=True)


@pytest.mark.parametrize("values", [
    -1, -0.5, [3, -1], [[1, 2], [-3, 4]], np.array([0.0, -1e-300]),
])
def test_a_negative_number_is_rejected_only_where_it_must_not_be(values):
    checked(values, "x")
    with pytest.raises(ParameterError, match="^x must be nonnegative$"):
        checked(values, "x", nonnegative=True)
    assert checked(-0.0, "x", nonnegative=True) == 0.0


def test_a_message_replaces_the_named_one():
    with pytest.raises(ParameterError, match="^bad$"):
        checked(math.nan, "x", message="bad")
    with pytest.raises(ParameterError, match="^bad$"):
        checked(-1.0, "x", nonnegative=True, message="bad")


@pytest.mark.parametrize("value", [*BAD, -1.0])
def test_simulate_checks_its_starting_inventory(value):
    # regression: on_hand = 10**400 raised OverflowError
    model = InventoryModel(forecasts=[5.0, 5.0], horizon=2)
    with pytest.raises(ParameterError, match="starting inventory"):
        simulate(model, [5.0, 5.0], on_hand=value)


@pytest.mark.parametrize("value", [*BAD, -1.0])
def test_roll_forward_checks_the_realized_demand(value):
    # regression: roll_forward checked nothing; a demand of -1 sold -1 unit
    # and a NaN demand went into the week record
    model = InventoryModel(forecasts=[5.0, 5.0, 5.0], horizon=2)
    state = model.initial_state()
    plan = coordinated_plan(model, state).orders
    with pytest.raises(ParameterError, match="realized demand"):
        roll_forward(model, state, value, plan)
    roll_forward(model, state, 4, plan)


@pytest.mark.parametrize("horizon", [2.5, 2.0, True, "2"])
def test_a_horizon_that_is_not_a_whole_number_of_weeks_is_rejected(horizon):
    # regression: horizon = 2.5 built float week indices and simulate raised IndexError
    with pytest.raises(ParameterError, match="whole number of weeks"):
        InventoryModel(forecasts=[5.0, 5.0, 5.0], horizon=horizon)
    assert InventoryModel(forecasts=[5.0, 5.0, 5.0], horizon=np.int64(2)).window(0).size == 2


@pytest.mark.parametrize("max_iters", [2.5, 0, -3, True, None])
def test_max_iters_must_be_a_positive_integer(max_iters):
    # regression: max_iters = 2.5 made run_consensus raise TypeError
    with pytest.raises(ParameterError, match="max_iters must be a positive integer"):
        ConsensusConfig(max_iters=max_iters)


def test_a_non_finite_start_is_rejected_before_the_run(toy_retailer, toy_supplier):
    # regression: a NaN start raised IndexError in the run and an infinite
    # start price UnboundLocalError
    agents = [RetailerAgent(toy_retailer), SupplierAgent(toy_supplier)]
    with pytest.raises(ParameterError, match="initial_plan must be finite"):
        run_consensus(agents, ConsensusConfig(initial_plan=[math.nan, 1.0]))
    with pytest.raises(ParameterError, match="initial_prices must be finite"):
        run_consensus(agents, ConsensusConfig(initial_prices=[[math.inf, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("penalty, fault", [
    (math.nan, "finite"), (math.inf, "finite"), (BIG, "finite"), (-5.0, "nonnegative"),
])
def test_solve_transport_checks_its_slack_penalty(penalty, fault):
    # regression: a NaN penalty gave a NaN objective and a negative one paid
    # for every unit short
    with pytest.raises(ParameterError, match=f"slack_penalty must be {fault}"):
        solve_transport([[1.0, 5.0]], [10.0], [40.0, 60.0], slack_penalty=penalty)


@pytest.mark.parametrize("call, message", [
    (lambda: RetailerSpec(**{**VALID[RetailerSpec], "demand": [[40, 60]]}),
     r"demand must be one-dimensional, got shape \(1, 2\)"),
    (lambda: solve_transport([1.0, 5.0], [10.0], [40.0, 60.0]),
     r"costs must be a matrix, got shape \(2,\)"),
])
def test_an_array_of_the_wrong_dimension_is_a_dimension_error(call, message):
    with pytest.raises(DimensionError, match=message):
        call()
