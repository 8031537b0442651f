"""Scenario files: one JSON document bundling both agents' private data plus
mechanism and coordination settings.

The schema is strict: unknown fields are rejected with their dotted path, and
defaults are applied at load time so a saved scenario round-trips exactly.
``toy`` and ``toy_dynamic`` are bundled as canonical examples.
"""

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .consensus import ConsensusConfig
from .dynamic import MODES, InventoryModel
from .errors import CoplanError, SchemaError
from .mechanism import FEE_VARIANTS, FeePolicy
from .transport import RetailerSpec, SupplierSpec

RUN_MODES = ("centralized", "cpp", "protocol")
ANALYSES = ("jit", "firstbest", "vcg", "menu", "dynamic")

_CONSENSUS_FIELDS = ("rho", "eps_abs", "eps_rel", "max_iters", "adapt_rho")


@dataclass(frozen=True)
class DynamicSettings:
    model: InventoryModel
    initial_inventory: float
    demand_path: np.ndarray      # realized demand, defaults to the forecasts
    commitment: str


@dataclass(frozen=True)
class Scenario:
    name: str
    retailer: RetailerSpec
    supplier: SupplierSpec
    fee: FeePolicy
    menu_plans: list | None
    dynamic: DynamicSettings | None
    consensus: ConsensusConfig
    mode: str

    def to_dict(self):
        """Full document with all defaults resolved (load/save round-trips)."""
        doc = {
            "name": self.name,
            "retailer": {
                "demand": self.retailer.demand.tolist(),
                "arc_costs": self.retailer.arc_costs.tolist(),
                "gross_profit_per_unit": self.retailer.gross_profit.tolist(),
                "lost_sales_penalty": self.retailer.lost_sales_penalty,
            },
            "supplier": {
                "capacities": self.supplier.capacities.tolist(),
                "arc_costs": self.supplier.arc_costs.tolist(),
                "gross_profit_per_unit": self.supplier.gross_profit.tolist(),
            },
            "fee": {
                "variant": self.fee.variant,
                "alpha": self.fee.alpha,
                "beta": self.fee.beta,
                "roi_rate": self.fee.roi_rate,
                "over_rate": self.fee.over_rate,
                "under_rate": self.fee.under_rate,
            },
            "menu_plans": None if self.menu_plans is None else
                          [list(map(float, p)) for p in self.menu_plans],
            "dynamic": None,
            "consensus": {key: getattr(self.consensus, key) for key in _CONSENSUS_FIELDS},
            "mode": self.mode,
        }
        if self.dynamic is not None:
            model = self.dynamic.model
            doc["dynamic"] = {
                "forecasts": model.forecasts.tolist(),
                "horizon": model.horizon,
                "holding_cost": model.holding_cost,
                "lost_sales_cost": model.lost_sales_cost,
                "retailer_margin": model.retailer_margin,
                "supplier_margin": model.supplier_margin,
                "smoothing_cost": model.smoothing_cost,
                "target_inventory": model.target_inventory.tolist(),
                "initial_inventory": self.dynamic.initial_inventory,
                "demand_path": self.dynamic.demand_path.tolist(),
                "commitment": self.dynamic.commitment,
            }
        return doc


def _require(doc, path, allowed):
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}" if path else sorted(unknown)[0],
                          "unknown field")


def _number(doc, path, name, default=None):
    if name not in doc:
        if default is None:
            raise SchemaError(f"{path}.{name}", "required field is missing")
        return default
    value = doc[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{name}", "expected a number")
    return float(value)


def _vector(doc, path, name, default=None, required=True):
    if name not in doc:
        if required:
            raise SchemaError(f"{path}.{name}", "required field is missing")
        return default
    value = doc[name]
    if not isinstance(value, list) or not value or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise SchemaError(f"{path}.{name}", "expected a nonempty list of numbers")
    return [float(v) for v in value]


def _matrix(doc, path, name):
    value = doc.get(name)
    if (not isinstance(value, list) or not value
            or not all(isinstance(row, list) and row for row in value)):
        raise SchemaError(f"{path}.{name}", "expected a nonempty matrix")
    width = len(value[0])
    for row in value:
        if len(row) != width or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in row):
            raise SchemaError(f"{path}.{name}", "rows must be equal-length lists of numbers")
    return [[float(v) for v in row] for row in value]


def scenario_from_dict(doc, name="scenario"):
    _require(doc, "", ("name", "retailer", "supplier", "fee", "menu_plans",
                       "dynamic", "consensus", "mode"))
    name = doc.get("name", name)
    if not isinstance(name, str):
        raise SchemaError("name", "expected a string")

    if "retailer" not in doc:
        raise SchemaError("retailer", "required block is missing")
    if "supplier" not in doc:
        raise SchemaError("supplier", "required block is missing")

    r = doc["retailer"]
    _require(r, "retailer", ("demand", "arc_costs", "gross_profit_per_unit",
                             "lost_sales_penalty"))
    try:
        retailer = RetailerSpec(
            demand=_vector(r, "retailer", "demand"),
            arc_costs=_matrix(r, "retailer", "arc_costs"),
            gross_profit=_vector(r, "retailer", "gross_profit_per_unit"),
            lost_sales_penalty=_number(r, "retailer", "lost_sales_penalty", default=1000.0),
        )
    except CoplanError as exc:
        raise SchemaError("retailer", str(exc)) from exc

    s = doc["supplier"]
    _require(s, "supplier", ("capacities", "arc_costs", "gross_profit_per_unit"))
    try:
        supplier = SupplierSpec(
            capacities=_vector(s, "supplier", "capacities"),
            arc_costs=_matrix(s, "supplier", "arc_costs"),
            gross_profit=_vector(s, "supplier", "gross_profit_per_unit"),
        )
    except CoplanError as exc:
        raise SchemaError("supplier", str(exc)) from exc
    if supplier.n_inbound != retailer.n_inbound:
        raise SchemaError("supplier.arc_costs",
                          f"supplier serves {supplier.n_inbound} inbound nodes, "
                          f"retailer has {retailer.n_inbound}")

    f = doc.get("fee", {})
    _require(f, "fee", ("variant", "alpha", "beta", "roi_rate", "over_rate", "under_rate"))
    variant = f.get("variant", "none")
    if variant not in FEE_VARIANTS:
        raise SchemaError("fee.variant", f"expected one of {FEE_VARIANTS}")
    try:
        fee = FeePolicy(
            variant=variant,
            alpha=_number(f, "fee", "alpha", default=0.0),
            beta=_number(f, "fee", "beta", default=0.0),
            roi_rate=_number(f, "fee", "roi_rate", default=0.0),
            over_rate=_number(f, "fee", "over_rate", default=0.0),
            under_rate=_number(f, "fee", "under_rate", default=0.0),
        )
    except CoplanError as exc:
        raise SchemaError("fee", str(exc)) from exc

    menu_plans = None
    if doc.get("menu_plans") is not None:
        raw = doc["menu_plans"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError("menu_plans", "expected a nonempty list of plans")
        menu_plans = []
        for idx, plan in enumerate(raw):
            if (not isinstance(plan, list) or len(plan) != retailer.n_inbound
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               for v in plan)):
                raise SchemaError(f"menu_plans[{idx}]",
                                  f"expected {retailer.n_inbound} numbers")
            menu_plans.append([float(v) for v in plan])

    dynamic = None
    if doc.get("dynamic") is not None:
        d = doc["dynamic"]
        _require(d, "dynamic", ("forecasts", "horizon", "holding_cost", "lost_sales_cost",
                                "retailer_margin", "supplier_margin", "smoothing_cost",
                                "target_inventory", "initial_inventory", "demand_path",
                                "commitment"))
        forecasts = _vector(d, "dynamic", "forecasts")
        commitment = d.get("commitment", "none")
        if commitment not in MODES:
            raise SchemaError("dynamic.commitment", f"expected one of {MODES}")
        horizon = d.get("horizon", 6)
        if isinstance(horizon, bool) or not isinstance(horizon, int):
            raise SchemaError("dynamic.horizon", "expected an integer")
        try:
            model = InventoryModel(
                forecasts=forecasts,
                holding_cost=_number(d, "dynamic", "holding_cost", default=1.0),
                lost_sales_cost=_number(d, "dynamic", "lost_sales_cost", default=9.0),
                retailer_margin=_number(d, "dynamic", "retailer_margin", default=10.0),
                supplier_margin=_number(d, "dynamic", "supplier_margin", default=3.0),
                smoothing_cost=_number(d, "dynamic", "smoothing_cost", default=0.5),
                horizon=horizon,
                target_inventory=_vector(d, "dynamic", "target_inventory",
                                         required=False, default=None),
            )
        except CoplanError as exc:
            raise SchemaError("dynamic", str(exc)) from exc
        demand_path = _vector(d, "dynamic", "demand_path", required=False,
                              default=list(model.forecasts))
        if len(demand_path) != model.n_weeks:
            raise SchemaError("dynamic.demand_path", "must cover every forecast week")
        dynamic = DynamicSettings(
            model=model,
            initial_inventory=_number(d, "dynamic", "initial_inventory", default=0.0),
            demand_path=np.asarray(demand_path),
            commitment=commitment,
        )

    c = doc.get("consensus", {})
    _require(c, "consensus", _CONSENSUS_FIELDS)
    default = ConsensusConfig()
    max_iters = c.get("max_iters", default.max_iters)
    if isinstance(max_iters, bool) or not isinstance(max_iters, int) or max_iters < 1:
        raise SchemaError("consensus.max_iters", "expected a positive integer")
    adapt = c.get("adapt_rho", default.adapt_rho)
    if not isinstance(adapt, bool):
        raise SchemaError("consensus.adapt_rho", "expected a boolean")
    consensus = ConsensusConfig(
        rho=_number(c, "consensus", "rho", default=default.rho),
        eps_abs=_number(c, "consensus", "eps_abs", default=default.eps_abs),
        eps_rel=_number(c, "consensus", "eps_rel", default=default.eps_rel),
        max_iters=max_iters,
        adapt_rho=adapt,
    )
    if consensus.rho <= 0:
        raise SchemaError("consensus.rho", "must be positive")

    mode = doc.get("mode", "centralized")
    if mode not in RUN_MODES:
        raise SchemaError("mode", f"expected one of {RUN_MODES}")

    return Scenario(name=name, retailer=retailer, supplier=supplier, fee=fee,
                    menu_plans=menu_plans, dynamic=dynamic, consensus=consensus, mode=mode)


def bundled_scenario_path(name):
    """Filesystem path of a scenario shipped with the package."""
    ref = resources.files("coplan").joinpath(f"data/{name}.scn")
    if not ref.is_file():
        raise SchemaError(name, "no such bundled scenario")
    return Path(str(ref))


def load_scenario(path):
    """Load a scenario document from a file path or a bundled name."""
    p = Path(path)
    if not p.exists() and p.suffix == "" and "/" not in str(path):
        p = bundled_scenario_path(str(path))
    try:
        text = p.read_text()
    except OSError as exc:
        raise SchemaError(str(path), f"cannot read scenario: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"invalid json: {exc.msg} (line {exc.lineno})") from exc
    return scenario_from_dict(doc, name=p.stem)


def save_scenario(scenario, path):
    Path(path).write_text(json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n")
