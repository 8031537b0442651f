"""Scenario files: one JSON document bundling both agents' private data plus mechanism
and coordination settings, read by one table per block that maps each JSON key, in the
order keys are checked, to the dataclass field it fills and the reader that checks it.
``to_dict`` walks the same tables, so a saved scenario round-trips exactly.  Unknown keys
and non-finite numbers (``NaN``, ``Infinity``, integers past a float's range) are
rejected with their dotted path; a key left out takes the default of the dataclass it
fills.  ``toy`` and ``toy_dynamic`` are bundled examples.
"""

import json
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .consensus import ConsensusConfig
from .dynamic import MODES, InventoryModel
from .errors import CoplanError, ParameterError, SchemaError
from .mechanism import FEE_VARIANTS, FeePolicy
from .transport import RetailerSpec, SupplierSpec, checked

RUN_MODES = ("centralized", "cpp", "protocol")
ANALYSES = ("jit", "firstbest", "vcg", "menu", "dynamic")


@dataclass(frozen=True)
class DynamicSettings:
    model: InventoryModel
    initial_inventory: float = 0.0
    demand_path: np.ndarray | None = None   # realized demand, defaults to the forecasts
    commitment: str = "none"

    def __post_init__(self):
        path = (self.model.forecasts.copy() if self.demand_path is None
                else np.asarray(self.demand_path, dtype=float))
        if path.shape != self.model.forecasts.shape:
            raise SchemaError("dynamic.demand_path", "must cover every forecast week")
        if (path < 0).any():
            raise SchemaError("dynamic.demand_path", "realized demand must be nonnegative")
        if self.initial_inventory < 0:
            raise SchemaError("dynamic.initial_inventory", "must be nonnegative")
        object.__setattr__(self, "demand_path", path)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(values, path):
    """A number as a float, or a list of numbers, checked by :func:`~coplan.transport.checked`."""
    try:
        return checked(values, path)
    except ParameterError:
        raise SchemaError(path, "non-finite number") from None


def _number(value, path):
    if not _is_number(value):
        raise SchemaError(path, "expected a number")
    return _finite(value, path)


def _vector(value, path):
    if not isinstance(value, list) or not value or not all(map(_is_number, value)):
        raise SchemaError(path, "expected a nonempty list of numbers")
    return _finite(value, path)


def _matrix(value, path):
    if (not isinstance(value, list) or not value
            or not all(isinstance(row, list) and row for row in value)):
        raise SchemaError(path, "expected a nonempty matrix")
    if any(len(row) != len(value[0]) or not all(map(_is_number, row)) for row in value):
        raise SchemaError(path, "rows must be equal-length lists of numbers")
    return [_finite(row, path) for row in value]


def _kind(accepts, message):
    """A reader that passes on each value ``accepts`` takes and rejects the rest."""
    def read(value, path):
        if not accepts(value):
            raise SchemaError(path, message)
        return value
    return read


def _one_of(options):
    return _kind(lambda value: value in options, f"expected one of {options}")


_integer = _kind(lambda v: isinstance(v, int) and _is_number(v), "expected an integer")
_count = _kind(lambda v: isinstance(v, int) and _is_number(v) and v >= 1,
               "expected a positive integer")
_boolean = _kind(lambda v: isinstance(v, bool), "expected a boolean")

# A reader's rejection names the block, as the block's dataclass names it for its own
# checks, except for entries marked _NAMED, which name the key.
_NAMED = "named"

_RETAILER = {
    "demand": ("demand", _vector),
    "arc_costs": ("arc_costs", _matrix),
    "gross_profit_per_unit": ("gross_profit", _vector),
    "lost_sales_penalty": ("lost_sales_penalty", _number),
}
_SUPPLIER = {
    "capacities": ("capacities", _vector),
    "arc_costs": ("arc_costs", _matrix),
    "gross_profit_per_unit": ("gross_profit", _vector),
}
_FEE = {
    "variant": ("variant", _one_of(FEE_VARIANTS), _NAMED),
    "alpha": ("alpha", _number), "beta": ("beta", _number), "roi_rate": ("roi_rate", _number),
    "over_rate": ("over_rate", _number), "under_rate": ("under_rate", _number),
}
_DYNAMIC = {   # fills InventoryModel, and DynamicSettings for the fields that are its own
    "forecasts": ("forecasts", _vector, _NAMED),
    "commitment": ("commitment", _one_of(MODES), _NAMED),
    "horizon": ("horizon", _integer, _NAMED),
    "holding_cost": ("holding_cost", _number), "lost_sales_cost": ("lost_sales_cost", _number),
    "retailer_margin": ("retailer_margin", _number),
    "supplier_margin": ("supplier_margin", _number),
    "smoothing_cost": ("smoothing_cost", _number),
    "demand_path": ("demand_path", _vector, _NAMED),
    "initial_inventory": ("initial_inventory", _number, _NAMED),
}
_CONSENSUS = {
    "max_iters": ("max_iters", _count, _NAMED),
    "adapt_rho": ("adapt_rho", _boolean, _NAMED),
    "rho": ("rho", _number, _NAMED), "eps_abs": ("eps_abs", _number, _NAMED),
    "eps_rel": ("eps_rel", _number, _NAMED),
}
# each block dataclass's fields, mapped to whether the field is required (has no default)
_FIELDS = {cls: {f.name: f.default is f.default_factory is MISSING for f in fields(cls)}
           for cls in (RetailerSpec, SupplierSpec, FeePolicy, InventoryModel, ConsensusConfig)}


def _require(doc, path, allowed):
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}" if path else unknown[0], "unknown field")


def _block(doc, path, table, cls, outer=None):
    """``cls`` built from the keys of block ``doc`` that ``table`` reads, in table order,
    and wrapped in ``outer`` with the fields not its own; a left-out key takes its default."""
    _require(doc, path, table)
    cls_fields = _FIELDS[cls]
    own, rest = {}, {}
    for key, (field, read, *named) in table.items():
        try:
            if key in doc:
                (own if field in cls_fields else rest)[field] = read(doc[key], f"{path}.{key}")
            elif cls_fields.get(field):
                raise SchemaError(f"{path}.{key}", "required field is missing")
        except SchemaError as exc:
            if named:
                raise
            raise SchemaError(path, str(exc)) from exc
    try:
        built = cls(**own)
    except CoplanError as exc:
        raise SchemaError(path, str(exc)) from exc
    return outer(built, **rest) if outer else built


def _dump(values, table):
    return {key: value.tolist() if isinstance(value := values[field], np.ndarray) else value
            for key, (field, *_) in table.items()}


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
        dynamic = self.dynamic and {**vars(self.dynamic.model), **vars(self.dynamic)}
        return {
            "name": self.name,
            "retailer": _dump(vars(self.retailer), _RETAILER),
            "supplier": _dump(vars(self.supplier), _SUPPLIER),
            "fee": _dump(vars(self.fee), _FEE),
            "menu_plans": self.menu_plans and [list(map(float, p)) for p in self.menu_plans],
            "dynamic": dynamic and _dump(dynamic, _DYNAMIC),
            "consensus": _dump(vars(self.consensus), _CONSENSUS),
            "mode": self.mode,
        }


def scenario_from_dict(doc, name="scenario"):
    _require(doc, "", ("name", "retailer", "supplier", "fee", "menu_plans",
                       "dynamic", "consensus", "mode"))
    name = doc.get("name", name)
    if not isinstance(name, str):
        raise SchemaError("name", "expected a string")
    for block in ("retailer", "supplier"):
        if block not in doc:
            raise SchemaError(block, "required block is missing")

    retailer = _block(doc["retailer"], "retailer", _RETAILER, RetailerSpec)
    supplier = _block(doc["supplier"], "supplier", _SUPPLIER, SupplierSpec)
    if supplier.n_inbound != retailer.n_inbound:
        raise SchemaError("supplier.arc_costs", f"supplier serves {supplier.n_inbound} "
                          f"inbound nodes, retailer has {retailer.n_inbound}")
    fee = _block(doc.get("fee", {}), "fee", _FEE, FeePolicy)

    menu_plans = doc.get("menu_plans")
    if menu_plans is not None:
        if not isinstance(menu_plans, list) or not menu_plans:
            raise SchemaError("menu_plans", "expected a nonempty list of plans")
        n = retailer.n_inbound
        for idx, plan in enumerate(menu_plans):
            if not isinstance(plan, list) or len(plan) != n or not all(map(_is_number, plan)):
                raise SchemaError(f"menu_plans[{idx}]", f"expected {n} numbers")
        menu_plans = [_finite(p, f"menu_plans[{i}]") for i, p in enumerate(menu_plans)]

    dynamic = doc.get("dynamic")
    if dynamic is not None:
        dynamic = _block(dynamic, "dynamic", _DYNAMIC, InventoryModel, outer=DynamicSettings)
    consensus = _block(doc.get("consensus", {}), "consensus", _CONSENSUS, ConsensusConfig)
    if consensus.rho <= 0:
        raise SchemaError("consensus.rho", "must be positive")
    mode = _one_of(RUN_MODES)(doc.get("mode", "centralized"), "mode")
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
    except UnicodeDecodeError as exc:
        raise SchemaError(str(path), f"not utf-8 text (byte {exc.start})") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"invalid json: {exc.msg} (line {exc.lineno})") from exc
    except RecursionError:
        raise SchemaError(str(path), "invalid json: nesting too deep") from None
    return scenario_from_dict(doc, name=p.stem)


def save_scenario(scenario, path):
    Path(path).write_text(json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n")
